package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageInsertGet(t *testing.T) {
	var p Page
	p.Init()
	rec := []byte("hello world")
	slot, err := p.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(slot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Fatalf("Get = %q, want %q", got, rec)
	}
}

func TestPageRejectsEmptyAndOversized(t *testing.T) {
	var p Page
	p.Init()
	if _, err := p.Insert(nil); err == nil {
		t.Error("empty record must be rejected")
	}
	if _, err := p.Insert(make([]byte, PageSize)); err == nil {
		t.Error("oversized record must be rejected")
	}
}

func TestPageDeleteAndTombstoneReuse(t *testing.T) {
	var p Page
	p.Init()
	s1, _ := p.Insert([]byte("first"))
	s2, _ := p.Insert([]byte("second"))
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s1); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("Get(deleted) err = %v", err)
	}
	if err := p.Delete(s1); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("double delete err = %v", err)
	}
	// Reinsertion should reuse the tombstoned slot.
	s3, err := p.Insert([]byte("third"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Errorf("tombstone not reused: got slot %d, want %d", s3, s1)
	}
	if got, _ := p.Get(s2); !bytes.Equal(got, []byte("second")) {
		t.Error("unrelated record corrupted by delete/reuse")
	}
}

func TestPageFull(t *testing.T) {
	var p Page
	p.Init()
	rec := make([]byte, 1000)
	n := 0
	for {
		_, err := p.Insert(rec)
		if errors.Is(err, ErrPageFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n > PageSize/1000+1 {
			t.Fatal("page never filled")
		}
	}
	if n != (PageSize-pageHeaderSize)/(1000+slotSize) {
		t.Logf("packed %d x 1000-byte records (expected about 8)", n)
	}
	if p.FreeSpace() >= 1000 {
		t.Errorf("FreeSpace=%d after fill, should be < 1000", p.FreeSpace())
	}
}

func TestPageUpdateInPlaceAndGrow(t *testing.T) {
	var p Page
	p.Init()
	slot, _ := p.Insert([]byte("abcdef"))
	other, _ := p.Insert([]byte("other"))

	// Shrink in place.
	if err := p.Update(slot, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(slot); !bytes.Equal(got, []byte("xy")) {
		t.Fatalf("after shrink: %q", got)
	}
	// Grow within free space.
	grown := bytes.Repeat([]byte("G"), 100)
	if err := p.Update(slot, grown); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(slot); !bytes.Equal(got, grown) {
		t.Fatalf("after grow: %q", got)
	}
	if got, _ := p.Get(other); !bytes.Equal(got, []byte("other")) {
		t.Error("neighbor corrupted by update")
	}
}

func TestPageUpdateCompactsDeadSpace(t *testing.T) {
	var p Page
	p.Init()
	// Fill with 7 x 1KB, delete most, then grow one record beyond the
	// contiguous free window — only compaction makes room.
	slots := make([]uint16, 0)
	rec := make([]byte, 1000)
	for {
		s, err := p.Insert(rec)
		if errors.Is(err, ErrPageFull) {
			break
		}
		slots = append(slots, s)
	}
	for _, s := range slots[1:] {
		if err := p.Delete(s); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("B"), 4000)
	if err := p.Update(slots[0], big); err != nil {
		t.Fatalf("update after compaction should fit: %v", err)
	}
	if got, _ := p.Get(slots[0]); !bytes.Equal(got, big) {
		t.Fatal("record corrupted by compaction")
	}
}

func TestPageUpdateTooBigReturnsPageFull(t *testing.T) {
	var p Page
	p.Init()
	slot, _ := p.Insert([]byte("small"))
	if err := p.Update(slot, make([]byte, PageSize)); err == nil {
		t.Fatal("expected failure")
	}
	// Fill the page, then try to grow.
	for {
		if _, err := p.Insert(make([]byte, 500)); err != nil {
			break
		}
	}
	if err := p.Update(slot, make([]byte, 7000)); !errors.Is(err, ErrPageFull) {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	if got, _ := p.Get(slot); !bytes.Equal(got, []byte("small")) {
		t.Fatal("failed update must leave record intact")
	}
}

// fullPageWithDeadSpace fills a page with 1000-byte records and deletes
// slots 1 and 2. Its free window is then 152 bytes and the live records
// other than slot 0 hold 5000 bytes, so slot 0 can grow to
// PageSize-header-directory-5000 = 3152 bytes in place, but only by
// compacting and only once its own 1000-byte image is left out.
func fullPageWithDeadSpace(t testing.TB) Page {
	t.Helper()
	var p Page
	p.Init()
	for {
		if _, err := p.Insert(bytes.Repeat([]byte{'a' + byte(p.NumSlots())}, 1000)); errors.Is(err, ErrPageFull) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if p.NumSlots() != 8 {
		t.Fatalf("filled %d slots, want 8", p.NumSlots())
	}
	for _, s := range []uint16{1, 2} {
		if err := p.Delete(s); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// pageLiveBytes sums the live records through the public API.
func pageLiveBytes(p *Page) int {
	live := 0
	p.LiveRecords(func(_ uint16, rec []byte) bool {
		live += len(rec)
		return true
	})
	return live
}

func TestPageCompactingUpdateAllocatesNothing(t *testing.T) {
	tmpl := fullPageWithDeadSpace(t)
	big := bytes.Repeat([]byte("G"), 2500)
	if window := int(tmpl.freeUpper()) - int(tmpl.freeLower()); window >= len(big) {
		t.Fatalf("free window %d already fits %d bytes: the update would not compact", window, len(big))
	}
	var p Page
	var err error
	allocs := testing.AllocsPerRun(100, func() {
		p = tmpl
		err = p.Update(0, big)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(0); !bytes.Equal(got, big) {
		t.Fatal("compacting update stored the wrong image")
	}
	if allocs != 0 {
		t.Fatalf("compacting update allocated %v times, want 0", allocs)
	}
}

func TestPageUpdateThatCannotFitLeavesPageUntouched(t *testing.T) {
	p := fullPageWithDeadSpace(t)
	before := p
	if err := p.Update(0, make([]byte, 3153)); !errors.Is(err, ErrPageFull) {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
	if p != before {
		t.Fatal("an update that cannot fit changed the page image")
	}
	// One byte less fits, and every other record survives the compaction.
	want := map[uint16][]byte{}
	p.LiveRecords(func(slot uint16, rec []byte) bool {
		want[slot] = append([]byte(nil), rec...)
		return true
	})
	want[0] = bytes.Repeat([]byte("F"), 3152)
	if err := p.Update(0, want[0]); err != nil {
		t.Fatalf("3152-byte update: %v", err)
	}
	for slot, rec := range want {
		if got, _ := p.Get(slot); !bytes.Equal(got, rec) {
			t.Fatalf("slot %d changed by the compacting update", slot)
		}
	}
	if p.FreeSpace() != 0 {
		t.Fatalf("FreeSpace = %d after filling the page exactly, want 0", p.FreeSpace())
	}
}

func TestPageCompactingUpdateDropsOldImage(t *testing.T) {
	p := fullPageWithDeadSpace(t)
	// 2000 bytes would fit even beside the old 1000-byte image; the
	// compaction must still drop that image.
	if err := p.Update(0, bytes.Repeat([]byte("G"), 2000)); err != nil {
		t.Fatal(err)
	}
	want := PageSize - pageHeaderSize - p.NumSlots()*slotSize - pageLiveBytes(&p) - slotSize
	if got := p.FreeSpace(); got != want {
		t.Fatalf("FreeSpace = %d, want %d: the replaced image survived as dead space", got, want)
	}
}

func TestPageLiveRecordsOrderAndEarlyStop(t *testing.T) {
	var p Page
	p.Init()
	recs := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	for _, r := range recs {
		if _, err := p.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	p.LiveRecords(func(slot uint16, rec []byte) bool {
		seen = append(seen, string(rec))
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Fatalf("seen = %v", seen)
	}
}

// TestQuickPageModelCheck runs random insert/delete/update sequences
// against a map-based model and checks full equivalence.
func TestQuickPageModelCheck(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var p Page
		p.Init()
		model := map[uint16][]byte{}
		for step := 0; step < 200; step++ {
			switch r.Intn(3) {
			case 0: // insert
				rec := randBytes(r, 1+r.Intn(300))
				slot, err := p.Insert(rec)
				if errors.Is(err, ErrPageFull) {
					continue
				}
				if err != nil {
					return false
				}
				if _, exists := model[slot]; exists {
					return false // reused a live slot
				}
				model[slot] = rec
			case 1: // delete a random live slot
				slot, ok := pickSlot(r, model)
				if !ok {
					continue
				}
				if err := p.Delete(slot); err != nil {
					return false
				}
				delete(model, slot)
			case 2: // update a random live slot
				slot, ok := pickSlot(r, model)
				if !ok {
					continue
				}
				rec := randBytes(r, 1+r.Intn(300))
				err := p.Update(slot, rec)
				if errors.Is(err, ErrPageFull) {
					continue // model unchanged; page must be unchanged too
				}
				if err != nil {
					return false
				}
				model[slot] = rec
			}
		}
		// Model equivalence.
		live := map[uint16][]byte{}
		p.LiveRecords(func(slot uint16, rec []byte) bool {
			live[slot] = append([]byte(nil), rec...)
			return true
		})
		if len(live) != len(model) {
			return false
		}
		for slot, want := range model {
			if !bytes.Equal(live[slot], want) {
				return false
			}
		}
		// Structural invariant: free bounds are sane.
		return p.freeLower() <= p.freeUpper() && int(p.freeUpper()) <= PageSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func pickSlot(r *rand.Rand, m map[uint16][]byte) (uint16, bool) {
	if len(m) == 0 {
		return 0, false
	}
	k := r.Intn(len(m))
	for slot := range m {
		if k == 0 {
			return slot, true
		}
		k--
	}
	return 0, false
}
