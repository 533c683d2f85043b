package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openTestHeap(t *testing.T, pool int) *HeapFile {
	t.Helper()
	h, err := OpenHeapFile(filepath.Join(t.TempDir(), "t.heap"), pool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func TestHeapInsertGetDelete(t *testing.T) {
	h := openTestHeap(t, 8)
	rid, err := h.Insert([]byte("record-1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || !bytes.Equal(got, []byte("record-1")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if n := h.NumRecords(); n != 1 {
		t.Fatalf("NumRecords = %d", n)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("Get after delete: %v", err)
	}
	if n := h.NumRecords(); n != 0 {
		t.Fatalf("NumRecords after delete = %d", n)
	}
}

func TestHeapSpillsAcrossPagesAndScans(t *testing.T) {
	h := openTestHeap(t, 4)
	const n = 500
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte("x"), 80)))
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if h.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.NumPages())
	}
	seen := 0
	err := h.Scan(func(rid RID, rec []byte) (bool, error) {
		seen++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scan saw %d records, want %d", seen, n)
	}
	// Random access across pool-evicted pages.
	for _, i := range []int{0, 123, 499} {
		got, err := h.Get(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("record-%04d-", i)
		if !bytes.HasPrefix(got, []byte(want)) {
			t.Fatalf("record %d = %q", i, got[:20])
		}
	}
}

func TestHeapUpdateInPlaceAndRelocate(t *testing.T) {
	h := openTestHeap(t, 4)
	rid, _ := h.Insert([]byte("short"))
	// Fill rid's page so a grown update must relocate.
	for i := 0; i < 100; i++ {
		if _, err := h.Insert(bytes.Repeat([]byte("f"), 1000)); err != nil {
			t.Fatal(err)
		}
	}
	nr, err := h.Update(rid, []byte("short2"))
	if err != nil {
		t.Fatal(err)
	}
	if nr != rid {
		t.Fatalf("small update should stay in place: %v -> %v", rid, nr)
	}
	big := bytes.Repeat([]byte("B"), 7000)
	nr, err = h.Update(rid, big)
	if err != nil {
		t.Fatal(err)
	}
	if nr == rid {
		t.Fatal("big update should relocate")
	}
	got, err := h.Get(nr)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("relocated record wrong: %v", err)
	}
	if _, err := h.Get(rid); !errors.Is(err, ErrNoRecord) {
		t.Fatal("old RID should be dead after relocation")
	}
	if n := h.NumRecords(); n != 101 {
		t.Fatalf("NumRecords = %d, want 101", n)
	}
}

func TestHeapPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.heap")
	h, err := OpenHeapFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 300; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("persist-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Delete(rids[7]); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenHeapFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if n := h2.NumRecords(); n != 299 {
		t.Fatalf("reopened NumRecords = %d, want 299", n)
	}
	got, err := h2.Get(rids[5])
	if err != nil || !bytes.Equal(got, []byte("persist-5")) {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
	if _, err := h2.Get(rids[7]); !errors.Is(err, ErrNoRecord) {
		t.Fatal("deleted record resurrected after reopen")
	}
	// Free-space hints must be usable: inserting should not corrupt.
	if _, err := h2.Insert([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
}

func TestHeapDirectLoad(t *testing.T) {
	h := openTestHeap(t, 4)
	// Seed some buffered inserts first so DirectLoad appends after them.
	pre, err := h.Insert([]byte("pre-existing"))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, 1000)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("bulk-%04d-%s", i, bytes.Repeat([]byte("y"), 60)))
	}
	rids, err := h.DirectLoad(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rids) != len(recs) {
		t.Fatalf("got %d rids", len(rids))
	}
	for i := 0; i < len(recs); i += 97 {
		got, err := h.Get(rids[i])
		if err != nil || !bytes.Equal(got, recs[i]) {
			t.Fatalf("bulk record %d: %v", i, err)
		}
	}
	if got, err := h.Get(pre); err != nil || !bytes.Equal(got, []byte("pre-existing")) {
		t.Fatalf("pre-existing record damaged: %v", err)
	}
	if n := h.NumRecords(); n != 1001 {
		t.Fatalf("NumRecords = %d", n)
	}
	// Scan must see everything.
	count := 0
	if err := h.Scan(func(RID, []byte) (bool, error) { count++; return true, nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1001 {
		t.Fatalf("scan count = %d", count)
	}
	// Empty load is a no-op.
	if rids, err := h.DirectLoad(nil); err != nil || rids != nil {
		t.Fatalf("empty DirectLoad = %v, %v", rids, err)
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	h := openTestHeap(t, 2) // tiny pool forces eviction
	const n = 400
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("evict-%03d-%s", i, bytes.Repeat([]byte("z"), 100))))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	st := h.Pool().Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions with a 2-frame pool")
	}
	// Everything must still be readable (i.e. dirty pages hit disk).
	for i := 0; i < n; i += 41 {
		got, err := h.Get(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("evict-%03d-", i)
		if !bytes.HasPrefix(got, []byte(want)) {
			t.Fatalf("record %d corrupted: %q", i, got[:12])
		}
	}
}

func TestBufferPoolUnpinPanics(t *testing.T) {
	h := openTestHeap(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unpin of unfetched page")
		}
	}()
	h.Pool().Unpin(PageID(999), false)
}

func TestDiskManagerRejectsOutOfRange(t *testing.T) {
	d, err := OpenDiskManager(filepath.Join(t.TempDir(), "d.heap"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var p Page
	if err := d.ReadPage(0, &p); err == nil {
		t.Error("read of unallocated page must fail")
	}
	if err := d.WritePage(0, &p); err == nil {
		t.Error("write of unallocated page must fail")
	}
	id, err := d.Allocate()
	if err != nil || id != 0 {
		t.Fatalf("Allocate = %d, %v", id, err)
	}
	if d.NumPages() != 1 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
}

// TestQuickHeapModelCheck: random operation sequences against a model.
func TestQuickHeapModelCheck(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		h, err := OpenHeapFile(filepath.Join(dir, "q.heap"), 3)
		if err != nil {
			return false
		}
		defer h.Close()
		model := map[RID][]byte{}
		for step := 0; step < 150; step++ {
			switch r.Intn(4) {
			case 0, 1: // insert biased so the heap grows
				rec := randBytes(r, 1+r.Intn(500))
				rid, err := h.Insert(rec)
				if err != nil {
					return false
				}
				if _, dup := model[rid]; dup {
					return false
				}
				model[rid] = rec
			case 2:
				rid, ok := pickRID(r, model)
				if !ok {
					continue
				}
				if err := h.Delete(rid); err != nil {
					return false
				}
				delete(model, rid)
			case 3:
				rid, ok := pickRID(r, model)
				if !ok {
					continue
				}
				rec := randBytes(r, 1+r.Intn(500))
				nr, err := h.Update(rid, rec)
				if err != nil {
					return false
				}
				delete(model, rid)
				model[nr] = rec
			}
		}
		// Verify via scan.
		got := map[RID][]byte{}
		err = h.Scan(func(rid RID, rec []byte) (bool, error) {
			got[rid] = append([]byte(nil), rec...)
			return true, nil
		})
		if err != nil || len(got) != len(model) {
			return false
		}
		for rid, want := range model {
			if !bytes.Equal(got[rid], want) {
				return false
			}
		}
		return h.NumRecords() == int64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func pickRID(r *rand.Rand, m map[RID][]byte) (RID, bool) {
	if len(m) == 0 {
		return RID{}, false
	}
	k := r.Intn(len(m))
	for rid := range m {
		if k == 0 {
			return rid, true
		}
		k--
	}
	return RID{}, false
}

// fullHeapPage fills page 0 of a fresh heap with eight 1000-byte records
// (a 152-byte free window is left) and returns their RIDs and images.
func fullHeapPage(t *testing.T) (*HeapFile, []RID, [][]byte) {
	t.Helper()
	h := openTestHeap(t, 8)
	var rids []RID
	var recs [][]byte
	for i := 0; i < 8; i++ {
		rec := bytes.Repeat([]byte{'a' + byte(i)}, 1000)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != 0 {
			t.Fatalf("record %d landed on page %d, want one full page", i, rid.Page)
		}
		rids, recs = append(rids, rid), append(recs, rec)
	}
	return h, rids, recs
}

// TestHeapKeepsPinnedBytesForRollback deletes a record on behalf of one
// transaction and then lets another grow a record and insert on the same
// page. Neither may take the bytes the first transaction's rollback
// needs: its PlaceAt must still put the deleted record back at its slot.
func TestHeapKeepsPinnedBytesForRollback(t *testing.T) {
	t.Run("growing update relocates", func(t *testing.T) {
		h, rids, recs := fullHeapPage(t)
		if err := h.DeletePin(rids[1], 1); err != nil {
			t.Fatal(err)
		}
		// 1900 bytes fit beside the other six records (2152 free after a
		// compaction), but only by taking the deleted record's bytes.
		rid, err := h.UpdatePin(rids[0], bytes.Repeat([]byte("G"), 1900), 2)
		if err != nil {
			t.Fatal(err)
		}
		if rid == rids[0] {
			t.Fatal("the growing update stayed on the page and took the pinned record's bytes")
		}
		if err := h.PlaceAt(rids[1], recs[1]); err != nil {
			t.Fatalf("rollback of the delete: %v", err)
		}
	})
	t.Run("insert goes elsewhere", func(t *testing.T) {
		h, rids, recs := fullHeapPage(t)
		if err := h.DeletePin(rids[1], 1); err != nil {
			t.Fatal(err)
		}
		// 1100 bytes stay on the page and leave 1052 reclaimable: enough
		// for the deleted record and a small insert, not for a 500-byte
		// insert as well.
		rid, err := h.UpdatePin(rids[0], bytes.Repeat([]byte("G"), 1100), 2)
		if err != nil {
			t.Fatal(err)
		}
		if rid != rids[0] {
			t.Fatalf("update relocated to %v; it fits beside the pinned record's bytes", rid)
		}
		// A small insert fits beside the reservation and refreshes the
		// page's free-space hint, so the next insert tries this page.
		if ins, err := h.InsertOwned([]byte("small"), 2); err != nil || ins.Page != rids[1].Page {
			t.Fatalf("small insert went to %v, %v; want page %d", ins, err, rids[1].Page)
		}
		ins, err := h.InsertOwned(bytes.Repeat([]byte("I"), 500), 2)
		if err != nil {
			t.Fatal(err)
		}
		if ins.Page == rids[1].Page {
			t.Fatalf("insert landed at %v, in the pinned record's bytes", ins)
		}
		if err := h.PlaceAt(rids[1], recs[1]); err != nil {
			t.Fatalf("rollback of the delete: %v", err)
		}
	})
	t.Run("own pins and lifted pins reserve nothing", func(t *testing.T) {
		grown := bytes.Repeat([]byte("G"), 1900)
		for _, lift := range []bool{false, true} {
			h, rids, _ := fullHeapPage(t)
			if err := h.DeletePin(rids[1], 1); err != nil {
				t.Fatal(err)
			}
			// The owner's own rollback undoes its growth before it
			// restores the delete; a lifted pin restores nothing.
			owner := uint64(1)
			if lift {
				h.UnpinSlot(rids[1])
				owner = 2
			}
			if rid, err := h.UpdatePin(rids[0], grown, owner); err != nil || rid != rids[0] {
				t.Fatalf("lifted=%v: the update went to %v, %v; want in place", lift, rid, err)
			}
		}
	})
}
