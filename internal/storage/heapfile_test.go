package storage

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
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

// TestDirectLoadFillsPagesAsInsertDoes checks that the loader's page
// fill, which appends slots without looking for a tombstone to reuse,
// assigns the RIDs and writes the bytes that filling fresh pages with
// Page.Insert does.
func TestDirectLoadFillsPagesAsInsertDoes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	recs := make([][]byte, 3000)
	for i := range recs {
		n := 1 + r.Intn(40)
		if i%500 == 7 {
			n = MaxRecord - r.Intn(3)
		}
		recs[i] = bytes.Repeat([]byte{byte(i)}, n)
	}
	var want []*Page
	var wantRIDs []RID
	for _, rec := range recs {
		if len(want) > 0 {
			if slot, err := want[len(want)-1].Insert(rec); err == nil {
				wantRIDs = append(wantRIDs, RID{Page: PageID(len(want) - 1), Slot: slot})
				continue
			}
		}
		p := &Page{}
		p.Init()
		slot, err := p.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
		wantRIDs = append(wantRIDs, RID{Page: PageID(len(want) - 1), Slot: slot})
	}

	h := openTestHeap(t, 4)
	rids, err := h.DirectLoad(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rids, wantRIDs) {
		t.Fatal("DirectLoad assigned other RIDs than an Insert fill")
	}
	if h.NumPages() != PageID(len(want)) {
		t.Fatalf("DirectLoad wrote %d pages, want %d", h.NumPages(), len(want))
	}
	var got Page
	for id := range want {
		if err := h.Disk().ReadPage(PageID(id), &got); err != nil {
			t.Fatal(err)
		}
		if got != *want[id] {
			t.Fatalf("page %d differs from an Insert fill", id)
		}
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
		if err := deletePin(h, rids[1], 1); err != nil {
			t.Fatal(err)
		}
		// 1900 bytes fit beside the other six records (2152 free after a
		// compaction), but only by taking the deleted record's bytes.
		rid, err := updatePin(h, rids[0], bytes.Repeat([]byte("G"), 1900), 2)
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
		if err := deletePin(h, rids[1], 1); err != nil {
			t.Fatal(err)
		}
		// 1100 bytes stay on the page and leave 1052 reclaimable: enough
		// for the deleted record and a small insert, not for a 500-byte
		// insert as well.
		rid, err := updatePin(h, rids[0], bytes.Repeat([]byte("G"), 1100), 2)
		if err != nil {
			t.Fatal(err)
		}
		if rid != rids[0] {
			t.Fatalf("update relocated to %v; it fits beside the pinned record's bytes", rid)
		}
		// A small insert fits beside the reservation and refreshes the
		// page's free-space hint, so the next insert tries this page.
		if ins, err := insertOwned(h, []byte("small"), 2); err != nil || ins.Page != rids[1].Page {
			t.Fatalf("small insert went to %v, %v; want page %d", ins, err, rids[1].Page)
		}
		ins, err := insertOwned(h, bytes.Repeat([]byte("I"), 500), 2)
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
			if err := deletePin(h, rids[1], 1); err != nil {
				t.Fatal(err)
			}
			// The owner's own rollback undoes its growth before it
			// restores the delete; a lifted pin restores nothing.
			owner := uint64(1)
			if lift {
				h.UnpinSlot(rids[1])
				owner = 2
			}
			if rid, err := updatePin(h, rids[0], grown, owner); err != nil || rid != rids[0] {
				t.Fatalf("lifted=%v: the update went to %v, %v; want in place", lift, rid, err)
			}
		}
	})
}

// BenchmarkHeapInsertIntoFullFile measures the free-space search. Every
// page of the file is full except page 0, so each insert passes over
// every other page's hint, newest first, before it lands there. The
// record is deleted again, and page 0 is compacted whenever the dead
// records have used up its free window, so the next insert finds room
// in the same place.
func BenchmarkHeapInsertIntoFullFile(b *testing.B) {
	rec := bytes.Repeat([]byte("r"), 1000)
	var probe Page
	probe.Init()
	perPage := 0
	for {
		if _, err := probe.Insert(rec); err != nil {
			break
		}
		perPage++
	}
	for _, pages := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			h, err := OpenHeapFile(filepath.Join(b.TempDir(), "b.heap"), 64)
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			// Page 0 holds one record; pages 1.. are packed full.
			if _, err := h.DirectLoad([][]byte{rec}); err != nil {
				b.Fatal(err)
			}
			recs := make([][]byte, (pages-1)*perPage)
			for i := range recs {
				recs[i] = rec
			}
			if _, err := h.DirectLoad(recs); err != nil {
				b.Fatal(err)
			}
			if h.NumPages() != PageID(pages) {
				b.Fatalf("loaded %d pages, want %d", h.NumPages(), pages)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rid, err := h.Insert(rec)
				if err != nil {
					b.Fatal(err)
				}
				if rid.Page != 0 {
					b.Fatalf("insert went to %v, want page 0", rid)
				}
				if err := h.Delete(rid); err != nil {
					b.Fatal(err)
				}
				if h.freeHint[0] < len(rec)+slotSize {
					pg, err := h.pool.Fetch(0)
					if err != nil {
						b.Fatal(err)
					}
					pg.Compact()
					h.freeHint[0] = pg.FreeSpace()
					h.pool.Unpin(0, true)
				}
			}
		})
	}
}

// TestHeapKeepsShrunkBytesForRollback shrinks a record in place on
// behalf of one transaction and then lets another grow a record on the
// same page. The growth may not take the bytes the shrink freed: the
// first transaction's rollback grows the record back at its slot.
func TestHeapKeepsShrunkBytesForRollback(t *testing.T) {
	h, rids, recs := fullHeapPage(t)
	if rid, err := updatePin(h, rids[1], []byte("short"), 1); err != nil || rid != rids[1] {
		t.Fatalf("shrink went to %v, %v; want in place", rid, err)
	}
	// 1900 bytes fit beside the other six records and the shrunk one,
	// but only by taking the bytes the shrink freed.
	rid, err := updatePin(h, rids[0], bytes.Repeat([]byte("G"), 1900), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rid == rids[0] {
		t.Fatal("the growing update stayed on the page and took the shrunk record's bytes")
	}
	if err := h.PlaceAt(rids[1], recs[1]); err != nil {
		t.Fatalf("rollback of the shrink: %v", err)
	}
}

// deletePin deletes rid for owner as a batch of one, pinning its slot.
func deletePin(h *HeapFile, rid RID, owner uint64) error {
	return h.DeleteBatch([]BatchRow{{RID: rid}}, owner, nil)
}

// updatePin updates rid for owner as a batch of one and returns where
// the record lives afterwards.
func updatePin(h *HeapFile, rid RID, rec []byte, owner uint64) (RID, error) {
	rows := []BatchRow{{RID: rid, After: rec}}
	err := h.UpdateBatch(rows, owner, nil)
	return rows[0].NewRID, err
}

// TestBatchLogsEachPageBeforeUnpin: an update batch over records on
// several pages visits each page once, and the log callback for a
// page's rows runs while that page is still pinned, in write order.
func TestBatchLogsEachPageBeforeUnpin(t *testing.T) {
	h := openTestHeap(t, 8)
	var rows []BatchRow
	for i := 0; i < 40; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{'a' + byte(i%26)}, 700))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, BatchRow{RID: rid, After: bytes.Repeat([]byte("u"), 600)})
	}
	pages := int(h.NumPages())
	if pages < 3 {
		t.Fatalf("records fill %d pages; want several", pages)
	}
	pinned := func(id PageID) int {
		s := h.pool.shard(id)
		s.mu.Lock()
		defer s.mu.Unlock()
		if fr := s.frames[id]; fr != nil {
			return fr.pins
		}
		return 0
	}
	st := h.pool.Stats()
	fetched := st.Hits + st.Misses
	var logged []int
	err := h.UpdateBatch(rows, 7, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if pinned(rows[i].RID.Page) == 0 {
				t.Fatalf("row %d logged after its page %d was unpinned", i, rows[i].RID.Page)
			}
			logged = append(logged, i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st = h.pool.Stats(); int(st.Hits+st.Misses-fetched) != pages {
		t.Fatalf("%d page fetches for a batch over %d pages", st.Hits+st.Misses-fetched, pages)
	}
	if len(logged) != len(rows) {
		t.Fatalf("logged %d of %d rows", len(logged), len(rows))
	}
	for i, r := range rows {
		if logged[i] != i || r.NewRID != r.RID || !r.Pinned {
			t.Fatalf("row %d: logged as %d, moved to %v, pinned %v", i, logged[i], r.NewRID, r.Pinned)
		}
	}
}

// TestBatchLogsOutsideHeapLock: every batch writer runs its log
// callback without h.mu, so a statement's log appends never hold up
// writers of other pages of the file.
func TestBatchLogsOutsideHeapLock(t *testing.T) {
	h := openTestHeap(t, 8)
	calls := 0
	logged := func(lo, hi int) error {
		if !h.mu.TryLock() {
			t.Fatalf("rows [%d, %d) logged under h.mu", lo, hi)
		}
		h.mu.Unlock()
		calls++
		return nil
	}
	ins := make([]BatchRow, 40)
	for i := range ins {
		ins[i].After = bytes.Repeat([]byte{'a' + byte(i%26)}, 700)
	}
	if err := h.InsertBatch(ins, 7, logged); err != nil {
		t.Fatal(err)
	}
	// Grow every record past what its page can hold beside the others,
	// so most of them relocate.
	upd := make([]BatchRow, len(ins))
	for i, r := range ins {
		upd[i] = BatchRow{RID: r.RID, After: bytes.Repeat([]byte("u"), 3000)}
	}
	if err := h.UpdateBatch(upd, 7, logged); err != nil {
		t.Fatal(err)
	}
	moved := 0
	del := make([]BatchRow, len(upd))
	for i, r := range upd {
		if r.NewRID != r.RID {
			moved++
		}
		del[i].RID = r.NewRID
	}
	slices.SortStableFunc(del, func(a, b BatchRow) int { return cmp.Compare(a.RID.Page, b.RID.Page) })
	if err := h.DeleteBatch(del, 7, logged); err != nil {
		t.Fatal(err)
	}
	if moved == 0 || calls < 3 || h.NumRecords() != 0 {
		t.Fatalf("%d relocations, %d log calls, %d records left", moved, calls, h.NumRecords())
	}
}

// insertOwned inserts rec for owner as a batch of one.
func insertOwned(h *HeapFile, rec []byte, owner uint64) (RID, error) {
	rows := []BatchRow{{After: rec}}
	err := h.InsertBatch(rows, owner, nil)
	return rows[0].RID, err
}

// TestConcurrentOwnersRollBackBesideEachOther: owners whose records
// share pages shrink, grow and delete them in batches at the same time,
// then roll their writes back as transaction undo does. Every rollback
// must fit — the pins of each owner keep its bytes from the others'
// growth, relocations and inserts — and leave every record as it was.
func TestConcurrentOwnersRollBackBesideEachOther(t *testing.T) {
	h := openTestHeap(t, 16)
	const owners, perOwner = 4, 24
	type rec struct {
		rid RID
		img []byte
	}
	recs := make([][]rec, owners)
	for i := 0; i < perOwner; i++ {
		for o := range recs {
			img := bytes.Repeat([]byte{byte('a' + o)}, 200+(i*37+o*11)%200)
			rid, err := h.Insert(img)
			if err != nil {
				t.Fatal(err)
			}
			recs[o] = append(recs[o], rec{rid, img})
		}
	}
	errs := make(chan error, owners)
	for o := range recs {
		go func(o int, mine []rec) {
			rng := rand.New(rand.NewSource(int64(o)))
			owner := uint64(o + 1)
			for round := 0; round < 30; round++ {
				var shrink, grow, del []BatchRow
				for _, r := range mine {
					switch rng.Intn(4) {
					case 0:
						shrink = append(shrink, BatchRow{RID: r.rid, Before: r.img, After: []byte("s")})
					case 1:
						grow = append(grow, BatchRow{RID: r.rid, Before: r.img, After: bytes.Repeat([]byte("G"), 700)})
					case 2:
						del = append(del, BatchRow{RID: r.rid, Before: r.img})
					}
				}
				// Written in this order, undone in the reverse one.
				if err := h.UpdateBatch(shrink, owner, nil); err != nil {
					errs <- fmt.Errorf("owner %d shrink: %w", o, err)
					return
				}
				if err := h.UpdateBatch(grow, owner, nil); err != nil {
					errs <- fmt.Errorf("owner %d grow: %w", o, err)
					return
				}
				if err := h.DeleteBatch(del, owner, nil); err != nil {
					errs <- fmt.Errorf("owner %d delete: %w", o, err)
					return
				}
				for _, r := range del {
					if err := h.PlaceAt(r.RID, r.Before); err != nil {
						errs <- fmt.Errorf("owner %d undo delete at %v: %w", o, r.RID, err)
						return
					}
				}
				// An update batch writes its records that stay on their
				// page first and relocates the others after, in order, so
				// its undo takes the relocated ones back newest first.
				for _, batch := range [][]BatchRow{grow, shrink} {
					var undo []BatchRow
					for i := len(batch) - 1; i >= 0; i-- {
						if batch[i].NewRID != batch[i].RID {
							undo = append(undo, batch[i])
						}
					}
					for _, r := range batch {
						if r.NewRID == r.RID {
							undo = append(undo, r)
						}
					}
					for _, r := range undo {
						if r.NewRID != r.RID {
							if err := h.DeleteIfLive(r.NewRID); err != nil {
								errs <- err
								return
							}
						}
						if err := h.PlaceAt(r.RID, r.Before); err != nil {
							errs <- fmt.Errorf("owner %d undo update at %v: %w", o, r.RID, err)
							return
						}
					}
				}
				for _, batch := range [][]BatchRow{shrink, grow, del} {
					for _, r := range batch {
						if r.Pinned {
							h.UnpinSlot(r.RID)
						}
					}
				}
			}
			errs <- nil
		}(o, recs[o])
	}
	for range recs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for o, mine := range recs {
		for _, r := range mine {
			got, err := h.Get(r.rid)
			if err != nil || !bytes.Equal(got, r.img) {
				t.Fatalf("owner %d record at %v after its rollbacks: %q, %v", o, r.rid, got, err)
			}
		}
	}
	if n := h.NumRecords(); n != owners*perOwner {
		t.Fatalf("%d records after every rollback, want %d", n, owners*perOwner)
	}
}
