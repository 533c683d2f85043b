package storage

import (
	"bytes"
	"maps"
	"path/filepath"
	"testing"
)

func TestPagePlaceAtGrowsDirectory(t *testing.T) {
	var p Page
	p.Init()
	if err := p.PlaceAt(3, []byte("at-three")); err != nil {
		t.Fatal(err)
	}
	if got, err := p.Get(3); err != nil || !bytes.Equal(got, []byte("at-three")) {
		t.Fatalf("Get(3) = %q, %v", got, err)
	}
	// Slots 0-2 are tombstones.
	for s := uint16(0); s < 3; s++ {
		if _, err := p.Get(s); err == nil {
			t.Fatalf("slot %d should be dead", s)
		}
	}
	// Idempotent re-place.
	if err := p.PlaceAt(3, []byte("at-three")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(3); !bytes.Equal(got, []byte("at-three")) {
		t.Fatal("re-place corrupted record")
	}
	// Resurrect a tombstone.
	if err := p.PlaceAt(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(1); !bytes.Equal(got, []byte("one")) {
		t.Fatal("tombstone resurrection failed")
	}
}

func TestHeapPlaceAtAllocatesMissingPages(t *testing.T) {
	h, err := OpenHeapFile(filepath.Join(t.TempDir(), "r.heap"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rid := RID{Page: 2, Slot: 5}
	if err := h.PlaceAt(rid, []byte("redone")); err != nil {
		t.Fatal(err)
	}
	if h.NumPages() != 3 {
		t.Fatalf("NumPages = %d, want 3", h.NumPages())
	}
	got, err := h.Get(rid)
	if err != nil || !bytes.Equal(got, []byte("redone")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if h.NumRecords() != 1 {
		t.Fatalf("NumRecords = %d", h.NumRecords())
	}
	// Idempotent.
	if err := h.PlaceAt(rid, []byte("redone")); err != nil {
		t.Fatal(err)
	}
	if h.NumRecords() != 1 {
		t.Fatalf("NumRecords after replay = %d", h.NumRecords())
	}
	// The grown pages carry free-space hints: an insert finds room on the
	// newest of them without allocating a fourth.
	ins, err := h.Insert([]byte("after-redo"))
	if err != nil {
		t.Fatal(err)
	}
	if ins.Page != 2 || h.NumPages() != 3 {
		t.Fatalf("insert after redo went to %v with %d pages, want page 2 of 3", ins, h.NumPages())
	}
}

func TestHeapDeleteIfLiveIdempotent(t *testing.T) {
	h, err := OpenHeapFile(filepath.Join(t.TempDir(), "d.heap"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rid, _ := h.Insert([]byte("x"))
	if err := h.DeleteIfLive(rid); err != nil {
		t.Fatal(err)
	}
	if err := h.DeleteIfLive(rid); err != nil {
		t.Fatal(err) // second time is a no-op
	}
	if err := h.DeleteIfLive(RID{Page: 99, Slot: 0}); err != nil {
		t.Fatal(err) // unallocated page is a no-op
	}
	if h.NumRecords() != 0 {
		t.Fatalf("NumRecords = %d", h.NumRecords())
	}
}

// TestHeapPlaceAtRedoesUpdateThatFitsWithoutOldImage replays, as crash
// recovery does, a history whose last update grows a record on a full
// page: it fits in place only because compaction leaves the replaced
// image out. The redo must place it at the same RID, and the recovered
// heap must equal the original.
func TestHeapPlaceAtRedoesUpdateThatFitsWithoutOldImage(t *testing.T) {
	dir := t.TempDir()
	orig, err := OpenHeapFile(filepath.Join(dir, "orig.heap"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	type step struct {
		rid RID
		rec []byte // nil: delete
	}
	var history []step
	for i := 0; i < 8; i++ {
		rec := bytes.Repeat([]byte{'a' + byte(i)}, 1000)
		rid, err := orig.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != 0 {
			t.Fatalf("record %d landed on page %d, want one full page", i, rid.Page)
		}
		history = append(history, step{rid, rec})
	}
	for _, s := range history[1:3] {
		if err := orig.Delete(s.rid); err != nil {
			t.Fatal(err)
		}
		history = append(history, step{s.rid, nil})
	}
	grown := bytes.Repeat([]byte("G"), 3000)
	rid, err := orig.Update(history[0].rid, grown)
	if err != nil {
		t.Fatal(err)
	}
	if rid != history[0].rid {
		t.Fatalf("update relocated %v to %v; it fits once the old image is left out", history[0].rid, rid)
	}
	history = append(history, step{rid, grown})

	redo, err := OpenHeapFile(filepath.Join(dir, "redo.heap"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer redo.Close()
	for _, s := range history {
		if s.rec == nil {
			err = redo.DeleteIfLive(s.rid)
		} else {
			err = redo.PlaceAt(s.rid, s.rec)
		}
		if err != nil {
			t.Fatalf("redo %v: %v", s.rid, err)
		}
	}
	heapImage := func(h *HeapFile) map[RID]string {
		m := map[RID]string{}
		if err := h.Scan(func(rid RID, rec []byte) (bool, error) {
			m[rid] = string(rec)
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if want, got := heapImage(orig), heapImage(redo); !maps.Equal(got, want) || len(got) != 6 {
		t.Fatalf("recovered heap has %d records, original %d, or they differ", len(got), len(want))
	}
	if redo.NumRecords() != orig.NumRecords() {
		t.Fatalf("NumRecords = %d after redo, want %d", redo.NumRecords(), orig.NumRecords())
	}
}
