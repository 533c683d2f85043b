package storage

import (
	"errors"
	"fmt"
	"sync"

	"opdelta/internal/fault"
)

// RID addresses one record: a page and a slot within it.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID as page:slot.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// InvalidRID is a sentinel for "no record".
var InvalidRID = RID{Page: InvalidPageID}

// HeapFile stores variable-length records in slotted pages behind a
// buffer pool. It tracks approximate per-page free space so inserts
// don't scan the whole file. HeapFile is safe for concurrent use; record
// level isolation is the transaction layer's job.
//
// Writes come in statement batches (batch.go): each page a batch
// touches is visited once, under one latch and one pool pin, and the
// caller's log records for that page's rows are appended before the
// page is unpinned. The single-row writers are batches of one.
type HeapFile struct {
	mu   sync.Mutex
	fs   fault.FS // crash points between a batch's pages (fault.CrashPoint)
	disk *DiskManager
	pool *BufferPool
	// freeHint holds each page's last observed free bytes, indexed by
	// page id (ids are dense, 0..NumPages-1; a page past its end reads
	// as 0). It is a hint: stale entries are corrected on the next
	// insert attempt.
	freeHint []int
	nlive    int64 // live record count (maintained, verified by tests)
	// stripes serialize byte-level access to page images, striped by
	// page id, and hold the pins of their pages. The buffer pool's
	// shard locks only protect frame bookkeeping (pin counts, LRU); the
	// bytes of a fetched page are mutated outside them, so every read
	// or write of page content must hold that page's stripe. This is
	// what lets key-disjoint writers proceed in parallel: h.mu covers
	// only allocation-level state (freeHint, nlive, file growth), not
	// row traffic.
	//
	// Lock order: h.mu (if held) before a stripe; never two stripes at
	// once; pool shard locks are leaves below stripes. A batch's log
	// callback runs under a stripe, so the log writer's lock nests
	// inside one, but never under h.mu.
	stripes [latchStripes]stripe
}

// stripe is one page-latch stripe and the slot pins of its pages.
type stripe struct {
	sync.Mutex
	// pins maps slots an in-flight transaction deleted, relocated or
	// shrank in place to that owner and the largest size the record had
	// in it. Other owners' inserts must not reuse a pinned tombstone:
	// the owner's rollback restores the record at exactly that RID, and
	// a concurrent (key-disjoint) insert occupying it would be
	// clobbered. The owner itself may reuse its own pins — undo runs in
	// reverse order, so the reusing insert is undone before the delete's
	// restore. Directed placements (PlaceAt) ignore pins — they ARE the
	// owner's restore. The restore also needs the record's bytes back,
	// so other owners' inserts and growing updates must leave a page
	// able to free, by compacting, what every pinned record would grow
	// by (Page.InsertAvoid, Page.UpdateReserving). Pins live under the
	// stripe of their page so an updater holding it reads them without
	// h.mu.
	pins map[PageID]map[uint16]slotPin
}

// latchStripes is the number of page-latch stripes. Collisions between
// distinct hot pages are rare at this size and only cost a little
// false sharing, never deadlock (one stripe held at a time).
const latchStripes = 64

// stripe returns the stripe guarding page id's content and pins.
func (h *HeapFile) stripe(id PageID) *stripe {
	return &h.stripes[uint32(id)%latchStripes]
}

// OpenHeapFile opens the heap file at path with a pool of poolPages
// frames. On open it scans existing pages to rebuild the free-space map
// and live count (heap files are rebuilt from WAL by recovery before
// this point, so the scan sees a consistent image).
func OpenHeapFile(path string, poolPages int) (*HeapFile, error) {
	return OpenHeapFileFS(fault.OS, path, poolPages)
}

// OpenHeapFileFS is OpenHeapFile with the file I/O routed through fsys
// (the fault-injection seam).
func OpenHeapFileFS(fsys fault.FS, path string, poolPages int) (*HeapFile, error) {
	disk, err := OpenDiskManagerFS(fsys, path)
	if err != nil {
		return nil, err
	}
	h := &HeapFile{
		fs:   fault.OrOS(fsys),
		disk: disk,
		pool: NewBufferPool(disk, poolPages),
	}
	n := disk.NumPages()
	h.freeHint = make([]int, n)
	var p Page
	for id := PageID(0); id < n; id++ {
		if err := disk.ReadPage(id, &p); err != nil {
			disk.Close()
			return nil, err
		}
		h.freeHint[id] = p.FreeSpace()
		p.LiveRecords(func(uint16, []byte) bool { h.nlive++; return true })
	}
	return h, nil
}

// Pool exposes the buffer pool for stats and flushing.
func (h *HeapFile) Pool() *BufferPool { return h.pool }

// Disk exposes the disk manager for stats and direct block loading.
func (h *HeapFile) Disk() *DiskManager { return h.disk }

// NumRecords returns the live record count.
func (h *HeapFile) NumRecords() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nlive
}

// NumPages returns the allocated page count.
func (h *HeapFile) NumPages() PageID { return h.disk.NumPages() }

// Insert stores rec and returns its RID, a batch of one with no owner.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	rows := [1]BatchRow{{After: rec}}
	err := h.InsertBatch(rows[:], 0, nil)
	return rows[0].RID, err
}

// setHint records id's free bytes, extending freeHint to cover id.
// Caller holds h.mu.
func (h *HeapFile) setHint(id PageID, free int) {
	for PageID(len(h.freeHint)) <= id {
		h.freeHint = append(h.freeHint, 0)
	}
	h.freeHint[id] = free
}

// slotPin is one pinned slot: the transaction that freed or shrank it
// and the largest size of the record its rollback puts back.
type slotPin struct {
	owner uint64
	size  int
}

// pinLocked records rid, whose record was size bytes before owner freed
// or shrank it, as pinned for owner. A slot pinned again keeps the
// largest size: rollback walks back through every earlier image. Caller
// holds rid's stripe.
func (s *stripe) pinLocked(rid RID, owner uint64, size int) {
	if s.pins == nil {
		s.pins = make(map[PageID]map[uint16]slotPin)
	}
	slots := s.pins[rid.Page]
	if slots == nil {
		slots = make(map[uint16]slotPin)
		s.pins[rid.Page] = slots
	}
	if p, ok := slots[rid.Slot]; ok && p.size > size {
		size = p.size
	}
	slots[rid.Slot] = slotPin{owner: owner, size: size}
}

// UnpinSlot lifts a pin a batch left on rid.
func (h *HeapFile) UnpinSlot(rid RID) {
	s := h.stripe(rid.Page)
	s.Lock()
	if slots := s.pins[rid.Page]; slots != nil {
		delete(slots, rid.Slot)
		if len(slots) == 0 {
			delete(s.pins, rid.Page)
		}
	}
	s.Unlock()
}

// reserveLocked returns the bytes page must keep reclaimable for owner:
// what the records other owners' rollbacks would put back there would
// grow by — a tombstoned record its whole size, a shrunk one its size
// minus its current length. An owner's own pins need no reservation
// against its own writes, because rollback undoes those writes first.
// Caller holds id's stripe.
func (s *stripe) reserveLocked(id PageID, page *Page, owner uint64) int {
	reserve := 0
	for slot, p := range s.pins[id] {
		if p.owner == owner {
			continue
		}
		cur := 0
		if slot < page.slotCount() {
			if off, length := page.slot(slot); off != 0 {
				cur = int(length)
			}
		}
		if p.size > cur {
			reserve += p.size - cur
		}
	}
	return reserve
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	l := h.stripe(rid.Page)
	l.Lock()
	defer l.Unlock()
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	rec, err := page.Get(rid.Slot)
	if err != nil {
		h.pool.Unpin(rid.Page, false)
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	h.pool.Unpin(rid.Page, false)
	return out, nil
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	rows := [1]BatchRow{{RID: rid}}
	return h.DeleteBatch(rows[:], 0, nil)
}

// Update replaces the record at rid. If the new image no longer fits in
// its page the record is relocated and the new RID returned; callers
// must treat the returned RID as authoritative.
func (h *HeapFile) Update(rid RID, rec []byte) (RID, error) {
	rows := [1]BatchRow{{RID: rid, After: rec}}
	err := h.UpdateBatch(rows[:], 0, nil)
	return rows[0].NewRID, err
}

// Scan iterates all live records in (page, slot) order, invoking fn with
// the RID and record bytes (valid only during the call). Iteration stops
// when fn returns false or on error. fn runs under the page's stripe
// latch and must not call back into the heap.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) (bool, error)) error {
	n := h.disk.NumPages()
	for id := PageID(0); id < n; id++ {
		l := h.stripe(id)
		l.Lock()
		page, err := h.pool.Fetch(id)
		if err != nil {
			l.Unlock()
			return err
		}
		var cont = true
		var ferr error
		page.LiveRecords(func(slot uint16, rec []byte) bool {
			cont, ferr = fn(RID{Page: id, Slot: slot}, rec)
			return cont && ferr == nil
		})
		h.pool.Unpin(id, false)
		l.Unlock()
		if ferr != nil {
			return ferr
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// DirectLoad packs records into fresh pages in memory and appends them
// to the file in large sequential writes, bypassing the buffer pool and
// WAL. This models the "DBMS Loader" utility that "loads ASCII data
// directly into database blocks". It returns the RIDs assigned, in input
// order.
func (h *HeapFile) DirectLoad(recs [][]byte) ([]RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(recs) == 0 {
		return nil, nil
	}
	var pages []*Page
	var slots [][]uint16
	cur := &Page{}
	cur.Init()
	curSlots := []uint16{}
	for _, rec := range recs {
		slot, err := cur.appendRecord(rec)
		if errors.Is(err, ErrPageFull) {
			pages = append(pages, cur)
			slots = append(slots, curSlots)
			cur = &Page{}
			cur.Init()
			curSlots = nil
			slot, err = cur.appendRecord(rec)
		}
		if err != nil {
			return nil, err
		}
		curSlots = append(curSlots, slot)
	}
	pages = append(pages, cur)
	slots = append(slots, curSlots)

	first, err := h.disk.AppendPages(pages)
	if err != nil {
		return nil, err
	}
	rids := make([]RID, 0, len(recs))
	for i, ss := range slots {
		id := first + PageID(i)
		h.setHint(id, pages[i].FreeSpace())
		for _, s := range ss {
			rids = append(rids, RID{Page: id, Slot: s})
		}
	}
	h.nlive += int64(len(recs))
	return rids, nil
}

// Flush writes all dirty pages and syncs the file.
func (h *HeapFile) Flush() error {
	if err := h.pool.FlushAll(); err != nil {
		return err
	}
	return h.disk.Sync()
}

// Close flushes and closes the heap file.
func (h *HeapFile) Close() error {
	if err := h.pool.FlushAll(); err != nil {
		h.disk.Close()
		return err
	}
	return h.disk.Close()
}
