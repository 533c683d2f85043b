package storage

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
type HeapFile struct {
	mu   sync.Mutex
	disk *DiskManager
	pool *BufferPool
	// freeHint holds each page's last observed free bytes, indexed by
	// page id (ids are dense, 0..NumPages-1; a page past its end reads
	// as 0). It is a hint: stale entries are corrected on the next
	// insert attempt.
	freeHint []int
	// pinned maps tombstoned slots to the owner (transaction id) that
	// freed them. Inserts by OTHER owners must not reuse a pinned slot:
	// the freeing transaction's rollback restores the record at exactly
	// that RID, and a concurrent (key-disjoint) insert occupying it
	// would be clobbered. The owner itself may reuse its own pins —
	// undo runs in reverse order, so the reusing insert is undone
	// before the delete's restore. Directed placements (PlaceAt) ignore
	// pins — they ARE the owner's restore. The restore also needs the
	// record's bytes back, so other owners' inserts and growing updates
	// must leave a page able to free every pinned record's size by
	// compacting (Page.InsertAvoid, Page.UpdateReserving). Keyed by page
	// so the per-insert check stays O(1) even when one batch transaction
	// pins thousands of slots.
	pinned map[PageID]map[uint16]slotPin
	// npinned counts the entries of pinned. A pin is only ever set under
	// h.mu and its page's stripe, so an updater holding a stripe that
	// reads zero knows no bytes of its page are reserved without h.mu.
	npinned atomic.Int64
	nlive   int64 // live record count (maintained, verified by tests)
	// latches serialize byte-level access to page images, striped by
	// page id. The buffer pool's shard locks only protect frame
	// bookkeeping (pin counts, LRU); the bytes of a fetched page are
	// mutated outside them, so every read or write of page content must
	// hold that page's stripe. This is what lets key-disjoint writers
	// proceed in parallel: h.mu covers only allocation-level state
	// (freeHint, pins, nlive, file growth), not row traffic.
	//
	// Lock order: h.mu (if held) before a stripe; never two stripes at
	// once; pool shard locks are leaves below stripes.
	latches [latchStripes]sync.Mutex
}

// latchStripes is the number of page-latch stripes. Collisions between
// distinct hot pages are rare at this size and only cost a little
// false sharing, never deadlock (one stripe held at a time).
const latchStripes = 64

// latch returns the stripe latch guarding page id's content.
func (h *HeapFile) latch(id PageID) *sync.Mutex {
	return &h.latches[uint32(id)%latchStripes]
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

// Insert stores rec and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) { return h.InsertOwned(rec, 0) }

// InsertOwned is Insert on behalf of a transaction: slots pinned by
// owner itself are eligible for reuse, slots pinned by anyone else are
// not. Owner 0 means "no transaction" and never matches a pin.
func (h *HeapFile) InsertOwned(rec []byte, owner uint64) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Try pages the hint claims can hold the record, newest first
	// (recent pages are most likely still buffered).
	need := len(rec) + slotSize
	n := min(h.disk.NumPages(), PageID(len(h.freeHint)))
	for id := n; id > 0; {
		id--
		if h.freeHint[id] < need {
			continue
		}
		rid, err := h.insertIntoLocked(id, rec, owner)
		if err == nil {
			return rid, nil
		}
		if !errors.Is(err, ErrPageFull) {
			return InvalidRID, err
		}
		// Hint was stale; fall through and keep looking.
	}
	// No page fits: allocate a new one. The page becomes visible to
	// Scan as soon as the disk grows, so even the first insert into it
	// runs under its stripe.
	id, page, err := h.pool.NewPage()
	if err != nil {
		return InvalidRID, err
	}
	l := h.latch(id)
	l.Lock()
	slot, err := page.Insert(rec)
	if err != nil {
		h.pool.Unpin(id, true)
		l.Unlock()
		return InvalidRID, err
	}
	h.setHint(id, page.FreeSpace())
	h.pool.Unpin(id, true)
	l.Unlock()
	h.nlive++
	return RID{Page: id, Slot: slot}, nil
}

// setHint records id's free bytes, extending freeHint to cover id.
// Caller holds h.mu.
func (h *HeapFile) setHint(id PageID, free int) {
	for PageID(len(h.freeHint)) <= id {
		h.freeHint = append(h.freeHint, 0)
	}
	h.freeHint[id] = free
}

// slotPin is one pinned slot: the transaction that freed it and the
// size of the record its rollback puts back.
type slotPin struct {
	owner uint64
	size  int
}

// pinLocked records rid, whose freed record was size bytes, as barred
// from reuse by other owners. Caller holds h.mu and rid's stripe.
func (h *HeapFile) pinLocked(rid RID, owner uint64, size int) {
	if h.pinned == nil {
		h.pinned = make(map[PageID]map[uint16]slotPin)
	}
	slots := h.pinned[rid.Page]
	if slots == nil {
		slots = make(map[uint16]slotPin)
		h.pinned[rid.Page] = slots
	}
	if _, ok := slots[rid.Slot]; !ok {
		h.npinned.Add(1)
	}
	slots[rid.Slot] = slotPin{owner: owner, size: size}
}

// UnpinSlot lifts a pin left by DeletePin or UpdatePin.
func (h *HeapFile) UnpinSlot(rid RID) {
	h.mu.Lock()
	if slots := h.pinned[rid.Page]; slots != nil {
		if _, ok := slots[rid.Slot]; ok {
			delete(slots, rid.Slot)
			h.npinned.Add(-1)
		}
		if len(slots) == 0 {
			delete(h.pinned, rid.Page)
		}
	}
	h.mu.Unlock()
}

// avoidFn returns the tombstone-reuse veto for one page, or nil when no
// slot of that page is pinned (the common case, kept allocation-free).
func (h *HeapFile) avoidFn(id PageID, owner uint64) func(uint16) bool {
	slots := h.pinned[id]
	if len(slots) == 0 {
		return nil
	}
	return func(slot uint16) bool {
		p, ok := slots[slot]
		return ok && p.owner != owner
	}
}

// reserveLocked returns the bytes page id must keep reclaimable for
// owner: the sizes of the records other owners' rollbacks would put back
// there. An owner's own pins need no reservation against its own writes,
// because rollback undoes those writes first. Caller holds h.mu.
func (h *HeapFile) reserveLocked(id PageID, owner uint64) int {
	reserve := 0
	for _, p := range h.pinned[id] {
		if p.owner != owner {
			reserve += p.size
		}
	}
	return reserve
}

func (h *HeapFile) insertIntoLocked(id PageID, rec []byte, owner uint64) (RID, error) {
	l := h.latch(id)
	l.Lock()
	defer l.Unlock()
	page, err := h.pool.Fetch(id)
	if err != nil {
		return InvalidRID, err
	}
	slot, err := page.InsertAvoid(rec, h.avoidFn(id, owner), h.reserveLocked(id, owner))
	if err != nil {
		h.setHint(id, page.FreeSpace())
		h.pool.Unpin(id, false)
		return InvalidRID, err
	}
	h.setHint(id, page.FreeSpace())
	h.pool.Unpin(id, true)
	h.nlive++
	return RID{Page: id, Slot: slot}, nil
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	l := h.latch(rid.Page)
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
func (h *HeapFile) Delete(rid RID) error { return h.delete(rid, 0, false) }

// DeletePin removes the record at rid and pins the freed slot, and the
// record's size in bytes, for owner in the same critical section, so no
// concurrent writer can take either before the pin is visible. The
// transaction layer uses it for transactional deletes, unpinning at
// commit/abort.
func (h *HeapFile) DeletePin(rid RID, owner uint64) error { return h.delete(rid, owner, true) }

func (h *HeapFile) delete(rid RID, owner uint64, pin bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	l := h.latch(rid.Page)
	l.Lock()
	defer l.Unlock()
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	old, err := page.Get(rid.Slot)
	if err != nil {
		h.pool.Unpin(rid.Page, false)
		return err
	}
	if pin {
		h.pinLocked(rid, owner, len(old))
	}
	page.Delete(rid.Slot)
	h.setHint(rid.Page, page.FreeSpace())
	h.pool.Unpin(rid.Page, true)
	h.nlive--
	return nil
}

// Update replaces the record at rid. If the new image no longer fits in
// its page the record is relocated and the new RID returned; callers
// must treat the returned RID as authoritative.
func (h *HeapFile) Update(rid RID, rec []byte) (RID, error) {
	return h.update(rid, rec, 0, false)
}

// UpdatePin is Update on behalf of a transaction, additionally pinning
// the old slot for owner when the record relocates — atomically with
// the tombstoning, so concurrent inserts never see the freed slot
// unpinned.
func (h *HeapFile) UpdatePin(rid RID, rec []byte, owner uint64) (RID, error) {
	return h.update(rid, rec, owner, true)
}

func (h *HeapFile) update(rid RID, rec []byte, owner uint64, pin bool) (RID, error) {
	// Fast path: an update that stays on its page touches only this
	// page's bytes, so it runs under the page stripe alone — no h.mu.
	// This is the hot path for parallel appliers; taking h.mu here would
	// physically serialize key-disjoint writers that the lock manager
	// already proved disjoint. While some slot of the file is pinned, a
	// growing record needs h.mu to learn how many bytes its page must
	// keep, so the fast path then reserves everything and leaves growth
	// to the slow path. The freeHint refresh is deliberately skipped:
	// hints are stale-tolerated (a too-optimistic hint is corrected on
	// the next insert attempt, a too-pessimistic one just skips a page).
	l := h.latch(rid.Page)
	l.Lock()
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		l.Unlock()
		return InvalidRID, err
	}
	pinned := h.npinned.Load() != 0
	reserve := 0
	if pinned {
		reserve = math.MaxInt
	}
	err = page.UpdateReserving(rid.Slot, rec, reserve)
	h.pool.Unpin(rid.Page, err == nil)
	l.Unlock()
	if err == nil {
		return rid, nil
	}
	if !errors.Is(err, ErrPageFull) {
		return InvalidRID, err
	}
	// Slow path under h.mu, which keeps the pins, the tombstone and the
	// free-space bookkeeping atomic w.r.t. other allocators. The record
	// cannot have moved or changed between dropping the stripe and
	// reacquiring it — the caller holds the row's exclusive lock — so
	// re-fetching the same slot is safe.
	h.mu.Lock()
	l.Lock()
	page, err = h.pool.Fetch(rid.Page)
	if err != nil {
		l.Unlock()
		h.mu.Unlock()
		return InvalidRID, err
	}
	if pinned {
		// Stay on the page only if it can still give back the bytes of
		// every record another owner's rollback restores here.
		err = page.UpdateReserving(rid.Slot, rec, h.reserveLocked(rid.Page, owner))
		if err == nil || !errors.Is(err, ErrPageFull) {
			h.pool.Unpin(rid.Page, err == nil)
			l.Unlock()
			h.mu.Unlock()
			if err == nil {
				return rid, nil
			}
			return InvalidRID, err
		}
	}
	// Relocate: delete here, insert elsewhere.
	old, err := page.Get(rid.Slot)
	if err != nil {
		h.pool.Unpin(rid.Page, false)
		l.Unlock()
		h.mu.Unlock()
		return InvalidRID, err
	}
	if pin {
		h.pinLocked(rid, owner, len(old))
	}
	page.Delete(rid.Slot)
	h.setHint(rid.Page, page.FreeSpace())
	h.pool.Unpin(rid.Page, true)
	l.Unlock()
	h.nlive--
	h.mu.Unlock()

	newRID, err := h.InsertOwned(rec, owner)
	if err != nil && pin {
		h.UnpinSlot(rid)
	}
	return newRID, err
}

// Scan iterates all live records in (page, slot) order, invoking fn with
// the RID and record bytes (valid only during the call). Iteration stops
// when fn returns false or on error. fn runs under the page's stripe
// latch and must not call back into the heap.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) (bool, error)) error {
	n := h.disk.NumPages()
	for id := PageID(0); id < n; id++ {
		l := h.latch(id)
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
		slot, err := cur.Insert(rec)
		if errors.Is(err, ErrPageFull) {
			pages = append(pages, cur)
			slots = append(slots, curSlots)
			cur = &Page{}
			cur.Init()
			curSlots = nil
			slot, err = cur.Insert(rec)
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
