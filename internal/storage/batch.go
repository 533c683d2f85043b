package storage

import (
	"errors"

	"opdelta/internal/fault"
)

// Statement batches: the heap's only write path. A batch is one
// statement's rows on one heap file. Each page it touches is visited
// once — one stripe latch, one pool pin — and before the page is
// unpinned the caller's logged(lo, hi) runs for the rows [lo, hi) the
// visit wrote, in the order written. The engine appends those rows' log
// records there, so a page can never reach disk (eviction writes only
// unpinned pages, after flushing the log) ahead of the records that
// describe its changes. Two crash points (fault.CrashPoint) sit inside
// a batch: between a page's writes and its log callback, and between two
// pages. The single-row writers are batches of one.
//
// Redo replays committed records in log order at their recorded RIDs,
// so records of one slot must reach the log in the order the heap wrote
// them. Within a visit they do: the page's latch is held until its
// records are appended. Across transactions the pins see to it: a slot
// an in-flight transaction freed or shrank keeps its bytes and stays
// unusable to others until that transaction's commit or abort record is
// in the log, so no other transaction's record on it can come first.

// BatchRow is one row of a statement batch.
type BatchRow struct {
	// RID is where the record lives: set by InsertBatch, given to
	// UpdateBatch and DeleteBatch.
	RID RID
	// NewRID is where the record lives after the batch: set by
	// InsertBatch (RID) and UpdateBatch (RID unless the record
	// relocated).
	NewRID RID
	// Before is the record's current image (update, delete). The heap
	// does not read it; it rides along for the caller's log and undo.
	Before []byte
	// After is the image to store (insert, update).
	After []byte
	// Pinned reports that the batch pinned RID for its owner (a delete,
	// a relocation or an in-place shrink); the owner lifts the pin with
	// UnpinSlot when it finishes.
	Pinned bool
}

// visit is the one page a batch holds, latched and pinned, and the run
// rows[lo:hi] it wrote there that is not logged yet.
type visit struct {
	h      *HeapFile
	s      *stripe // latched stripe, nil when none
	id     PageID
	page   *Page // pinned page, nil when none
	lo, hi int
	dirty  bool
	// heapLocked reports that the batch holds h.mu, as inserts do
	// while they choose pages. Ending a visit then gives h.mu up while
	// the run is logged and takes it back once the page is released, so
	// no log append runs under h.mu and h.mu is never taken under a
	// stripe. Batches that take h.mu defer done, which gives it up.
	heapLocked bool
}

// begin latches and pins page id for a run starting at row i.
func (v *visit) begin(id PageID, i int) error {
	v.s = v.h.stripe(id)
	v.s.Lock()
	page, err := v.h.pool.Fetch(id)
	if err != nil {
		v.s.Unlock()
		v.s = nil
		return err
	}
	v.id, v.page, v.lo, v.hi, v.dirty = id, page, i, i, false
	return nil
}

// flush hands the visit's unlogged run to logged, with the page still
// pinned, and starts an empty run at next.
func (v *visit) flush(logged func(lo, hi int) error, next int) error {
	lo, hi := v.lo, v.hi
	v.lo, v.hi = next, next
	if hi == lo {
		return nil
	}
	v.dirty = true
	if logged == nil {
		return nil
	}
	fault.CrashPoint(v.h.fs) // the page is written, its log records are not
	return logged(lo, hi)
}

// end logs the visit's run and releases its page.
func (v *visit) end(logged func(lo, hi int) error) error {
	if v.page == nil {
		return nil
	}
	relock := v.heapLocked && v.hi > v.lo
	if relock {
		v.heapLocked = false
		v.h.mu.Unlock()
	}
	err := v.flush(logged, v.hi)
	v.release()
	if relock {
		v.h.mu.Lock()
		v.heapLocked = true
	}
	fault.CrashPoint(v.h.fs) // between two pages of one batch
	return err
}

// fail ends the visit, logging what it wrote, and returns err.
func (v *visit) fail(err error, logged func(lo, hi int) error) error {
	v.end(logged)
	return err
}

// release unpins and unlatches without logging. It (or done) is also
// each batch's deferred cleanup, so a crash unwinding through a batch
// leaves no latch held behind it.
func (v *visit) release() {
	if v.page != nil {
		v.h.pool.Unpin(v.id, v.dirty || v.hi > v.lo)
		v.page = nil
	}
	if v.s != nil {
		v.s.Unlock()
		v.s = nil
	}
}

// done releases the visit and gives up h.mu if the batch holds it.
func (v *visit) done() {
	v.release()
	if v.heapLocked {
		v.heapLocked = false
		v.h.mu.Unlock()
	}
}

// InsertBatch stores every row's After image for owner and sets its
// RID. Each row goes, in order, to the newest page whose free-space
// hint fits it, skipping tombstones other owners pinned and the bytes
// they reserve, else to a new page. Slots owner pinned itself may be
// reused; owner 0 means no transaction and matches no pin. Rows that
// land on one page one after another are written in one visit. On an
// error the rows written so far are still logged. h.mu is held while
// rows are placed, not while they are logged.
func (h *HeapFile) InsertBatch(rows []BatchRow, owner uint64, logged func(lo, hi int) error) error {
	h.mu.Lock()
	v := visit{h: h, heapLocked: true}
	defer v.done()
	for i := range rows {
		rid, err := h.insertLocked(&v, rows[i].After, i, owner, logged)
		if err != nil {
			return v.fail(err, logged)
		}
		rows[i].RID, rows[i].NewRID = rid, rid
	}
	return v.end(logged)
}

// insertLocked places rec, row i of a batch, for owner, moving the
// visit to the page that takes it. Caller holds h.mu.
func (h *HeapFile) insertLocked(v *visit, rec []byte, i int, owner uint64, logged func(lo, hi int) error) (RID, error) {
	// Try pages the hint claims can hold the record, newest first
	// (recent pages are most likely still buffered).
	need := len(rec) + slotSize
	n := min(h.disk.NumPages(), PageID(len(h.freeHint)))
	for id := n; id > 0; {
		id--
		if h.freeHint[id] < need {
			continue
		}
		if v.page == nil || v.id != id {
			if err := v.end(logged); err != nil {
				return InvalidRID, err
			}
			if err := v.begin(id, i); err != nil {
				return InvalidRID, err
			}
		}
		slots := v.s.pins[id]
		var avoid func(uint16) bool
		if len(slots) > 0 {
			avoid = func(slot uint16) bool {
				p, ok := slots[slot]
				return ok && p.owner != owner
			}
		}
		slot, err := v.page.InsertAvoid(rec, avoid, v.s.reserveLocked(id, v.page, owner))
		h.setHint(id, v.page.FreeSpace())
		if err == nil {
			v.hi = i + 1
			h.nlive++
			return RID{Page: id, Slot: slot}, nil
		}
		if !errors.Is(err, ErrPageFull) {
			return InvalidRID, err
		}
		// Hint was stale; keep looking.
	}
	// No page fits: allocate one. The page becomes visible to Scan as
	// soon as the disk grows, so even the first insert into it runs
	// under its stripe.
	if err := v.end(logged); err != nil {
		return InvalidRID, err
	}
	id, page, err := h.pool.NewPage()
	if err != nil {
		return InvalidRID, err
	}
	v.s = h.stripe(id)
	v.s.Lock()
	v.id, v.page, v.lo, v.hi, v.dirty = id, page, i, i, true
	slot, err := page.Insert(rec)
	if err != nil {
		return InvalidRID, err
	}
	h.setHint(id, page.FreeSpace())
	v.hi = i + 1
	h.nlive++
	return RID{Page: id, Slot: slot}, nil
}

// UpdateBatch replaces every row's record at RID with its After image
// for owner and sets NewRID. Rows must come grouped by page. A record
// that still fits its page (compacting it if that makes room, and
// leaving other owners' reserved bytes reclaimable) is rewritten in
// place; one that shrinks is pinned for owner at its old size, since
// rollback grows it back. Records that no longer fit their page are
// relocated after the page pass, each logged while both its pages are
// pinned. The caller holds every row's exclusive lock.
func (h *HeapFile) UpdateBatch(rows []BatchRow, owner uint64, logged func(lo, hi int) error) error {
	v := visit{h: h}
	defer v.release()
	var moves []int
	for lo := 0; lo < len(rows); {
		id := rows[lo].RID.Page
		hi := lo + 1
		for hi < len(rows) && rows[hi].RID.Page == id {
			hi++
		}
		if err := v.begin(id, lo); err != nil {
			return err
		}
		reserve := -1 // other owners' reservation, read on the first growth
		for i := lo; i < hi; i++ {
			r := &rows[i]
			cur, err := v.page.Get(r.RID.Slot)
			if err != nil {
				return v.fail(err, logged)
			}
			size := len(cur)
			if len(r.After) > size && reserve < 0 {
				reserve = v.s.reserveLocked(id, v.page, owner)
			}
			err = v.page.UpdateReserving(r.RID.Slot, r.After, max(reserve, 0))
			if errors.Is(err, ErrPageFull) {
				// The page is untouched; the record moves after the pass.
				if err := v.flush(logged, i+1); err != nil {
					return v.fail(err, logged)
				}
				moves = append(moves, i)
				continue
			}
			if err != nil {
				return v.fail(err, logged)
			}
			if owner != 0 && len(r.After) < size {
				v.s.pinLocked(r.RID, owner, size)
				r.Pinned = true
			}
			r.NewRID = r.RID
			v.hi = i + 1
		}
		if err := v.end(logged); err != nil {
			return err
		}
		lo = hi
	}
	for _, i := range moves {
		if err := h.relocate(rows, i, owner, logged); err != nil {
			return err
		}
	}
	return nil
}

// relocate moves row i of an update batch off its page: the old slot is
// tombstoned (and pinned for owner at the record's size), the after
// image is inserted where InsertBatch would put it, and the row is
// logged before either page is unpinned.
func (h *HeapFile) relocate(rows []BatchRow, i int, owner uint64, logged func(lo, hi int) error) error {
	r := &rows[i]
	h.mu.Lock()
	v := visit{h: h, heapLocked: true} // where the new image goes
	defer v.done()
	old := visit{h: h}
	defer old.release()
	if err := old.begin(r.RID.Page, i); err != nil {
		return err
	}
	rec, err := old.page.Get(r.RID.Slot)
	if err != nil {
		return err
	}
	prev := append([]byte(nil), rec...)
	_, wasPinned := old.s.pins[r.RID.Page][r.RID.Slot]
	if owner != 0 {
		old.s.pinLocked(r.RID, owner, len(prev))
		r.Pinned = true
	}
	old.page.Delete(r.RID.Slot)
	old.dirty = true
	h.setHint(r.RID.Page, old.page.FreeSpace())
	h.nlive--
	// Keep the old page pinned, not latched, while the new image finds
	// its page: the tombstone must not reach disk before the record.
	old.s.Unlock()
	old.s = nil

	newRID, err := h.insertLocked(&v, r.After, i, owner, nil)
	if err != nil {
		v.release()
		// Put the record back; its pin kept the bytes.
		old.s = h.stripe(r.RID.Page)
		old.s.Lock()
		if perr := old.page.PlaceAt(r.RID.Slot, prev); perr == nil {
			h.nlive++
			if owner != 0 && !wasPinned {
				delete(old.s.pins[r.RID.Page], r.RID.Slot)
				r.Pinned = false
			}
		}
		h.setHint(r.RID.Page, old.page.FreeSpace())
		return err
	}
	r.NewRID = newRID
	return v.end(logged)
}

// DeleteBatch tombstones every row's record at RID for owner, pinning
// each freed slot for owner at the record's size in the same critical
// section, so no concurrent writer can take the slot or its bytes before
// the pin is visible. Rows must come grouped by page. A page's free-space
// hint and the live count are brought up to date under h.mu once the
// page is released, so the log appends run outside h.mu and writers of
// other pages never wait on them; a hint that is briefly stale costs an
// insert at most a look at another page.
func (h *HeapFile) DeleteBatch(rows []BatchRow, owner uint64, logged func(lo, hi int) error) error {
	v := visit{h: h}
	defer v.release()
	for lo := 0; lo < len(rows); {
		id := rows[lo].RID.Page
		hi := lo + 1
		for hi < len(rows) && rows[hi].RID.Page == id {
			hi++
		}
		if err := v.begin(id, lo); err != nil {
			return err
		}
		var err error
		for i := lo; i < hi; i++ {
			rid := rows[i].RID
			var rec []byte
			if rec, err = v.page.Get(rid.Slot); err != nil {
				break
			}
			if owner != 0 {
				v.s.pinLocked(rid, owner, len(rec))
				rows[i].Pinned = true
			}
			v.page.Delete(rid.Slot)
			v.hi = i + 1
		}
		free, deleted := v.page.FreeSpace(), v.hi-lo
		if lerr := v.end(logged); err == nil {
			err = lerr
		}
		h.mu.Lock()
		h.setHint(id, free)
		h.nlive -= int64(deleted)
		h.mu.Unlock()
		if err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// GetBatch calls fn(i, rec) for every rids[i], in order, reading a run
// of consecutive rids on one page under one latch and pin. rec aliases
// the page and is valid only during the call; fn must not call back
// into the heap.
func (h *HeapFile) GetBatch(rids []RID, fn func(i int, rec []byte) error) error {
	v := visit{h: h}
	defer v.release()
	for i, rid := range rids {
		if v.page == nil || v.id != rid.Page {
			v.release()
			if err := v.begin(rid.Page, i); err != nil {
				return err
			}
		}
		rec, err := v.page.Get(rid.Slot)
		if err != nil {
			return err
		}
		if err := fn(i, rec); err != nil {
			return err
		}
	}
	return nil
}
