package storage

import (
	"errors"
	"fmt"
)

// PlaceAt installs rec at exactly the given slot, growing the slot
// directory with tombstones if the slot does not exist yet. Crash
// recovery uses this to redo physiological log records whose RIDs were
// assigned during normal execution; applying the same record twice is
// idempotent.
func (p *Page) PlaceAt(slot uint16, rec []byte) error {
	if len(rec) == 0 {
		return errors.New("storage: empty record")
	}
	n := p.slotCount()
	if slot < n {
		if off, _ := p.slot(slot); off != 0 {
			// Live: overwrite via the update path.
			return p.Update(slot, rec)
		}
		// Tombstone: resurrect it.
		return p.placeIntoFree(slot, rec, 0)
	}
	// Grow the directory through slot, new entries tombstoned.
	grow := int(slot-n+1) * slotSize
	if !p.makeRoom(grow + len(rec)) {
		return ErrPageFull
	}
	for i := n; i <= slot; i++ {
		p.setSlot(i, 0, 0)
	}
	p.setSlotCount(slot + 1)
	p.setFreeLower(p.freeLower() + uint16(grow))
	return p.placeIntoFree(slot, rec, 0)
}

// PlaceAt redoes an insert or update image at rid, allocating pages up
// to rid.Page if the file is shorter (those pages were dirty in memory
// and lost in the crash).
func (h *HeapFile) PlaceAt(rid RID, rec []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.disk.NumPages() <= rid.Page {
		id, page, err := h.pool.NewPage()
		if err != nil {
			return err
		}
		h.setHint(id, page.FreeSpace())
		h.pool.Unpin(id, true)
	}
	l := h.stripe(rid.Page)
	l.Lock()
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		l.Unlock()
		return err
	}
	wasLive := false
	if _, gerr := page.Get(rid.Slot); gerr == nil {
		wasLive = true
	}
	if err := page.PlaceAt(rid.Slot, rec); err != nil {
		h.pool.Unpin(rid.Page, false)
		l.Unlock()
		return fmt.Errorf("storage: redo place at %v: %w", rid, err)
	}
	h.setHint(rid.Page, page.FreeSpace())
	h.pool.Unpin(rid.Page, true)
	l.Unlock()
	if !wasLive {
		h.nlive++
	}
	return nil
}

// DeleteIfLive tombstones rid, treating an already-dead slot as a no-op
// so redo/undo application is idempotent.
func (h *HeapFile) DeleteIfLive(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.disk.NumPages() <= rid.Page {
		return nil
	}
	l := h.stripe(rid.Page)
	l.Lock()
	defer l.Unlock()
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = page.Delete(rid.Slot)
	if errors.Is(err, ErrNoRecord) {
		h.pool.Unpin(rid.Page, false)
		return nil
	}
	if err != nil {
		h.pool.Unpin(rid.Page, false)
		return err
	}
	h.setHint(rid.Page, page.FreeSpace())
	h.pool.Unpin(rid.Page, true)
	h.nlive--
	return nil
}
