// Package storage implements the on-disk layer of the engine: fixed-size
// slotted pages, per-table heap files, a disk manager and an LRU buffer
// pool. Everything above this package deals in catalog.Tuple; everything
// in this package deals in raw record bytes.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed size of every page, chosen to match common DBMS
// block sizes.
const PageSize = 8192

// PageID identifies a page within one heap file (zero-based).
type PageID uint32

// InvalidPageID is a sentinel for "no page".
const InvalidPageID = PageID(^uint32(0))

// Slotted page layout:
//
//	offset 0:  uint16 slot count
//	offset 2:  uint16 free-space lower bound (end of slot directory)
//	offset 4:  uint16 free-space upper bound (start of record data)
//	offset 6:  uint16 reserved (alignment)
//	offset 8:  slot directory, 4 bytes per slot: uint16 offset, uint16 length
//	...
//	free space
//	...
//	records, packed from the end of the page toward the front
//
// A slot with offset 0 is a tombstone: the record was deleted and the
// slot may be reused. Record offset 0 can never be a real record because
// the header occupies it.
const (
	pageHeaderSize = 8
	slotSize       = 4
)

// ErrPageFull reports that the record does not fit in the page.
var ErrPageFull = errors.New("storage: page full")

// Page is a slotted page image. It is a raw byte array manipulated in
// place so the buffer pool can hand out frames without copying.
type Page [PageSize]byte

// InitPage formats p as an empty slotted page.
func (p *Page) Init() {
	for i := range p {
		p[i] = 0
	}
	p.setSlotCount(0)
	p.setFreeLower(pageHeaderSize)
	p.setFreeUpper(PageSize)
}

func (p *Page) slotCount() uint16     { return binary.LittleEndian.Uint16(p[0:2]) }
func (p *Page) setSlotCount(n uint16) { binary.LittleEndian.PutUint16(p[0:2], n) }
func (p *Page) freeLower() uint16     { return binary.LittleEndian.Uint16(p[2:4]) }
func (p *Page) setFreeLower(n uint16) { binary.LittleEndian.PutUint16(p[2:4], n) }
func (p *Page) freeUpper() uint16     { return binary.LittleEndian.Uint16(p[4:6]) }
func (p *Page) setFreeUpper(n uint16) { binary.LittleEndian.PutUint16(p[4:6], n) }

func (p *Page) slot(i uint16) (off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(p[base : base+2]), binary.LittleEndian.Uint16(p[base+2 : base+4])
}

func (p *Page) setSlot(i, off, length uint16) {
	base := pageHeaderSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(p[base:base+2], off)
	binary.LittleEndian.PutUint16(p[base+2:base+4], length)
}

// NumSlots returns the number of slots ever allocated in the page,
// including tombstones.
func (p *Page) NumSlots() int { return int(p.slotCount()) }

// FreeSpace returns the number of record bytes that can still be
// inserted assuming a new slot is also needed.
func (p *Page) FreeSpace() int {
	free := int(p.freeUpper()) - int(p.freeLower()) - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// Insert stores rec in the page and returns its slot number. It reuses
// a tombstoned slot when one exists. Returns ErrPageFull when rec does
// not fit.
func (p *Page) Insert(rec []byte) (uint16, error) {
	return p.InsertAvoid(rec, nil, 0)
}

// InsertAvoid is Insert with a tombstone-reuse veto and a byte
// reservation: slots for which avoid returns true are skipped, and the
// insert is refused with ErrPageFull if it would leave fewer than
// reserve bytes reclaimable (see UpdateReserving). The heap layer uses
// both to keep inserts off slots and bytes freed by still-in-flight
// transactions, whose rollback restores the record at exactly that slot.
func (p *Page) InsertAvoid(rec []byte, avoid func(uint16) bool, reserve int) (uint16, error) {
	if len(rec) == 0 {
		return 0, errors.New("storage: empty record")
	}
	if len(rec) > PageSize-pageHeaderSize-slotSize {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds page capacity", len(rec))
	}
	// Find a reusable tombstone first: reusing costs no directory growth.
	slotNo := uint16(0)
	reuse := false
	n := p.slotCount()
	for i := uint16(0); i < n; i++ {
		if off, _ := p.slot(i); off == 0 && (avoid == nil || !avoid(i)) {
			slotNo, reuse = i, true
			break
		}
	}
	need := len(rec)
	if !reuse {
		need += slotSize
	}
	if int(p.freeUpper())-int(p.freeLower()) < need || (reserve > 0 && p.reclaimable()-need < reserve) {
		return 0, ErrPageFull
	}
	newUpper := p.freeUpper() - uint16(len(rec))
	copy(p[newUpper:], rec)
	p.setFreeUpper(newUpper)
	if !reuse {
		slotNo = n
		p.setSlotCount(n + 1)
		p.setFreeLower(p.freeLower() + slotSize)
	}
	p.setSlot(slotNo, newUpper, uint16(len(rec)))
	return slotNo, nil
}

// ErrNoRecord reports access to a missing or deleted slot.
var ErrNoRecord = errors.New("storage: no record at slot")

// Get returns the record bytes stored at slot. The returned slice
// aliases the page; callers must copy before the page is evicted.
func (p *Page) Get(slot uint16) ([]byte, error) {
	if slot >= p.slotCount() {
		return nil, ErrNoRecord
	}
	off, length := p.slot(slot)
	if off == 0 {
		return nil, ErrNoRecord
	}
	return p[off : off+length], nil
}

// Delete tombstones the slot. The record bytes become dead space until
// the page is compacted.
func (p *Page) Delete(slot uint16) error {
	if slot >= p.slotCount() {
		return ErrNoRecord
	}
	off, _ := p.slot(slot)
	if off == 0 {
		return ErrNoRecord
	}
	p.setSlot(slot, 0, 0)
	return nil
}

// Update replaces the record at slot; the slot number is kept. A record
// that fits in the old record's space is rewritten in place. A larger
// one is placed in free space: the old image is tombstoned first, so if
// the free window is too small the compaction that makes room drops it
// instead of keeping it as dead space. The page compacts only when that
// makes room. Returns ErrPageFull, with the page untouched, if the
// updated record cannot fit in this page at all; the caller then
// relocates the record (delete + insert elsewhere).
func (p *Page) Update(slot uint16, rec []byte) error {
	return p.UpdateReserving(slot, rec, 0)
}

// UpdateReserving is Update that keeps reserve bytes reclaimable: a
// record that grows is refused with ErrPageFull, page untouched, if
// afterwards the page could no longer free reserve bytes by compacting.
// The heap layer reserves the bytes of records that in-flight
// transactions deleted or relocated, so their rollback can put each one
// back at its slot.
func (p *Page) UpdateReserving(slot uint16, rec []byte, reserve int) error {
	if slot >= p.slotCount() {
		return ErrNoRecord
	}
	off, length := p.slot(slot)
	if off == 0 {
		return ErrNoRecord
	}
	if len(rec) <= int(length) {
		copy(p[off:], rec)
		p.setSlot(slot, off, uint16(len(rec)))
		return nil
	}
	p.setSlot(slot, 0, 0)
	if err := p.placeIntoFree(slot, rec, reserve); err != nil {
		p.setSlot(slot, off, length)
		return err
	}
	return nil
}

// placeIntoFree stores rec at the tombstoned slot, compacting the page
// first if that is what makes room, and refuses it if it would leave
// fewer than reserve bytes reclaimable.
func (p *Page) placeIntoFree(slot uint16, rec []byte, reserve int) error {
	if (reserve > 0 && p.reclaimable()-len(rec) < reserve) || !p.makeRoom(len(rec)) {
		return ErrPageFull
	}
	newUpper := p.freeUpper() - uint16(len(rec))
	copy(p[newUpper:], rec)
	p.setFreeUpper(newUpper)
	p.setSlot(slot, newUpper, uint16(len(rec)))
	return nil
}

// makeRoom reports whether need contiguous bytes are free, compacting the
// page when its free window is too small but the dead space behind it
// would make it large enough. A page that cannot make room is left
// untouched.
func (p *Page) makeRoom(need int) bool {
	if int(p.freeUpper())-int(p.freeLower()) >= need {
		return true
	}
	if p.reclaimable() < need {
		return false
	}
	p.Compact()
	return true
}

// reclaimable returns the bytes a compaction would leave free between
// the slot directory and the records: the page minus the header, the
// directory and the live records.
func (p *Page) reclaimable() int {
	free := PageSize - int(p.freeLower())
	n := p.slotCount()
	for i := uint16(0); i < n; i++ {
		if off, length := p.slot(i); off != 0 {
			free -= int(length)
		}
	}
	return free
}

// Compact rewrites the live records contiguously at the end of the page,
// in slot order, reclaiming the dead space left by deletes, shrinking
// updates and replaced images. Slot numbers are preserved. The records
// are repacked from one copy of the record area in a page-sized scratch
// image on the stack, so compaction allocates nothing.
func (p *Page) Compact() {
	var img Page
	start := p.freeUpper()
	copy(img[start:], p[start:])
	upper := uint16(PageSize)
	n := p.slotCount()
	for i := uint16(0); i < n; i++ {
		off, length := p.slot(i)
		if off == 0 {
			continue
		}
		upper -= length
		copy(p[upper:], img[off:off+length])
		p.setSlot(i, upper, length)
	}
	p.setFreeUpper(upper)
}

// LiveRecords calls fn for every live (slot, record) pair in slot order.
// The record slice aliases the page.
func (p *Page) LiveRecords(fn func(slot uint16, rec []byte) bool) {
	n := p.slotCount()
	for i := uint16(0); i < n; i++ {
		off, length := p.slot(i)
		if off == 0 {
			continue
		}
		if !fn(i, p[off:off+length]) {
			return
		}
	}
}
