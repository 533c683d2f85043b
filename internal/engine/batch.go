package engine

import (
	"cmp"
	"fmt"
	"slices"

	"opdelta/internal/catalog"
	"opdelta/internal/storage"
	"opdelta/internal/wal"
)

// Write batches (DESIGN §6). Every write — an executor statement, a
// view plan's rows, a keyed single-row call — reaches the heap as a
// batch: one statement's rows on one table. A batch checks its rows in
// order exactly as a row loop would, encoding every image into one
// buffer as it goes, so it accepts and rejects what the loop does with
// the same error — including the heap's refusal of a record larger
// than a page — and when row i fails, rows[:i] are written, as the
// loop would have left them. It then
//
//   - stages every version before any page is touched,
//   - visits each page once (storage.HeapFile's batch writers) and
//     appends that page's log records — still one per row — before the
//     page is unpinned,
//   - updates the indexes under one lock, every old entry out before
//     any new one goes in, and
//   - keeps one undo entry.
//
// A table with row triggers is written in batches of one, each row
// followed by its triggers, so the paper's trigger experiments stay
// row by row. Statement hooks fire once per batch, in the callers.
//
// What the checks cannot see — an I/O error, a failed log append — can
// stop the heap partway through a batch, with rows written and logged
// on some pages and not on others, and none of them in the indexes.
// The transaction is then doomed (Tx.doom): it takes no further
// statement and its commit rolls back, so no reader ever meets the
// heap and the indexes out of step and no half-written statement is
// committed.

// insertRows writes a statement's inserts into t.
func (tx *Tx) insertRows(t *Table, tups []catalog.Tuple) error {
	if !t.firesRowTriggers(TrigInsert) {
		return tx.insertBatch(t, tups)
	}
	for i, tup := range tups {
		if err := tx.insertBatch(t, tups[i:i+1]); err != nil {
			return err
		}
		if err := tx.fireTriggers(t, TriggerEvent{Op: TrigInsert, Table: t.Name, Txn: tx.id, After: tup}); err != nil {
			return err
		}
	}
	return nil
}

// updateRows replaces each olds[i] with afters[i].
func (tx *Tx) updateRows(t *Table, olds []Row, afters []catalog.Tuple) error {
	if !t.firesRowTriggers(TrigUpdate) {
		return tx.updateBatch(t, olds, afters)
	}
	for i := range olds {
		if err := tx.updateBatch(t, olds[i:i+1], afters[i:i+1]); err != nil {
			return err
		}
		ev := TriggerEvent{Op: TrigUpdate, Table: t.Name, Txn: tx.id, Before: olds[i].Tuple, After: afters[i]}
		if err := tx.fireTriggers(t, ev); err != nil {
			return err
		}
	}
	return nil
}

// deleteRows removes olds.
func (tx *Tx) deleteRows(t *Table, olds []Row) error {
	if !t.firesRowTriggers(TrigDelete) {
		return tx.deleteBatch(t, olds)
	}
	for i := range olds {
		if err := tx.deleteBatch(t, olds[i:i+1]); err != nil {
			return err
		}
		if err := tx.fireTriggers(t, TriggerEvent{Op: TrigDelete, Table: t.Name, Txn: tx.id, Before: olds[i].Tuple}); err != nil {
			return err
		}
	}
	return nil
}

// insertBatch writes tups into t as one batch. The caller holds
// exclusive locks covering their keys.
func (tx *Tx) insertBatch(t *Table, tups []catalog.Tuple) error {
	imgs, failed := t.checkInserts(tups)
	n := len(imgs)
	if n == 0 {
		return failed
	}
	if err := tx.ensureBegun(); err != nil {
		return err
	}
	rows := make([]storage.BatchRow, n)
	for i := range rows {
		rows[i].After = imgs[i]
	}
	if t.PKCol >= 0 {
		keys := versionKeys(n, func(i int) catalog.Value { return tups[i][t.PKCol] })
		for i, k := range keys {
			tx.stageVersion(t, k, nil, rows[i].After)
		}
	}
	u := tx.pushUndo(t, wal.RecInsert, rows)
	if err := t.heap.InsertBatch(rows, uint64(tx.id), tx.logRows(u, wal.RecInsert, rows)); err != nil {
		return tx.doom(err)
	}
	tx.undo[u].indexed = true
	err := t.reindex(n, nil, func(i int) (catalog.Tuple, storage.RID) { return tups[i], rows[i].RID })
	if err != nil {
		return err
	}
	return failed
}

// updateBatch replaces each olds[i] with afters[i], written as given.
// The caller holds exclusive locks covering both images' keys.
func (tx *Tx) updateBatch(t *Table, olds []Row, afters []catalog.Tuple) error {
	buf, failed := t.checkUpdates(olds, afters)
	n := len(buf)
	if n == 0 {
		return failed
	}
	olds, afters = olds[:n], afters[:n]
	if err := tx.ensureBegun(); err != nil {
		return err
	}
	// Stage in statement order (see insertBatch): a key that a row
	// leaves and a later row enters collapses to the later image, as it
	// did row by row. A PK-changing update is a delete of the old key
	// plus an insert of the new one in version-chain terms.
	if t.PKCol >= 0 {
		keys := versionKeys(n, func(i int) catalog.Value { return olds[i].Tuple[t.PKCol] })
		for i, k := range keys {
			oldKey := olds[i].Tuple[t.PKCol]
			newKey := afters[i][t.PKCol]
			if catalog.Equal(oldKey, newKey) {
				tx.stageVersion(t, k, olds[i].rec, buf[i])
				continue
			}
			tx.stageVersion(t, k, olds[i].rec, nil)
			tx.stageVersion(t, versionKey(newKey), nil, buf[i])
		}
	}
	order := byPage(n, func(i int) storage.PageID { return olds[i].rid.Page })
	rows := make([]storage.BatchRow, n)
	for k, i := range order {
		rows[k] = storage.BatchRow{RID: olds[i].rid, Before: olds[i].rec, After: buf[i]}
	}
	u := tx.pushUndo(t, wal.RecUpdate, rows)
	err := t.heap.UpdateBatch(rows, uint64(tx.id), tx.logRows(u, wal.RecUpdate, rows))
	tx.notePins(t, rows)
	if err != nil {
		return tx.doom(err)
	}
	tx.undo[u].indexed = true
	err = t.reindex(n,
		func(k int) (catalog.Tuple, storage.RID) { return olds[order[k]].Tuple, rows[k].RID },
		func(k int) (catalog.Tuple, storage.RID) { return afters[order[k]], rows[k].NewRID })
	if err != nil {
		return err
	}
	return failed
}

// deleteBatch removes olds. The caller holds exclusive locks covering
// their keys.
func (tx *Tx) deleteBatch(t *Table, olds []Row) error {
	n := len(olds)
	if n == 0 {
		return nil
	}
	if err := tx.ensureBegun(); err != nil {
		return err
	}
	if t.PKCol >= 0 {
		keys := versionKeys(n, func(i int) catalog.Value { return olds[i].Tuple[t.PKCol] })
		for i, k := range keys {
			tx.stageVersion(t, k, olds[i].rec, nil)
		}
	}
	order := byPage(n, func(i int) storage.PageID { return olds[i].rid.Page })
	rows := make([]storage.BatchRow, n)
	for k, i := range order {
		rows[k] = storage.BatchRow{RID: olds[i].rid, Before: olds[i].rec}
	}
	u := tx.pushUndo(t, wal.RecDelete, rows)
	err := t.heap.DeleteBatch(rows, uint64(tx.id), tx.logRows(u, wal.RecDelete, rows))
	tx.notePins(t, rows)
	if err != nil {
		return tx.doom(err)
	}
	tx.undo[u].indexed = true
	return t.reindex(n, func(k int) (catalog.Tuple, storage.RID) { return olds[order[k]].Tuple, rows[k].RID }, nil)
}

// checkInserts runs the row loop's checks over tups, in its order —
// the row encodes, has a non-NULL key, its key is free (not in the
// index, not taken by an earlier row), and its record fits a page — and
// returns the images of the rows before the first that fails, with
// that row's error.
func (t *Table) checkInserts(tups []catalog.Tuple) ([][]byte, error) {
	im := newImages(len(tups))
	n, failed := len(tups), error(nil)
	t.idxMu.RLock()
	for i, tup := range tups {
		if failed = im.add(t.Schema, tup); failed != nil {
			n = i
			break
		}
		if t.PKCol < 0 {
			continue
		}
		if tup[t.PKCol].IsNull() {
			n, failed = i, fmt.Errorf("engine: NULL primary key in %s", t.Name)
			break
		}
		if _, dup := t.pk.Get(tup[t.PKCol]); dup {
			n, failed = i, t.dupKey(tup[t.PKCol])
			break
		}
	}
	t.idxMu.RUnlock()
	if t.PKCol >= 0 {
		if i := firstRepeat(n, func(i int) *catalog.Value { return &tups[i][t.PKCol] }); i >= 0 {
			n, failed = i, t.dupKey(tups[i][t.PKCol])
		}
	}
	imgs := im.out[:n]
	for i, img := range imgs {
		if err := storage.CheckRecordSize(len(img)); err != nil {
			return imgs[:i], err
		}
	}
	return imgs, failed
}

// checkUpdates runs the row loop's checks over an update batch, in its
// order — the after image encodes; a row that changes its key moves it
// onto a non-NULL key that is free at that point of the loop, after the
// keys earlier rows left and took; the record fits a page — and returns
// the after images of the rows before the first that fails, with that
// row's error.
func (t *Table) checkUpdates(olds []Row, afters []catalog.Tuple) ([][]byte, error) {
	im := newImages(len(afters))
	var moved map[string]bool // keys earlier rows left (false) or took (true)
	for i, after := range afters {
		if err := im.add(t.Schema, after); err != nil {
			return im.out[:i], err
		}
		if t.PKCol >= 0 && !catalog.Equal(olds[i].Tuple[t.PKCol], after[t.PKCol]) {
			oldKey, newKey := olds[i].Tuple[t.PKCol], after[t.PKCol]
			if newKey.IsNull() {
				return im.out[:i], fmt.Errorf("engine: NULL primary key in %s", t.Name)
			}
			nk := versionKey(newKey)
			live, ok := moved[nk]
			if !ok {
				_, live = t.LookupPK(newKey)
			}
			if live {
				return im.out[:i], t.dupKey(newKey)
			}
			if moved == nil {
				moved = make(map[string]bool)
			}
			moved[versionKey(oldKey)] = false
			moved[nk] = true
		}
		if err := storage.CheckRecordSize(len(im.out[i])); err != nil {
			return im.out[:i], err
		}
	}
	return im.out, nil
}

func (t *Table) dupKey(v catalog.Value) error {
	return fmt.Errorf("engine: duplicate primary key %s in %s", v, t.Name)
}

// firstRepeat returns the least i < n whose key equals the key of some
// j < i, or -1. Keys in ascending order, the shape of most batches,
// are recognized in one pass.
func firstRepeat(n int, key func(i int) *catalog.Value) int {
	ascending := true
	for i := 1; i < n && ascending; i++ {
		ascending = mustCompare(key(i-1), key(i)) < 0
	}
	if ascending {
		return -1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return mustCompare(key(a), key(b)) })
	first := -1
	for k := 1; k < n; k++ {
		if mustCompare(key(idx[k-1]), key(idx[k])) == 0 && (first < 0 || idx[k] < first) {
			first = idx[k] // stable: idx[k] is a later occurrence than idx[k-1]
		}
	}
	return first
}

// images encodes a batch's images one after another into one buffer,
// sized for all of them at the first image's size.
type images struct {
	n   int // images the buffer is sized for
	buf []byte
	out [][]byte
}

func newImages(n int) images { return images{n: n, out: make([][]byte, 0, n)} }

// add encodes tup as the next image. An image that outgrows the buffer
// moves on to a larger one; the images before it stay where they are.
func (im *images) add(s *catalog.Schema, tup catalog.Tuple) error {
	if im.buf == nil {
		if size, err := catalog.EncodedSize(s, tup); err == nil {
			im.buf = make([]byte, 0, size*im.n)
		}
	}
	start := len(im.buf)
	buf, err := catalog.EncodeTuple(im.buf, s, tup)
	if err != nil {
		return err
	}
	im.buf = buf
	im.out = append(im.out, buf[start:len(buf):len(buf)])
	return nil
}

// byPage returns the positions 0..n-1 ordered by page, keeping the
// statement's order within a page, so the heap visits each page once.
func byPage(n int, page func(i int) storage.PageID) []int {
	order := make([]int, n)
	sorted := true
	for i := range order {
		order[i] = i
		if i > 0 && page(i) < page(i-1) {
			sorted = false
		}
	}
	if !sorted {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(page(a), page(b)) })
	}
	return order
}

// pushUndo opens the undo entry of a batch and returns its position;
// logRows records what the heap writes.
func (tx *Tx) pushUndo(t *Table, typ wal.RecType, rows []storage.BatchRow) int {
	tx.undo = append(tx.undo, undoRec{t: t, typ: typ, rows: rows})
	return len(tx.undo) - 1
}

// logRows is a batch's log callback: the heap calls it with each run of
// rows it has written, before their page is unpinned. The run joins the
// batch's undo entry first, so a failed append still leaves it
// undoable, then each row gets its log record.
func (tx *Tx) logRows(u int, typ wal.RecType, rows []storage.BatchRow) func(lo, hi int) error {
	rec := wal.Record{Type: typ, Txn: uint64(tx.id), Table: tx.undo[u].t.Name}
	return func(lo, hi int) error {
		tx.undo[u].runs = append(tx.undo[u].runs, span{lo, hi})
		for i := lo; i < hi; i++ {
			r := &rows[i]
			rec.Page, rec.Slot = uint32(r.RID.Page), r.RID.Slot
			switch typ {
			case wal.RecInsert:
				rec.After = r.After
			case wal.RecDelete:
				rec.Before = r.Before
			case wal.RecUpdate:
				rec.NewPage, rec.NewSlot = uint32(r.NewRID.Page), r.NewRID.Slot
				rec.Before, rec.After = r.Before, r.After
			}
			if _, err := tx.db.wal.Append(&rec); err != nil {
				return err
			}
		}
		return nil
	}
}

// notePins remembers the slots a batch pinned, to lift at finish.
func (tx *Tx) notePins(t *Table, rows []storage.BatchRow) {
	for i := range rows {
		if rows[i].Pinned {
			tx.pins = append(tx.pins, slotPin{t: t, rid: rows[i].RID})
		}
	}
}

// reindex moves n rows' index entries under one index lock: every old
// entry (old may be nil, as for inserts) is removed before any new one
// (new may be nil, as for deletes) is added, so keys that rows move onto
// one another within the batch — checked in order beforehand — never
// collide. A row whose RID and indexed columns stay is skipped.
func (t *Table) reindex(n int, old, new func(i int) (catalog.Tuple, storage.RID)) error {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.PKCol < 0 && len(t.sec) == 0 {
		return nil
	}
	stays := func(i int) bool {
		if old == nil || new == nil {
			return false
		}
		b, brid := old(i)
		a, arid := new(i)
		return brid == arid && (t.PKCol < 0 || catalog.Equal(b[t.PKCol], a[t.PKCol])) && !t.secKeysDifferLocked(b, a)
	}
	if old != nil {
		for i := 0; i < n; i++ {
			if stays(i) {
				continue
			}
			tup, rid := old(i)
			if t.PKCol >= 0 {
				t.pk.Delete(tup[t.PKCol])
			}
			if err := t.secDeleteLocked(tup, rid); err != nil {
				return err
			}
		}
	}
	if new != nil {
		for i := 0; i < n; i++ {
			if stays(i) {
				continue
			}
			tup, rid := new(i)
			if t.PKCol >= 0 {
				if err := t.pk.Insert(tup[t.PKCol], rid); err != nil {
					return t.dupKey(tup[t.PKCol])
				}
			}
			if err := t.secInsertLocked(tup, rid); err != nil {
				return err
			}
		}
	}
	return nil
}

// firesRowTriggers reports whether t has a row trigger on op.
func (t *Table) firesRowTriggers(op TriggerOp) bool {
	t.trigMu.RLock()
	defer t.trigMu.RUnlock()
	for _, trig := range t.triggers {
		if (op == TrigInsert && trig.OnInsert) || (op == TrigDelete && trig.OnDelete) || (op == TrigUpdate && trig.OnUpdate) {
			return true
		}
	}
	return false
}
