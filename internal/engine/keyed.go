package engine

import (
	"fmt"
	"slices"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/storage"
	"opdelta/internal/txn"
)

// Keyed row access on resolved table handles: the same write path as
// the SQL executor (locks, version chains, WAL, indexes, undo, row
// triggers, statement hooks) without a statement to parse, plan or
// interpret. View maintenance is built on these. A call takes the rows
// of one set-oriented step — every key a plan reads, every row it
// writes — so it pays one lock-manager call and one batch (batch.go);
// the single-row forms are batches of one.

func (tx *Tx) keyedAccess() error {
	if err := tx.usable(); err != nil {
		return err
	}
	if tx.snapshot {
		return fmt.Errorf("engine: keyed row access needs a read-write transaction, %d is a snapshot", tx.id)
	}
	return nil
}

// lockKeys covers the rows of t whose primary key is one of n keys, in
// one lock-manager call: the keys' points, consecutive integers joined
// into ranges (keyset.LockRanges), when t has a primary key and no key
// is NULL; the whole table otherwise. Under a covering table lock it
// builds nothing.
func (tx *Tx) lockKeys(t *Table, n int, key func(i int) catalog.Value, mode txn.LockMode) error {
	if n == 0 || tx.db.locks.CoversRanges(tx.id, t.Name, mode) {
		return nil
	}
	if t.PKCol >= 0 && !anyNull(n, key) {
		points := make([]keyset.KeyRange, n)
		for i := range points {
			points[i] = keyset.Point(key(i))
		}
		return tx.db.locks.AcquireRanges(tx.id, t.Name, mode, keyset.LockRanges(points))
	}
	return tx.db.locks.Acquire(tx.id, t.Name, mode)
}

func lockMode(forUpdate bool) txn.LockMode {
	if forUpdate {
		return txn.Exclusive
	}
	return txn.Shared
}

// RowsByKeys returns, for each keys[i], the rows of t whose column col
// equals it (none for a NULL key, as in SQL). On the primary-key column
// it locks the keys' points in one call and probes the PK index in key
// order; on any other column it locks the table and reads through the
// secondary index on that column when one exists, by one scan for all
// keys otherwise. forUpdate takes the locks exclusive, which a caller
// about to write the rows wants up front: upgrading a shared lock later
// is where writers deadlock. The rows of each run of keys on one page
// are read in one page visit.
func (tx *Tx) RowsByKeys(t *Table, col int, keys []catalog.Value, forUpdate bool) ([][]Row, error) {
	if err := tx.keyedAccess(); err != nil {
		return nil, err
	}
	out := make([][]Row, len(keys))
	// Index comparisons need the column's own type; a key that does not
	// coerce to it can still equal stored values (a float against an
	// integer column), which only a scan finds.
	probe := make([]int, 0, len(keys)) // positions of non-NULL keys
	coerced, copied := keys, false     // copied on the first key of another type
	indexable := true
	column := t.Schema.Column(col)
	for i, key := range keys {
		if key.IsNull() {
			continue
		}
		probe = append(probe, i)
		if key.Type() == column.Type {
			continue
		}
		if !copied {
			coerced, copied = append([]catalog.Value(nil), keys...), true
		}
		if k, err := catalog.Coerce(key, column); err == nil {
			coerced[i] = k
		} else {
			indexable = false
		}
	}
	if len(probe) == 0 {
		return out, nil
	}
	mode := lockMode(forUpdate)
	var rids []storage.RID
	var owner []int // owner[j]: the key rids[j] was found under
	switch si := t.secIndexOn(col); {
	case col == t.PKCol && indexable:
		if err := tx.lockKeys(t, len(probe), func(j int) catalog.Value { return coerced[probe[j]] }, mode); err != nil {
			return nil, err
		}
		slices.SortFunc(probe, func(a, b int) int { return mustCompare(&coerced[a], &coerced[b]) })
		t.idxMu.RLock()
		for _, i := range probe {
			if rid, ok := t.pk.Get(coerced[i]); ok {
				rids, owner = append(rids, rid), append(owner, i)
			}
		}
		t.idxMu.RUnlock()
	case si != nil && indexable:
		if err := tx.db.locks.Acquire(tx.id, t.Name, mode); err != nil {
			return nil, err
		}
		for _, i := range probe {
			found, err := t.rangeSecondary(si, keyset.Point(coerced[i]), 0)
			if err != nil {
				return nil, err
			}
			for _, rid := range found {
				rids, owner = append(rids, rid), append(owner, i)
			}
		}
	default:
		if err := tx.db.locks.Acquire(tx.id, t.Name, mode); err != nil {
			return nil, err
		}
		err := tx.scanRows(t, func(r Row) (bool, error) {
			for _, i := range probe {
				if catalog.Equal(r.Tuple[col], coerced[i]) {
					out[i] = append(out[i], r)
				}
			}
			return true, nil
		})
		return out, err
	}
	rows, err := tx.db.targetsFromRIDs(t, rids, nil)
	if err != nil {
		return nil, err
	}
	// Each key's rows are one run of rows: hand out subslices.
	for a := 0; a < len(rows); {
		b := a + 1
		for b < len(rows) && owner[b] == owner[a] {
			b++
		}
		out[owner[a]] = rows[a:b:b]
		a = b
	}
	return out, nil
}

// ScanRows visits every row of t in heap order under a whole-table
// lock (exclusive with forUpdate) until fn returns false.
func (tx *Tx) ScanRows(t *Table, forUpdate bool, fn func(Row) (bool, error)) error {
	if err := tx.keyedAccess(); err != nil {
		return err
	}
	if err := tx.db.locks.Acquire(tx.id, t.Name, lockMode(forUpdate)); err != nil {
		return err
	}
	return tx.scanRows(t, fn)
}

func (tx *Tx) scanRows(t *Table, fn func(Row) (bool, error)) error {
	var a rowArena
	return t.heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		// One row's worth at a time: a scan's callers keep few of the
		// rows it passes them, and a kept row holds its chunks alive.
		r, err := a.row(t.Schema, rid, rec, 1)
		if err != nil {
			return false, err
		}
		return fn(r)
	})
}

// Encoded returns the row's stored record bytes. Read-only.
func (r Row) Encoded() []byte { return r.rec }

// InsertRow inserts tup into t, a batch of one; see DB.InsertTuple.
func (tx *Tx) InsertRow(t *Table, tup catalog.Tuple) error {
	return tx.InsertBatch(t, []catalog.Tuple{tup})
}

// UpdateRow replaces a row this transaction looked up with after, a
// batch of one; see UpdateBatch.
func (tx *Tx) UpdateRow(t *Table, old Row, after catalog.Tuple) error {
	return tx.UpdateBatch(t, []Row{old}, []catalog.Tuple{after})
}

// DeleteRow removes a row this transaction looked up, a batch of one.
func (tx *Tx) DeleteRow(t *Table, old Row) error {
	return tx.DeleteBatch(t, []Row{old})
}

// InsertBatch inserts tups into t in order as one batch, under one lock
// call over their keys, and fires t's statement hooks once with them.
// A tuple that does not fit t's schema fails the batch as a row loop
// would: the rows before it are written and its error returned. An
// error fires no hook; the caller aborts as for a failed statement.
func (tx *Tx) InsertBatch(t *Table, tups []catalog.Tuple) error {
	if err := tx.keyedAccess(); err != nil {
		return err
	}
	n, invalid := len(tups), error(nil)
	for i, tup := range tups {
		if err := t.Schema.Validate(tup); err != nil {
			n, invalid = i, fmt.Errorf("engine: %s: %w", t.Name, err)
			break
		}
	}
	// Keyed inserts lock just their keys, like the SQL insert path does,
	// so key-disjoint bulk loads and view maintenance can interleave.
	key := func(i int) catalog.Value { return pkOf(t, tups[i]) }
	if t.PKCol < 0 || anyNull(n, key) {
		tx.db.locks.NoteTableFallback(t.Name)
	}
	if err := tx.lockKeys(t, n, key, txn.Exclusive); err != nil {
		return err
	}
	if err := tx.insertRows(t, tups[:n]); err != nil {
		return err
	}
	if invalid != nil {
		return invalid
	}
	if d := t.newDelta(TrigInsert, n); d != nil {
		d.After = append(d.After, tups...)
		return tx.fireStatementHooks(t, d)
	}
	return nil
}

// UpdateBatch replaces each row this transaction looked up, olds[i],
// with afters[i], written as given (no timestamp stamping): in place
// when the record still fits its page, with every index following. A
// changed primary key must not collide with a live one — checked in
// order, as a row loop would. One lock call covers every old and new
// key; t's statement hooks fire once.
func (tx *Tx) UpdateBatch(t *Table, olds []Row, afters []catalog.Tuple) error {
	if err := tx.keyedAccess(); err != nil {
		return err
	}
	keys := make([]catalog.Value, 0, len(olds))
	for i, old := range olds {
		keys = append(keys, pkOf(t, old.Tuple))
		if t.PKCol >= 0 && !catalog.Equal(old.Tuple[t.PKCol], afters[i][t.PKCol]) {
			keys = append(keys, afters[i][t.PKCol])
		}
	}
	if err := tx.lockKeys(t, len(keys), func(i int) catalog.Value { return keys[i] }, txn.Exclusive); err != nil {
		return err
	}
	if err := tx.updateRows(t, olds, afters); err != nil {
		return err
	}
	if d := t.newDelta(TrigUpdate, len(olds)); d != nil {
		for i, old := range olds {
			d.add(old.Tuple, afters[i])
		}
		return tx.fireStatementHooks(t, d)
	}
	return nil
}

// DeleteBatch removes rows this transaction looked up, under one lock
// call over their keys; t's statement hooks fire once.
func (tx *Tx) DeleteBatch(t *Table, olds []Row) error {
	if err := tx.keyedAccess(); err != nil {
		return err
	}
	if err := tx.lockKeys(t, len(olds), func(i int) catalog.Value { return pkOf(t, olds[i].Tuple) }, txn.Exclusive); err != nil {
		return err
	}
	if err := tx.deleteRows(t, olds); err != nil {
		return err
	}
	if d := t.newDelta(TrigDelete, len(olds)); d != nil {
		for _, old := range olds {
			d.add(old.Tuple, nil)
		}
		return tx.fireStatementHooks(t, d)
	}
	return nil
}

// anyNull reports whether one of n values is NULL.
func anyNull(n int, val func(i int) catalog.Value) bool {
	for i := 0; i < n; i++ {
		if val(i).IsNull() {
			return true
		}
	}
	return false
}

// pkOf returns tup's primary-key value, or a NULL when t has no key.
func pkOf(t *Table, tup catalog.Tuple) catalog.Value {
	if t.PKCol < 0 {
		return catalog.Value{}
	}
	return tup[t.PKCol]
}
