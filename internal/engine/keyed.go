package engine

import (
	"fmt"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/storage"
	"opdelta/internal/txn"
)

// Keyed row access on resolved table handles: the same write path as
// the SQL executor (locks, version chains, WAL, indexes, undo, row
// triggers, statement hooks as a batch of one) without a statement to
// parse, plan or interpret. View maintenance is built on these. Every
// call locks what it touches, so a caller that pre-declared a covering
// table lock pays one lock-manager lookup per call and nothing else.

func (tx *Tx) keyedAccess() error {
	if tx.done {
		return fmt.Errorf("engine: transaction %d already finished", tx.id)
	}
	if tx.snapshot {
		return fmt.Errorf("engine: keyed row access needs a read-write transaction, %d is a snapshot", tx.id)
	}
	return nil
}

// lockKey covers the rows of t whose primary key is key: a point range
// when t has a primary key, the whole table otherwise.
func (tx *Tx) lockKey(t *Table, key catalog.Value, mode txn.LockMode) error {
	if t.PKCol >= 0 && !key.IsNull() {
		return tx.db.locks.AcquireRanges(tx.id, t.Name, mode, []keyset.KeyRange{keyset.Point(key)})
	}
	return tx.db.locks.Acquire(tx.id, t.Name, mode)
}

func lockMode(forUpdate bool) txn.LockMode {
	if forUpdate {
		return txn.Exclusive
	}
	return txn.Shared
}

// RowsByKey returns the rows of t whose column col equals key (none
// for a NULL key, as in SQL). On the primary-key column it locks the
// key's point and reads through the PK index; on any other column it
// locks the table and reads through the secondary index on that column
// when one exists, by scanning otherwise. forUpdate takes the locks
// exclusive, which a caller about to write the rows wants up front:
// upgrading a shared lock later is where writers deadlock.
func (tx *Tx) RowsByKey(t *Table, col int, key catalog.Value, forUpdate bool) ([]Row, error) {
	if err := tx.keyedAccess(); err != nil {
		return nil, err
	}
	if key.IsNull() {
		return nil, nil
	}
	// Index comparisons need the column's own type; a key that does not
	// coerce to it can still equal stored values (a float against an
	// integer column), which only a scan finds.
	indexable := false
	if k, err := catalog.Coerce(key, t.Schema.Column(col)); err == nil {
		key, indexable = k, true
	}
	if col == t.PKCol && indexable {
		if err := tx.lockKey(t, key, lockMode(forUpdate)); err != nil {
			return nil, err
		}
		rid, ok := t.LookupPK(key)
		if !ok {
			return nil, nil
		}
		return tx.db.targetsFromRIDs(t, []storage.RID{rid})
	}
	if err := tx.db.locks.Acquire(tx.id, t.Name, lockMode(forUpdate)); err != nil {
		return nil, err
	}
	if si := t.secIndexOn(col); si != nil && indexable {
		rids, err := t.rangeSecondary(si, keyset.Point(key))
		if err != nil {
			return nil, err
		}
		return tx.db.targetsFromRIDs(t, rids)
	}
	var out []Row
	err := tx.scanRows(t, func(r Row) (bool, error) {
		if catalog.Equal(r.Tuple[col], key) {
			out = append(out, r)
		}
		return true, nil
	})
	return out, err
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
	return t.heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		tup, err := catalog.DecodeTuple(t.Schema, rec)
		if err != nil {
			return false, err
		}
		// rec aliases the page buffer: the row keeps a copy.
		return fn(Row{Tuple: tup, rid: rid, rec: append([]byte(nil), rec...)})
	})
}

// Encoded returns the row's stored record bytes. Read-only.
func (r Row) Encoded() []byte { return r.rec }

// InsertRow inserts tup into t; see DB.InsertTuple.
func (tx *Tx) InsertRow(t *Table, tup catalog.Tuple) error {
	if err := tx.keyedAccess(); err != nil {
		return err
	}
	if err := t.Schema.Validate(tup); err != nil {
		return fmt.Errorf("engine: %s: %w", t.Name, err)
	}
	// A keyed insert locks just its key, like the SQL insert path does,
	// so key-disjoint bulk loads and view maintenance can interleave.
	if t.PKCol < 0 || tup[t.PKCol].IsNull() {
		tx.db.locks.NoteTableFallback(t.Name)
	}
	if err := tx.lockKey(t, pkOf(t, tup), txn.Exclusive); err != nil {
		return err
	}
	if err := tx.db.insertRow(tx, t, tup); err != nil {
		return err
	}
	return tx.fireRowAsStatement(t, TrigInsert, nil, tup)
}

// UpdateRow replaces a row this transaction looked up with after,
// written as given (no timestamp stamping): in place when the record
// still fits its slot, with every index following. A changed primary
// key must not collide with a live one.
func (tx *Tx) UpdateRow(t *Table, old Row, after catalog.Tuple) error {
	if err := tx.keyedAccess(); err != nil {
		return err
	}
	if err := tx.lockKey(t, pkOf(t, old.Tuple), txn.Exclusive); err != nil {
		return err
	}
	if t.PKCol >= 0 && !catalog.Equal(old.Tuple[t.PKCol], after[t.PKCol]) {
		if err := tx.lockKey(t, after[t.PKCol], txn.Exclusive); err != nil {
			return err
		}
	}
	if err := tx.db.updateRow(tx, t, old, after); err != nil {
		return err
	}
	return tx.fireRowAsStatement(t, TrigUpdate, old.Tuple, after)
}

// DeleteRow removes a row this transaction looked up.
func (tx *Tx) DeleteRow(t *Table, old Row) error {
	if err := tx.keyedAccess(); err != nil {
		return err
	}
	if err := tx.lockKey(t, pkOf(t, old.Tuple), txn.Exclusive); err != nil {
		return err
	}
	if err := tx.db.deleteRow(tx, t, old); err != nil {
		return err
	}
	return tx.fireRowAsStatement(t, TrigDelete, old.Tuple, nil)
}

// pkOf returns tup's primary-key value, or a NULL when t has no key.
func pkOf(t *Table, tup catalog.Tuple) catalog.Value {
	if t.PKCol < 0 {
		return catalog.Value{}
	}
	return tup[t.PKCol]
}

// fireRowAsStatement delivers a single-row write to t's statement hooks
// as a batch of one.
func (tx *Tx) fireRowAsStatement(t *Table, op TriggerOp, before, after catalog.Tuple) error {
	d := t.newDelta(op, 1)
	d.add(before, after)
	return tx.fireStatementHooks(t, d)
}
