package engine

import (
	"errors"
	"fmt"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/sqlmini"
	"opdelta/internal/storage"
	"opdelta/internal/txn"
	"opdelta/internal/wal"
)

// Result reports statement effects.
type Result struct {
	RowsAffected int64
}

var emptySchema = catalog.NewSchema()

// Exec parses and executes one statement. A nil tx runs the statement
// in its own transaction (autocommit).
func (db *DB) Exec(tx *Tx, sql string) (Result, error) {
	stmt, err := sqlmini.Parse(sql)
	if err != nil {
		return Result{}, err
	}
	return db.ExecStmt(tx, stmt)
}

// ExecStmt executes a parsed statement. A nil tx autocommits.
func (db *DB) ExecStmt(tx *Tx, stmt sqlmini.Statement) (Result, error) {
	if tx == nil {
		tx = db.Begin()
		res, err := db.ExecStmt(tx, stmt)
		if err != nil {
			tx.Abort()
			return Result{}, err
		}
		if err := tx.Commit(); err != nil {
			return Result{}, err
		}
		return res, nil
	}
	if tx.done {
		return Result{}, fmt.Errorf("engine: transaction %d already finished", tx.id)
	}
	if tx.snapshot {
		return Result{}, fmt.Errorf("engine: snapshot transaction %d is read-only", tx.id)
	}
	switch s := stmt.(type) {
	case *sqlmini.CreateTable:
		return db.execCreateTable(s)
	case *sqlmini.Insert:
		return db.execInsert(tx, s)
	case *sqlmini.Update:
		return db.execUpdate(tx, s)
	case *sqlmini.Delete:
		return db.execDelete(tx, s)
	case *sqlmini.Select:
		return Result{}, fmt.Errorf("engine: use Query for SELECT")
	default:
		return Result{}, fmt.Errorf("engine: cannot execute %T", stmt)
	}
}

func (db *DB) execCreateTable(s *sqlmini.CreateTable) (Result, error) {
	cols := make([]catalog.Column, 0, len(s.Cols))
	for _, c := range s.Cols {
		cols = append(cols, catalog.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull})
	}
	_, err := db.CreateTable(TableDef{
		Name:         s.Table,
		Schema:       catalog.NewSchema(cols...),
		PrimaryKey:   s.PrimaryKey,
		TimestampCol: s.TimestampCol,
	})
	return Result{}, err
}

// coerce adapts v to the column type where a lossless conversion
// exists (integer literals into DOUBLE columns).
func coerce(v catalog.Value, col catalog.Column) (catalog.Value, error) {
	if v.IsNull() {
		return catalog.NewNull(col.Type), nil
	}
	if v.Type() == col.Type {
		return v, nil
	}
	if v.Type() == catalog.TypeInt64 && col.Type == catalog.TypeFloat64 {
		return catalog.NewFloat(float64(v.Int())), nil
	}
	return catalog.Value{}, fmt.Errorf("engine: column %q expects %s, got %s", col.Name, col.Type, v.Type())
}

// lockForWrite plans the lock set of one DML statement: when the
// statement's key footprint is analyzable and bounded, exclusive range
// locks on exactly those primary-key intervals; otherwise (no PK, an
// unanalyzable predicate, mismatched key literal types, or a provably
// empty footprint, which is not worth a special case) the whole-table
// X lock the engine always used. The footprint analysis is the same
// one the parallel warehouse applier pre-declares with, so statement
// locks taken here are always contained in a pre-declared set.
func (tx *Tx) lockForWrite(t *Table, stmt sqlmini.Statement) error {
	if t.PKCol >= 0 {
		pk := t.Schema.Column(t.PKCol).Name
		fp := keyset.StatementFootprint(stmt, t.Schema, pk)
		if !fp.Whole && len(fp.Ranges) > 0 {
			return tx.db.locks.AcquireRanges(tx.id, t.Name, txn.Exclusive, fp.Ranges)
		}
	}
	tx.db.locks.NoteTableFallback(t.Name)
	return tx.lockExclusive(t.Name)
}

func (db *DB) execInsert(tx *Tx, s *sqlmini.Insert) (Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return Result{}, err
	}
	if err := tx.lockForWrite(t, s); err != nil {
		return Result{}, err
	}
	// Resolve the column list to schema positions once.
	var positions []int
	if s.Columns != nil {
		positions = make([]int, len(s.Columns))
		for i, name := range s.Columns {
			idx, ok := t.Schema.ColIndex(name)
			if !ok {
				return Result{}, fmt.Errorf("engine: no column %q in %s", name, t.Name)
			}
			positions[i] = idx
		}
	}
	delta := t.newDelta(TrigInsert, len(s.Rows))
	var n int64
	for _, row := range s.Rows {
		tup := make(catalog.Tuple, t.Schema.NumColumns())
		for i := range tup {
			tup[i] = catalog.NewNull(t.Schema.Column(i).Type)
		}
		if positions == nil {
			if len(row) != t.Schema.NumColumns() {
				return Result{}, fmt.Errorf("engine: INSERT has %d values, %s has %d columns",
					len(row), t.Name, t.Schema.NumColumns())
			}
			for i, e := range row {
				v, err := sqlmini.Eval(e, emptySchema, nil)
				if err != nil {
					return Result{}, err
				}
				if tup[i], err = coerce(v, t.Schema.Column(i)); err != nil {
					return Result{}, err
				}
			}
		} else {
			if len(row) != len(positions) {
				return Result{}, fmt.Errorf("engine: INSERT has %d values for %d columns", len(row), len(positions))
			}
			for i, e := range row {
				v, err := sqlmini.Eval(e, emptySchema, nil)
				if err != nil {
					return Result{}, err
				}
				if tup[positions[i]], err = coerce(v, t.Schema.Column(positions[i])); err != nil {
					return Result{}, err
				}
			}
		}
		if t.TSCol >= 0 && tup[t.TSCol].IsNull() {
			tup[t.TSCol] = catalog.NewTime(db.opts.Now())
		}
		if err := db.insertRow(tx, t, tup); err != nil {
			return Result{}, err
		}
		delta.add(nil, tup)
		n++
	}
	if err := tx.fireStatementHooks(t, delta); err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: n}, nil
}

// insertRow applies one validated insert: heap, WAL, index, undo,
// triggers. The caller holds an exclusive lock covering the row's key
// (a range lock, or the whole-table X fallback).
func (db *DB) insertRow(tx *Tx, t *Table, tup catalog.Tuple) error {
	enc, err := catalog.EncodeTuple(nil, t.Schema, tup)
	if err != nil {
		return err
	}
	if t.PKCol >= 0 {
		if tup[t.PKCol].IsNull() {
			return fmt.Errorf("engine: NULL primary key in %s", t.Name)
		}
		if _, dup := t.LookupPK(tup[t.PKCol]); dup {
			return fmt.Errorf("engine: duplicate primary key %s in %s", tup[t.PKCol], t.Name)
		}
	}
	if err := tx.ensureBegun(); err != nil {
		return err
	}
	// Stage the version before the heap sees the new row: a snapshot
	// reader that observes these uncommitted bytes must find the chain
	// entry that hides them (base nil = key absent before this insert).
	if t.PKCol >= 0 {
		tx.stageVersion(t, versionKey(tup[t.PKCol]), nil, enc)
	}
	// No mutex orders the (heap mutation, WAL append) pair across
	// transactions. Redo replays committed records in log order at their
	// recorded RIDs, so same-slot records from different transactions
	// must appear in the order the heap performed them — and slot
	// pinning guarantees that structurally: a slot freed by an in-flight
	// transaction cannot be reused until that transaction finishes,
	// which happens only after its commit (or abort) record is already
	// in the log. Every record this insert appends therefore follows the
	// freeing transaction's commit record, and the single log's prefix
	// durability orders everything recovery can see.
	rid, err := t.heap.InsertOwned(enc, uint64(tx.id))
	if err != nil {
		return err
	}
	if _, err := db.wal.Append(&wal.Record{
		Type: wal.RecInsert, Txn: uint64(tx.id), Table: t.Name,
		Page: uint32(rid.Page), Slot: rid.Slot, After: enc,
	}); err != nil {
		return err
	}
	if err := t.indexInsert(tup, rid); err != nil {
		// Should be unreachable given the pre-check under the X lock.
		t.heap.DeleteIfLive(rid)
		return err
	}
	tx.undo = append(tx.undo, undoRec{table: t.Name, typ: wal.RecInsert, rid: rid, after: enc})
	return tx.fireTriggers(t, TriggerEvent{Op: TrigInsert, Table: t.Name, Txn: tx.id, After: tup})
}

// Row is one stored row selected for mutation: its decoded image, where
// it lives, and the record bytes the image was decoded from (a private
// copy), which become the write's before image without re-encoding.
// Rows come from the executor's own plans and from the keyed lookups in
// keyed.go; only the image is visible outside the engine.
type Row struct {
	Tuple catalog.Tuple
	rid   storage.RID
	rec   []byte
}

// collectTargets returns the rows matching where, via the ordered PK
// index when the predicate is an equality or range over the primary
// key, otherwise via a full scan — the plan split the paper describes
// ("table scans unless an index is defined").
func (db *DB) collectTargets(t *Table, where sqlmini.Expr) ([]Row, error) {
	if kr, ok := pkRangePlan(t, where); ok {
		return db.targetsFromRIDs(t, kr.rangeRIDs(t))
	}
	if si, kr, ok := secondaryRangePlan(t, where); ok {
		rids, err := t.rangeSecondary(si, kr)
		if err != nil {
			return nil, err
		}
		return db.targetsFromRIDs(t, rids)
	}
	var out []Row
	err := t.heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		tup, err := catalog.DecodeTuple(t.Schema, rec)
		if err != nil {
			return false, err
		}
		ok, err := sqlmini.EvalPredicate(where, t.Schema, tup)
		if err != nil {
			return false, err
		}
		if ok {
			// rec aliases the page buffer: keep a copy.
			out = append(out, Row{Tuple: tup, rid: rid, rec: append([]byte(nil), rec...)})
		}
		return true, nil
	})
	return out, err
}

func (db *DB) execUpdate(tx *Tx, s *sqlmini.Update) (Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return Result{}, err
	}
	if err := tx.lockForWrite(t, s); err != nil {
		return Result{}, err
	}
	targets, err := db.collectTargets(t, s.Where)
	if err != nil {
		return Result{}, err
	}
	// Pre-resolve assignment positions.
	type assign struct {
		pos  int
		expr sqlmini.Expr
	}
	assigns := make([]assign, len(s.Assigns))
	tsAssigned := false
	for i, a := range s.Assigns {
		pos, ok := t.Schema.ColIndex(a.Col)
		if !ok {
			return Result{}, fmt.Errorf("engine: no column %q in %s", a.Col, t.Name)
		}
		if pos == t.TSCol {
			tsAssigned = true
		}
		assigns[i] = assign{pos: pos, expr: a.Value}
	}
	delta := t.newDelta(TrigUpdate, len(targets))
	var n int64
	for _, tg := range targets {
		before := tg.Tuple
		after := before.Clone()
		for _, a := range assigns {
			v, err := sqlmini.Eval(a.expr, t.Schema, before)
			if err != nil {
				return Result{}, err
			}
			if after[a.pos], err = coerce(v, t.Schema.Column(a.pos)); err != nil {
				return Result{}, err
			}
		}
		if t.TSCol >= 0 && !tsAssigned {
			after[t.TSCol] = catalog.NewTime(db.opts.Now())
		}
		if err := db.updateRow(tx, t, tg, after); err != nil {
			return Result{}, err
		}
		delta.add(before, after)
		n++
	}
	if err := tx.fireStatementHooks(t, delta); err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: n}, nil
}

// updateRow replaces one stored row with after: version chain, heap,
// WAL, indexes, undo, row triggers. The caller holds an exclusive lock
// covering both images' keys.
func (db *DB) updateRow(tx *Tx, t *Table, old Row, after catalog.Tuple) error {
	rid, before, beforeEnc := old.rid, old.Tuple, old.rec
	afterEnc, err := catalog.EncodeTuple(nil, t.Schema, after)
	if err != nil {
		return err
	}
	// A key collision must be refused before anything is written: past
	// this point the heap and the log already hold the new image, and a
	// failure would leave them without an undo record.
	if t.PKCol >= 0 && !catalog.Equal(before[t.PKCol], after[t.PKCol]) {
		if after[t.PKCol].IsNull() {
			return fmt.Errorf("engine: NULL primary key in %s", t.Name)
		}
		if _, dup := t.LookupPK(after[t.PKCol]); dup {
			return fmt.Errorf("engine: duplicate primary key %s in %s", after[t.PKCol], t.Name)
		}
	}
	if err := tx.ensureBegun(); err != nil {
		return err
	}
	// Stage before the heap mutation (see insertRow). A PK-changing
	// update is a delete of the old key plus an insert of the new one in
	// version-chain terms.
	if t.PKCol >= 0 {
		oldKey, newKey := versionKey(before[t.PKCol]), versionKey(after[t.PKCol])
		if oldKey == newKey {
			tx.stageVersion(t, oldKey, beforeEnc, afterEnc)
		} else {
			tx.stageVersion(t, oldKey, beforeEnc, nil)
			tx.stageVersion(t, newKey, nil, afterEnc)
		}
	}
	// UpdatePin pins the old slot atomically with the tombstoning when
	// the record relocates: the slot must survive tombstoned until this
	// transaction finishes, because rollback restores the before image
	// at exactly rid. See insertRow for why the pin also makes the WAL
	// append safe without a table-level ordering mutex.
	newRID, err := t.heap.UpdatePin(rid, afterEnc, uint64(tx.id))
	if err != nil {
		return err
	}
	if newRID != rid {
		tx.pins = append(tx.pins, slotPin{t: t, rid: rid})
	}
	if _, err := db.wal.Append(&wal.Record{
		Type: wal.RecUpdate, Txn: uint64(tx.id), Table: t.Name,
		Page: uint32(rid.Page), Slot: rid.Slot,
		NewPage: uint32(newRID.Page), NewSlot: newRID.Slot,
		Before: beforeEnc, After: afterEnc,
	}); err != nil {
		return err
	}
	if err := t.indexUpdate(before, after, rid, newRID); err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoRec{
		table: t.Name, typ: wal.RecUpdate, rid: rid, newRID: newRID,
		before: beforeEnc, after: afterEnc,
	})
	return tx.fireTriggers(t, TriggerEvent{Op: TrigUpdate, Table: t.Name, Txn: tx.id, Before: before, After: after})
}

func (db *DB) execDelete(tx *Tx, s *sqlmini.Delete) (Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return Result{}, err
	}
	if err := tx.lockForWrite(t, s); err != nil {
		return Result{}, err
	}
	targets, err := db.collectTargets(t, s.Where)
	if err != nil {
		return Result{}, err
	}
	delta := t.newDelta(TrigDelete, len(targets))
	var n int64
	for _, tg := range targets {
		if err := db.deleteRow(tx, t, tg); err != nil {
			return Result{}, err
		}
		delta.add(tg.Tuple, nil)
		n++
	}
	if err := tx.fireStatementHooks(t, delta); err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: n}, nil
}

// deleteRow removes one stored row; see updateRow.
func (db *DB) deleteRow(tx *Tx, t *Table, old Row) error {
	rid, before, beforeEnc := old.rid, old.Tuple, old.rec
	if err := tx.ensureBegun(); err != nil {
		return err
	}
	// Stage before the heap mutation (see insertRow): nil after-image
	// marks the key absent above this version.
	if t.PKCol >= 0 {
		tx.stageVersion(t, versionKey(before[t.PKCol]), beforeEnc, nil)
	}
	// DeletePin tombstones the slot and pins it in one critical section:
	// the slot stays barred from reuse until commit/abort, because
	// rollback restores the record at exactly this RID. See insertRow
	// for why the pin also makes the WAL append safe without a
	// table-level ordering mutex.
	if err := t.heap.DeletePin(rid, uint64(tx.id)); err != nil {
		return err
	}
	tx.pins = append(tx.pins, slotPin{t: t, rid: rid})
	if _, err := db.wal.Append(&wal.Record{
		Type: wal.RecDelete, Txn: uint64(tx.id), Table: t.Name,
		Page: uint32(rid.Page), Slot: rid.Slot, Before: beforeEnc,
	}); err != nil {
		return err
	}
	t.indexDeleteAt(before, rid)
	tx.undo = append(tx.undo, undoRec{table: t.Name, typ: wal.RecDelete, rid: rid, before: beforeEnc})
	return tx.fireTriggers(t, TriggerEvent{Op: TrigDelete, Table: t.Name, Txn: tx.id, Before: before})
}

// Query parses and runs a SELECT, returning the result schema and all
// matching rows. A nil tx runs in its own read-only transaction.
func (db *DB) Query(tx *Tx, sql string) (*catalog.Schema, []catalog.Tuple, error) {
	stmt, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := stmt.(*sqlmini.Select)
	if !ok {
		return nil, nil, fmt.Errorf("engine: Query requires SELECT, got %T", stmt)
	}
	return db.QueryStmt(tx, sel)
}

// QueryStmt runs a parsed SELECT, materializing all rows. Aggregate
// queries, ORDER BY and LIMIT are evaluated here (they need the full
// result set); plain streaming consumers use IterateSelect.
func (db *DB) QueryStmt(tx *Tx, sel *sqlmini.Select) (*catalog.Schema, []catalog.Tuple, error) {
	if len(sel.Aggregates) > 0 {
		return db.queryAggregate(tx, sel)
	}
	// Stream the base rows; ordering happens on the materialized set, so
	// LIMIT can only stop the stream early when no ORDER BY reorders it.
	base := *sel
	base.OrderBy, base.Desc = "", false
	if sel.OrderBy != "" {
		base.Limit = 0
	}
	var rows []catalog.Tuple
	schema, err := db.IterateSelect(tx, &base, func(t catalog.Tuple) error {
		rows = append(rows, t)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rows, err = orderAndLimit(sel, schema, rows)
	if err != nil {
		return nil, nil, err
	}
	return schema, rows, nil
}

// IterateSelect streams SELECT results to fn, holding a shared lock on
// the table for the duration. A nil tx uses an internal transaction.
// Aggregate queries and ORDER BY are not streamable — use QueryStmt;
// LIMIT (without ORDER BY) stops the stream early.
func (db *DB) IterateSelect(tx *Tx, sel *sqlmini.Select, fn func(catalog.Tuple) error) (*catalog.Schema, error) {
	if len(sel.Aggregates) > 0 || sel.OrderBy != "" {
		return nil, fmt.Errorf("engine: aggregate/ordered SELECT cannot stream; use Query")
	}
	if sel.Limit > 0 {
		remaining := sel.Limit
		inner := fn
		fn = func(t catalog.Tuple) error {
			if remaining <= 0 {
				return errStopIteration
			}
			remaining--
			if err := inner(t); err != nil {
				return err
			}
			if remaining == 0 {
				return errStopIteration
			}
			return nil
		}
	}
	if tx == nil {
		if sel.AsOf > 0 {
			// Time travel: its own snapshot pinned at the requested LSN.
			stx, err := db.BeginSnapshotAt(sel.AsOf)
			if err != nil {
				return nil, err
			}
			tx = stx
		} else {
			tx = db.Begin()
		}
		defer tx.Commit()
	} else if sel.AsOf > 0 && (!tx.snapshot || tx.readLSN != sel.AsOf) {
		return nil, fmt.Errorf("engine: AS OF %d needs its own snapshot (autocommit SELECT or BeginSnapshotAt)", sel.AsOf)
	}
	t, err := db.Table(sel.Table)
	if err != nil {
		return nil, err
	}
	outSchema := t.Schema
	var proj []int
	if sel.Columns != nil {
		proj = make([]int, len(sel.Columns))
		for i, name := range sel.Columns {
			idx, ok := t.Schema.ColIndex(name)
			if !ok {
				return nil, fmt.Errorf("engine: no column %q in %s", name, t.Name)
			}
			proj[i] = idx
		}
		outSchema, err = t.Schema.Project(sel.Columns)
		if err != nil {
			return nil, err
		}
	}
	emit := func(tup catalog.Tuple) error {
		if proj == nil {
			return fn(tup.Clone())
		}
		out := make(catalog.Tuple, len(proj))
		for i, p := range proj {
			out[i] = tup[p]
		}
		return fn(out)
	}
	if tx.snapshot && snapshotReadable(t) {
		// Snapshot reads follow version chains at tx.readLSN and take no
		// locks at all — no IS intention, no shared range. Tables without
		// a primary key have no version chains and fall through to the
		// shared-lock path below (they read current state, not the pinned
		// horizon; snapshotReadable callers that need the pin use PKs).
		if err := db.iterateSnapshot(tx, t, sel.Where, emit); err != nil {
			return nil, err
		}
		return outSchema, nil
	}
	if tx.snapshot && sel.AsOf > 0 {
		return nil, fmt.Errorf("engine: AS OF requires a primary-key table, %s has none", t.Name)
	}
	// Lock to match the plan. A PK-range plan provably visits only keys
	// inside its interval, so it takes IS on the table plus a shared
	// lock on just that range: any uncommitted key inside the interval
	// is covered by its writer's exclusive range and conflicts, keys
	// outside are never visited, and inserts into the interval are
	// blocked (no phantoms). Key-disjoint writers keep running. Every
	// other plan reads arbitrary heap rows and needs the whole-table S
	// lock the engine always used.
	var planRIDs []storage.RID
	planned := false
	if kr, ok := pkRangePlan(t, sel.Where); ok {
		if err := tx.lockRangeShared(t.Name, kr.keysetRange()); err != nil {
			return nil, err
		}
		planRIDs, planned = kr.rangeRIDs(t), true
	} else if si, kr, ok := secondaryRangePlan(t, sel.Where); ok {
		if err := tx.lockShared(t.Name); err != nil {
			return nil, err
		}
		rids, err := t.rangeSecondary(si, kr)
		if err != nil {
			return nil, err
		}
		planRIDs, planned = rids, true
	} else if err := tx.lockShared(t.Name); err != nil {
		return nil, err
	}
	if planned {
		for _, rid := range planRIDs {
			rec, err := t.heap.Get(rid)
			if err != nil {
				return nil, err
			}
			tup, err := catalog.DecodeTuple(t.Schema, rec)
			if err != nil {
				return nil, err
			}
			if err := emit(tup); err != nil {
				if errors.Is(err, errStopIteration) {
					return outSchema, nil
				}
				return nil, err
			}
		}
		return outSchema, nil
	}
	err = t.heap.Scan(func(rid storage.RID, rec []byte) (bool, error) {
		tup, err := catalog.DecodeTuple(t.Schema, rec)
		if err != nil {
			return false, err
		}
		ok, err := sqlmini.EvalPredicate(sel.Where, t.Schema, tup)
		if err != nil {
			return false, err
		}
		if !ok {
			return true, nil
		}
		if err := emit(tup); err != nil {
			if errors.Is(err, errStopIteration) {
				return false, nil
			}
			return false, err
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return outSchema, nil
}

// errStopIteration terminates a LIMITed stream early; it never escapes
// the engine.
var errStopIteration = errors.New("engine: stop iteration")

// ScanTable streams every row of a table under a shared lock. Export,
// snapshot and extraction utilities build on this.
func (db *DB) ScanTable(tx *Tx, name string, fn func(catalog.Tuple) error) error {
	_, err := db.IterateSelect(tx, &sqlmini.Select{Table: name}, fn)
	return err
}

// targetsFromRIDs fetches and decodes the rows behind an index plan.
func (db *DB) targetsFromRIDs(t *Table, rids []storage.RID) ([]Row, error) {
	out := make([]Row, 0, len(rids))
	for _, rid := range rids {
		rec, err := t.heap.Get(rid)
		if err != nil {
			return nil, err
		}
		tup, err := catalog.DecodeTuple(t.Schema, rec)
		if err != nil {
			return nil, err
		}
		out = append(out, Row{Tuple: tup, rid: rid, rec: rec})
	}
	return out, nil
}
