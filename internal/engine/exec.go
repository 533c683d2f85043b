package engine

import (
	"errors"
	"fmt"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/sqlmini"
	"opdelta/internal/storage"
	"opdelta/internal/txn"
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
	if err := tx.usable(); err != nil {
		return Result{}, err
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

// lockForWrite plans the lock set of one DML statement: when the
// statement's key footprint is analyzable and bounded, exclusive range
// locks on exactly those primary-key intervals; otherwise (no PK, an
// unanalyzable predicate, mismatched key literal types, or a provably
// empty footprint, which is not worth a special case) the whole-table
// X lock the engine always used. keyset owns the reading of the
// predicate: the footprint is the same one the parallel warehouse
// applier pre-declares with, so statement locks taken here are always
// contained in a pre-declared set, and the access path collectTargets
// plans (keyset.ExactRange) reads the same comparisons, so the rows it
// visits lie inside these locks.
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
	rows, err := InsertRows(s, t.Schema)
	if err != nil {
		return Result{}, err
	}
	if t.TSCol >= 0 {
		for _, tup := range rows {
			if tup[t.TSCol].IsNull() {
				tup[t.TSCol] = catalog.NewTime(db.opts.Now())
			}
		}
	}
	if err := tx.insertRows(t, rows); err != nil {
		return Result{}, err
	}
	if delta := t.newDelta(TrigInsert, len(rows)); delta != nil {
		delta.After = append(delta.After, rows...)
		if err := tx.fireStatementHooks(t, delta); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: int64(len(rows))}, nil
}

// InsertRows evaluates an INSERT's literal rows into full tuples of
// schema, the way the executor inserts them: the column list resolved
// to positions once, columns the statement leaves out NULL, every value
// through catalog.Coerce. It stamps no timestamp column; each caller
// stamps with its own clock (the executor with Options.Now, view-only
// op replay with the op's capture time).
func InsertRows(s *sqlmini.Insert, schema *catalog.Schema) ([]catalog.Tuple, error) {
	var positions []int
	if s.Columns != nil {
		positions = make([]int, len(s.Columns))
		for i, name := range s.Columns {
			idx, ok := schema.ColIndex(name)
			if !ok {
				return nil, fmt.Errorf("engine: no column %q in %s", name, s.Table)
			}
			positions[i] = idx
		}
	}
	rows := make([]catalog.Tuple, len(s.Rows))
	for r, row := range s.Rows {
		if positions == nil && len(row) != schema.NumColumns() {
			return nil, fmt.Errorf("engine: INSERT has %d values, %s has %d columns",
				len(row), s.Table, schema.NumColumns())
		}
		if positions != nil && len(row) != len(positions) {
			return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(row), len(positions))
		}
		tup := make(catalog.Tuple, schema.NumColumns())
		for i := range tup {
			tup[i] = catalog.NewNull(schema.Column(i).Type)
		}
		for i, e := range row {
			pos := i
			if positions != nil {
				pos = positions[i]
			}
			v, err := sqlmini.Eval(e, emptySchema, nil)
			if err != nil {
				return nil, err
			}
			if tup[pos], err = catalog.Coerce(v, schema.Column(pos)); err != nil {
				return nil, err
			}
		}
		rows[r] = tup
	}
	return rows, nil
}

// SetList is an UPDATE's SET list resolved against its table's schema:
// the after image of any row under the statement, as the executor
// computes it.
type SetList struct {
	schema *catalog.Schema
	items  []setItem
}

type setItem struct {
	pos  int
	expr sqlmini.Expr
}

// ResolveSet resolves an UPDATE's assignments to schema positions, once
// per statement.
func ResolveSet(s *sqlmini.Update, schema *catalog.Schema) (SetList, error) {
	items := make([]setItem, len(s.Assigns))
	for i, a := range s.Assigns {
		pos, ok := schema.ColIndex(a.Col)
		if !ok {
			return SetList{}, fmt.Errorf("engine: no column %q in %s", a.Col, s.Table)
		}
		items[i] = setItem{pos: pos, expr: a.Value}
	}
	return SetList{schema: schema, items: items}, nil
}

// Apply writes before's after image into after, which must be as long
// as before: every assignment evaluated over before and coerced to its
// column's type, every other column before's value. It stamps no
// timestamp column; the executor stamps one the statement does not
// assign.
func (l SetList) Apply(after, before catalog.Tuple) error {
	copy(after, before)
	for _, it := range l.items {
		v, err := sqlmini.Eval(it.expr, l.schema, before)
		if err != nil {
			return err
		}
		if after[it.pos], err = catalog.Coerce(v, l.schema.Column(it.pos)); err != nil {
			return err
		}
	}
	return nil
}

// assigns reports whether the list assigns the column at pos.
func (l SetList) assigns(pos int) bool {
	for _, it := range l.items {
		if it.pos == pos {
			return true
		}
	}
	return false
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
	if r, ok := pkRangePlan(t, where); ok {
		return db.targetsFromRIDs(t, t.rangeRIDs(&r))
	}
	if si, r, ok := secondaryRangePlan(t, where); ok {
		rids, err := t.rangeSecondary(si, r)
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
	set, err := ResolveSet(s, t.Schema)
	if err != nil {
		return Result{}, err
	}
	// Every after image first, then one batch. A SET that fails on row
	// i leaves rows[:i] written, as the row loop did.
	tsAssigned := set.assigns(t.TSCol)
	afters := make([]catalog.Tuple, 0, len(targets))
	n := t.Schema.NumColumns()
	vals := make([]catalog.Value, n*len(targets)) // every after image's values
	var setErr error
	for i, tg := range targets {
		after := catalog.Tuple(vals[i*n : (i+1)*n : (i+1)*n])
		if err := set.Apply(after, tg.Tuple); err != nil {
			setErr = err
			break
		}
		if t.TSCol >= 0 && !tsAssigned {
			after[t.TSCol] = catalog.NewTime(db.opts.Now())
		}
		afters = append(afters, after)
	}
	if err := tx.updateRows(t, targets[:len(afters)], afters); err != nil {
		return Result{}, err
	}
	if setErr != nil {
		return Result{}, setErr
	}
	if delta := t.newDelta(TrigUpdate, len(targets)); delta != nil {
		for i, tg := range targets {
			delta.add(tg.Tuple, afters[i])
		}
		if err := tx.fireStatementHooks(t, delta); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: int64(len(targets))}, nil
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
	if err := tx.deleteRows(t, targets); err != nil {
		return Result{}, err
	}
	if delta := t.newDelta(TrigDelete, len(targets)); delta != nil {
		for _, tg := range targets {
			delta.add(tg.Tuple, nil)
		}
		if err := tx.fireStatementHooks(t, delta); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: int64(len(targets))}, nil
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
	} else if tx.failed != nil {
		return nil, tx.usable()
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
	if r, ok := pkRangePlan(t, sel.Where); ok {
		if err := tx.lockRangeShared(t.Name, r); err != nil {
			return nil, err
		}
		planRIDs, planned = t.rangeRIDs(&r), true
	} else if si, r, ok := secondaryRangePlan(t, sel.Where); ok {
		if err := tx.lockShared(t.Name); err != nil {
			return nil, err
		}
		rids, err := t.rangeSecondary(si, r)
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

// targetsFromRIDs fetches and decodes the rows behind an index plan,
// reading each run of RIDs on one page in one visit.
func (db *DB) targetsFromRIDs(t *Table, rids []storage.RID) ([]Row, error) {
	out := make([]Row, len(rids))
	var a rowArena
	err := t.heap.GetBatch(rids, func(i int, rec []byte) (err error) {
		out[i], err = a.row(t.Schema, rids[i], rec, len(rids)-i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rowArena carves the rows a plan or scan selects out of shared chunks:
// each row's record copy out of a byte chunk, and its tuple out of a
// value chunk, decoded over that copy so its strings share the copy's
// bytes. A run of rows so costs a few allocations, not one per row and
// per string. The copies are never written, which is what makes the
// sharing safe; the page buffers the records came from are, by later
// writes to their pages.
type rowArena struct {
	recs []byte
	vals []catalog.Value
}

// row copies rec, which aliases a page, and decodes the copy. left is
// the number of rows, this one included, the caller expects still to
// carve, which sizes a fresh chunk.
func (a *rowArena) row(s *catalog.Schema, rid storage.RID, rec []byte, left int) (Row, error) {
	if len(rec) > cap(a.recs)-len(a.recs) {
		// Room for the rest at this record's size, up to a chunk.
		a.recs = make([]byte, 0, max(len(rec), min(recChunk, len(rec)*left)))
	}
	start := len(a.recs)
	a.recs = append(a.recs, rec...)
	own := a.recs[start:len(a.recs):len(a.recs)]
	n := s.NumColumns()
	if n > cap(a.vals)-len(a.vals) {
		a.vals = make([]catalog.Value, 0, n*left)
	}
	tup := catalog.Tuple(a.vals[len(a.vals) : len(a.vals)+n : len(a.vals)+n])
	a.vals = a.vals[:len(a.vals)+n]
	if err := catalog.DecodeTupleShared(s, own, tup); err != nil {
		return Row{}, err
	}
	return Row{Tuple: tup, rid: rid, rec: own}, nil
}

// recChunk is the size of the byte chunks rowArena copies records
// into.
const recChunk = 4096
