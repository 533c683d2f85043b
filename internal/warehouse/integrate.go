package warehouse

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/extract"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
)

// ApplyStats summarizes one integration run.
type ApplyStats struct {
	// Records is the number of deltas or ops consumed.
	Records int
	// Statements is the number of SQL statements executed at the
	// warehouse — the cost driver §4.1 contrasts: one statement per op
	// versus one (or two) per affected row.
	Statements int
	// Txns is the number of warehouse transactions used.
	Txns int
	// Duration is wall-clock integration time (the maintenance window).
	Duration time.Duration
}

// ValueDeltaIntegrator applies value deltas the way §4.1 describes:
// the whole differential is one indivisible batch transaction, and each
// delta record is translated into SQL — inserts into one INSERT, deletes
// into one DELETE (by key, from the before image), updates into one
// DELETE plus one INSERT.
type ValueDeltaIntegrator struct {
	W *Warehouse

	mOnce sync.Once
	m     *applyMetrics
}

func (in *ValueDeltaIntegrator) metrics() *applyMetrics {
	in.mOnce.Do(func() { in.m = newApplyMetrics(in.W.DB.Obs(), "value") })
	return in.m
}

// Apply integrates the differential as a single batch transaction. The
// batch writes most of every table it touches, so its lock footprint —
// whole-table exclusive on each — is pre-declared upfront: concurrent
// readers queue once behind the batch instead of interleaving key-range
// grants with its row statements, which can only untangle through lock
// timeouts.
func (in *ValueDeltaIntegrator) Apply(deltas []extract.Delta) (ApplyStats, error) {
	m := in.metrics()
	start := time.Now()
	stats := ApplyStats{Txns: 1}
	tx := in.W.DB.Begin()
	if err := tx.LockTablesExclusive(in.batchTables(deltas)...); err != nil {
		tx.Abort()
		return stats, err
	}
	for _, d := range deltas {
		n, err := in.applyOne(tx, d)
		stats.Statements += n
		if err != nil {
			tx.Abort()
			return stats, err
		}
		stats.Records++
	}
	if err := tx.Commit(); err != nil {
		return stats, err
	}
	stats.Duration = time.Since(start)
	m.txns.Inc()
	m.records.Add(uint64(stats.Records))
	m.statements.Add(uint64(stats.Statements))
	m.txnSeconds.ObserveDuration(stats.Duration)
	return stats, nil
}

// batchTables collects every warehouse table the batch transaction will
// touch: replicas of the delta tables, dependent select-project and
// join views (join maintenance also probes the partner replica), and
// aggregate views.
func (in *ValueDeltaIntegrator) batchTables(deltas []extract.Delta) []string {
	seen := make(map[string]bool)
	add := func(name string) {
		seen[strings.ToLower(name)] = true
	}
	done := make(map[string]bool)
	for _, d := range deltas {
		if done[strings.ToLower(d.Table)] {
			continue // same source table: contributes nothing new
		}
		done[strings.ToLower(d.Table)] = true
		if in.W.HasReplica(d.Table) {
			add(d.Table)
		}
		for _, v := range in.W.ViewsOn(d.Table) {
			add(v.Def.Name)
			if v.Def.Join != nil {
				add(v.Def.Join.Table)
				add(v.Def.Source)
			}
		}
		for _, av := range in.W.AggViewsOn(d.Table) {
			add(av.Def.Name)
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func (in *ValueDeltaIntegrator) applyOne(tx *engine.Tx, d extract.Delta) (int, error) {
	if in.W.HasReplica(d.Table) {
		return in.applyToReplica(tx, d)
	}
	// View-only deployment: maintain each dependent view directly from
	// the images (value deltas always carry enough state for this).
	views := in.W.ViewsOn(d.Table)
	stmts := 0
	for _, v := range views {
		if v.Def.Join != nil {
			return stmts, fmt.Errorf("warehouse: join view %s requires replicas", v.Def.Name)
		}
		// Each record is a statement delta of one row for the view's plan.
		var err error
		switch d.Kind {
		case extract.KindInsert:
			err = v.sp.Apply(tx, &engine.StatementDelta{Op: engine.TrigInsert, Table: d.Table,
				After: []catalog.Tuple{d.After}})
		case extract.KindDelete:
			err = v.sp.Apply(tx, &engine.StatementDelta{Op: engine.TrigDelete, Table: d.Table,
				Before: []catalog.Tuple{d.Before}})
		case extract.KindUpdate:
			err = v.sp.Apply(tx, &engine.StatementDelta{Op: engine.TrigUpdate, Table: d.Table,
				Before: []catalog.Tuple{d.Before}, After: []catalog.Tuple{d.After}})
		case extract.KindUpsert:
			// Timestamp-method deltas have no before image.
			err = v.sp.upsert(tx, d.After)
		default:
			err = fmt.Errorf("warehouse: cannot apply delta kind %v", d.Kind)
		}
		stmts++
		if err != nil {
			return stmts, err
		}
	}
	return stmts, nil
}

// applyToReplica translates one value delta into SQL statements against
// the replica table. Dependent views follow via the replica's statement
// hooks.
func (in *ValueDeltaIntegrator) applyToReplica(tx *engine.Tx, d extract.Delta) (int, error) {
	t, err := in.W.DB.Table(d.Table)
	if err != nil {
		return 0, err
	}
	sqls, err := DeltaSQL(d, t)
	if err != nil {
		return 0, err
	}
	for i, stmt := range sqls {
		if _, err := in.W.DB.Exec(tx, stmt); err != nil {
			return i, fmt.Errorf("warehouse: applying %q: %w", stmt, err)
		}
	}
	return len(sqls), nil
}

// DeltaSQL renders the SQL statement(s) that integrate one value delta
// into a replica table, exactly as §4.1 describes the translation.
func DeltaSQL(d extract.Delta, t *engine.Table) ([]string, error) {
	if t.PKCol < 0 {
		return nil, fmt.Errorf("warehouse: value-delta integration into %s needs a primary key", t.Name)
	}
	pkName := t.Schema.Column(t.PKCol).Name
	insert := func(img catalog.Tuple) string {
		var b strings.Builder
		b.WriteString("INSERT INTO ")
		b.WriteString(t.Name)
		b.WriteString(" VALUES (")
		for i, v := range img {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.SQLLiteral())
		}
		b.WriteString(")")
		return b.String()
	}
	deleteByPK := func(img catalog.Tuple) string {
		return fmt.Sprintf("DELETE FROM %s WHERE %s = %s", t.Name, pkName, img[t.PKCol].SQLLiteral())
	}
	switch d.Kind {
	case extract.KindInsert:
		if d.After == nil {
			return nil, fmt.Errorf("warehouse: insert delta without after image")
		}
		return []string{insert(d.After)}, nil
	case extract.KindDelete:
		if d.Before == nil {
			return nil, fmt.Errorf("warehouse: delete delta without before image")
		}
		return []string{deleteByPK(d.Before)}, nil
	case extract.KindUpdate:
		if d.Before == nil || d.After == nil {
			return nil, fmt.Errorf("warehouse: update delta missing an image")
		}
		// "each original update transaction ... translated into x SQL
		// delete statements (from before image) and x SQL insert
		// statements (from after image)"
		return []string{deleteByPK(d.Before), insert(d.After)}, nil
	case extract.KindUpsert:
		if d.After == nil {
			return nil, fmt.Errorf("warehouse: upsert delta without after image")
		}
		// The timestamp method cannot tell insert from update: delete
		// any existing row by key, then insert the final image.
		return []string{deleteByPK(d.After), insert(d.After)}, nil
	default:
		return nil, fmt.Errorf("warehouse: unknown delta kind %v", d.Kind)
	}
}

// OpDeltaIntegrator replays Op-Deltas: each op runs as its own
// warehouse transaction (preserving source transaction boundaries), so
// integration interleaves with concurrent OLAP queries instead of
// requiring an outage.
type OpDeltaIntegrator struct {
	W *Warehouse
	// GroupByTxn applies ops of the same source transaction inside one
	// warehouse transaction, reproducing source atomicity exactly.
	// Default false: one transaction per op.
	GroupByTxn bool

	mOnce sync.Once
	m     *applyMetrics
}

func (in *OpDeltaIntegrator) metrics() *applyMetrics {
	in.mOnce.Do(func() { in.m = newApplyMetrics(in.W.DB.Obs(), "op") })
	return in.m
}

// Apply replays the ops in order. Ops carrying a lifecycle trace are
// stamped applied when their statements have run and durable once
// their warehouse transaction commits.
func (in *OpDeltaIntegrator) Apply(ops []*opdelta.Op) (ApplyStats, error) {
	m := in.metrics()
	start := time.Now()
	var stats ApplyStats
	i := 0
	for i < len(ops) {
		// Determine the group [i, j) sharing one warehouse transaction.
		j := i + 1
		if in.GroupByTxn {
			for j < len(ops) && ops[j].Txn == ops[i].Txn {
				j++
			}
		}
		txStart := time.Now()
		tx := in.W.DB.Begin()
		for _, op := range ops[i:j] {
			n, err := in.applyOne(tx, op)
			stats.Statements += n
			if err != nil {
				tx.Abort()
				return stats, fmt.Errorf("warehouse: op %d (%s): %w", op.Seq, op.Stmt, err)
			}
			op.Trace.Applied()
			stats.Records++
		}
		if err := tx.Commit(); err != nil {
			return stats, err
		}
		for _, op := range ops[i:j] {
			op.Trace.Durable()
			op.Trace.Done()
		}
		m.txns.Inc()
		m.txnSeconds.ObserveDuration(time.Since(txStart))
		stats.Txns++
		i = j
	}
	stats.Duration = time.Since(start)
	m.records.Add(uint64(stats.Records))
	m.statements.Add(uint64(stats.Statements))
	return stats, nil
}

func (in *OpDeltaIntegrator) applyOne(tx *engine.Tx, op *opdelta.Op) (int, error) {
	stmts := 0
	stmt, err := op.Statement()
	if err != nil {
		return 0, err
	}
	if in.W.HasReplica(op.Table) {
		// The replica shares the source schema and name: the op applies
		// verbatim; dependent views follow via statement hooks.
		if _, err := in.W.DB.ExecStmt(tx, stmt); err != nil {
			return stmts, err
		}
		stmts++
		return stmts, nil
	}
	// View-only deployment: apply the transformation rules per view.
	for _, v := range in.W.ViewsOn(op.Table) {
		n, err := in.applyToView(tx, v, op, stmt)
		stmts += n
		if err != nil {
			return stmts, err
		}
	}
	return stmts, nil
}

// applyToView refreshes one SP view from an op, using the hybrid before
// images when the analyzer required them at capture time.
func (in *OpDeltaIntegrator) applyToView(tx *engine.Tx, v *View, op *opdelta.Op, stmt sqlmini.Statement) (int, error) {
	if v.Def.Join != nil {
		return 0, fmt.Errorf("warehouse: join view %s requires replicas", v.Def.Name)
	}
	switch v.Def.Classify(stmt) {
	case opdelta.SelfMaintainable:
		return in.applySelfMaintainable(tx, v, op, stmt)
	case opdelta.NeedsBefore:
		if !op.Hybrid {
			return 0, fmt.Errorf("warehouse: op %d needs before images for view %s but carries none "+
				"(capture without an analyzer?)", op.Seq, v.Def.Name)
		}
		return in.applyWithBeforeImages(tx, v, op, stmt)
	default:
		return 0, fmt.Errorf("warehouse: unsupported classification for view %s", v.Def.Name)
	}
}

func (in *OpDeltaIntegrator) applySelfMaintainable(tx *engine.Tx, v *View, op *opdelta.Op, stmt sqlmini.Statement) (int, error) {
	switch s := stmt.(type) {
	case *sqlmini.Insert:
		// Materialize the inserted rows from the statement's literals,
		// then filter and project into the view.
		rows, err := rowsFromInsert(s, v.SrcSchema, v.Def.SourceTS, op.Time)
		if err != nil {
			return 0, err
		}
		err = v.sp.Apply(tx, &engine.StatementDelta{Op: engine.TrigInsert, Table: op.Table, After: rows})
		return len(rows), err
	case *sqlmini.Delete:
		// The predicate references only retained columns: run it
		// directly against the view (rows in the view already satisfy
		// the view selection), with source columns renamed to their
		// warehouse names.
		del := &sqlmini.Delete{Table: v.Def.Name, Where: renameExpr(s.Where, &v.Def)}
		if _, err := in.W.DB.ExecStmt(tx, del); err != nil {
			return 0, err
		}
		return 1, nil
	case *sqlmini.Update:
		upd := &sqlmini.Update{Table: v.Def.Name, Where: renameExpr(s.Where, &v.Def)}
		for _, a := range s.Assigns {
			// Assignments to non-retained columns are no-ops on the view.
			renamed := v.Def.RenameOf(a.Col)
			if _, ok := v.Schema.ColIndex(renamed); ok {
				upd.Assigns = append(upd.Assigns, sqlmini.Assign{
					Col: renamed, Value: renameExpr(a.Value, &v.Def)})
			}
		}
		if len(upd.Assigns) == 0 {
			return 0, nil
		}
		if _, err := in.W.DB.ExecStmt(tx, upd); err != nil {
			return 0, err
		}
		return 1, nil
	default:
		return 0, fmt.Errorf("warehouse: cannot apply %T as op-delta", stmt)
	}
}

// applyWithBeforeImages rebuilds the statement's transition tables from
// the before images the op carries and hands them to the view's plan.
func (in *OpDeltaIntegrator) applyWithBeforeImages(tx *engine.Tx, v *View, op *opdelta.Op, stmt sqlmini.Statement) (int, error) {
	delta := &engine.StatementDelta{Table: op.Table, Before: op.Before}
	switch s := stmt.(type) {
	case *sqlmini.Delete:
		delta.Op = engine.TrigDelete
	case *sqlmini.Update:
		delta.Op = engine.TrigUpdate
		delta.After = make([]catalog.Tuple, len(op.Before))
		for i, before := range op.Before {
			after, err := applyAssigns(s.Assigns, v.SrcSchema, before)
			if err != nil {
				return 0, err
			}
			delta.After[i] = after
		}
	default:
		return 0, fmt.Errorf("warehouse: before-image application undefined for %T", stmt)
	}
	return len(op.Before), v.sp.Apply(tx, delta)
}

// rowsFromInsert evaluates an INSERT statement's literal rows into full
// source tuples (missing columns NULL, the named engine-maintained
// timestamp column stamped with the op's capture time so replays are
// deterministic).
func rowsFromInsert(s *sqlmini.Insert, schema *catalog.Schema, tsCol string, opTime time.Time) ([]catalog.Tuple, error) {
	tsIdx := -1
	if tsCol != "" {
		if i, ok := schema.ColIndex(tsCol); ok {
			tsIdx = i
		}
	}
	empty := catalog.NewSchema()
	var positions []int
	if s.Columns != nil {
		positions = make([]int, len(s.Columns))
		for i, name := range s.Columns {
			idx, ok := schema.ColIndex(name)
			if !ok {
				return nil, fmt.Errorf("warehouse: no column %q", name)
			}
			positions[i] = idx
		}
	}
	out := make([]catalog.Tuple, 0, len(s.Rows))
	for _, row := range s.Rows {
		tup := make(catalog.Tuple, schema.NumColumns())
		for i := range tup {
			tup[i] = catalog.NewNull(schema.Column(i).Type)
		}
		if positions == nil && len(row) != schema.NumColumns() {
			return nil, fmt.Errorf("warehouse: insert arity mismatch")
		}
		for i, e := range row {
			v, err := sqlmini.Eval(e, empty, nil)
			if err != nil {
				return nil, err
			}
			pos := i
			if positions != nil {
				pos = positions[i]
			}
			if !v.IsNull() && v.Type() == catalog.TypeInt64 && schema.Column(pos).Type == catalog.TypeFloat64 {
				v = catalog.NewFloat(float64(v.Int()))
			}
			tup[pos] = v
		}
		if tsIdx >= 0 && tup[tsIdx].IsNull() {
			tup[tsIdx] = catalog.NewTime(opTime)
		}
		out = append(out, tup)
	}
	return out, nil
}

// renameExpr rewrites column references in e from source names to the
// view's warehouse names (the transformation rules). Returns nil for a
// nil expression.
func renameExpr(e sqlmini.Expr, def *opdelta.ViewDef) sqlmini.Expr {
	if e == nil || len(def.Rename) == 0 {
		return e
	}
	switch x := e.(type) {
	case *sqlmini.ColRef:
		return &sqlmini.ColRef{Name: def.RenameOf(x.Name)}
	case *sqlmini.Binary:
		return &sqlmini.Binary{Op: x.Op, L: renameExpr(x.L, def), R: renameExpr(x.R, def)}
	case *sqlmini.IsNull:
		return &sqlmini.IsNull{Expr: renameExpr(x.Expr, def), Negate: x.Negate}
	default:
		return e
	}
}

// applyAssigns computes the after image of one row under an UPDATE's
// SET list.
func applyAssigns(assigns []sqlmini.Assign, schema *catalog.Schema, before catalog.Tuple) (catalog.Tuple, error) {
	after := before.Clone()
	for _, a := range assigns {
		pos, ok := schema.ColIndex(a.Col)
		if !ok {
			return nil, fmt.Errorf("warehouse: no column %q", a.Col)
		}
		v, err := sqlmini.Eval(a.Value, schema, before)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() && v.Type() == catalog.TypeInt64 && schema.Column(pos).Type == catalog.TypeFloat64 {
			v = catalog.NewFloat(float64(v.Int()))
		}
		after[pos] = v
	}
	return after, nil
}
