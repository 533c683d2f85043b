package warehouse

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/keyset"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
)

// ParallelIntegrator replays Op-Deltas. Each source transaction — a run
// of consecutive ops sharing Op.Txn — applies as one small warehouse
// transaction, preserving source transaction boundaries, so integration
// interleaves with concurrent OLAP queries instead of requiring an
// outage. A caller that wants one warehouse transaction per op gives
// each op its own Txn.
//
// Independent source transactions are dispatched onto a bounded worker
// pool. Two transactions are independent when their key footprints (see
// keyset.StatementFootprint) are disjoint on every table; conflicting
// transactions are ordered by a dependency DAG so they retain source
// commit order, and anything the analysis cannot bound falls back to
// conflicting with everything — serial order, never wrong answers.
// Workers take ready transactions lowest source position first, so with
// one worker (Workers ≤ 1, the zero value) the same scheduler is serial
// replay in source commit order.
//
// Key-disjoint groups on the same table overlap end to end: each group
// pre-declares its computed footprint as exclusive key-range locks
// (plus whole-table locks for anything the analysis widened), so two
// workers writing different key ranges of one replica execute
// concurrently, not just pipeline their commits. The executor's own
// per-statement locks are contained in the pre-declared set and are
// granted without waiting, which keeps the schedule deadlock-free:
// groups block only during pre-declaration, where tables are taken in
// sorted name order and ranges in sorted bound order. On top of that,
// the WAL still group-commits the cohort's fsyncs.
type ParallelIntegrator struct {
	W *Warehouse
	// Workers bounds the apply pool. Values below 2 run one transaction
	// at a time, in source commit order.
	Workers int
	// TableLocks forces whole-table lock plans (the pre-range-lock
	// behavior): workers still pipeline commits, but same-table groups
	// serialize their apply phases. It is not a failure switch: it is the
	// reference key-range locking is measured and checked against — the
	// E9 table-lock rows (internal/bench) and TestParallelApplyEquivalence
	// run both modes — so it stays on the production type.
	TableLocks bool
	// Applied, when set, makes Apply idempotent under at-least-once
	// redelivery: ops recorded in the AppliedLog are skipped, and each
	// group's survivors are recorded inside the group's own warehouse
	// transaction — effects and dedup row commit or roll back together.
	// The dedup rows take point range locks pre-declared with the rest
	// of the plan, so the deadlock-freedom argument is unchanged.
	Applied *AppliedLog

	mOnce sync.Once
	m     *applyMetrics
}

func (in *ParallelIntegrator) metrics() *applyMetrics {
	in.mOnce.Do(func() { in.m = newApplyMetrics(in.W.DB.Obs(), "parallel") })
	return in.m
}

// txnGroup is one source transaction's ops plus its conflict metadata.
type txnGroup struct {
	ops []*opdelta.Op
	// stmts[i] is ops[i]'s statement, parsed once by analyze and executed
	// by the apply; nil when it does not parse.
	stmts []sqlmini.Statement
	// foot maps lower(source table) -> key footprint on that table.
	foot map[string]keyset.Footprint
	// universal marks the serial fallback: the group conflicts with
	// every other group (unparseable op or undeterminable key set).
	universal bool
	// The lock plan, pre-declared before any op runs. lockOrder lists
	// every warehouse table the group may touch in canonical sorted
	// order; ranged maps the subset lockable as exclusive key ranges
	// (bounded footprints on tables whose maintenance is keyed by the
	// source PK) to their merged ranges, and the rest take whole-table
	// exclusive locks.
	lockOrder []string
	ranged    map[string][]keyset.KeyRange
}

// conflictKey resolves the schema and primary-key column used for
// footprint analysis of ops on a source table: the replica's PK when
// one exists, else any registered view's declared SourcePK.
func (w *Warehouse) conflictKey(table string) (*catalog.Schema, string) {
	if t, err := w.DB.Table(table); err == nil {
		if t.PKCol >= 0 {
			return t.Schema, t.Schema.Column(t.PKCol).Name
		}
		return t.Schema, ""
	}
	for _, v := range w.ViewsOn(table) {
		if v.Def.SourcePK != "" {
			return v.SrcSchema, v.Def.SourcePK
		}
	}
	return nil, ""
}

// analyze parses one group's ops and computes its footprints and lock
// plan.
func (in *ParallelIntegrator) analyze(ops []*opdelta.Op) *txnGroup {
	g := &txnGroup{ops: ops, stmts: make([]sqlmini.Statement, len(ops)), foot: make(map[string]keyset.Footprint)}
	lockSet := make(map[string]bool)
	// mustWhole marks tables whose maintenance is not keyed by the
	// source PK (agg views, join views and partners, PK-dropping views):
	// only a whole-table lock covers the statements run against them.
	// rangeSrc maps the remaining tables to the footprint key that
	// bounds them — the replica is bounded by its own footprint, and a
	// PK-retaining SP view by its source's (view rows are addressed by
	// the projected source PK, so the key values coincide).
	mustWhole := make(map[string]bool)
	rangeSrc := make(map[string]string)
	// addFoot unions fp into the table's footprint. It appends to the
	// group's own slice rather than calling Footprint.Union, which copies
	// both operands: a 1000-op transaction would copy half a million
	// ranges.
	addFoot := func(table string, fp keyset.Footprint) {
		key := strings.ToLower(table)
		cur := g.foot[key]
		if cur.Whole || fp.Whole {
			g.foot[key] = keyset.WholeTable()
			return
		}
		cur.Ranges = append(cur.Ranges, fp.Ranges...)
		g.foot[key] = cur
	}
	for i, op := range ops {
		schema, pk := in.W.conflictKey(op.Table)
		fp := keyset.WholeTable()
		stmt, err := op.Statement()
		if err != nil {
			g.universal = true
		} else {
			g.stmts[i] = stmt
			fp = keyset.StatementFootprint(stmt, schema, pk)
		}
		if in.W.HasReplica(op.Table) {
			lockSet[op.Table] = true
			rangeSrc[op.Table] = strings.ToLower(op.Table)
		}
		for _, v := range in.W.ViewsOn(op.Table) {
			lockSet[v.Def.Name] = true
			switch {
			case v.Def.Join != nil:
				// Join maintenance probes the partner replica: the group
				// effectively reads arbitrary partner rows and patches
				// arbitrary view rows, so widen to whole-table on both
				// sides and lock the partner too.
				fp = keyset.WholeTable()
				mustWhole[v.Def.Name] = true
				partner := v.Def.Join.Table
				if strings.EqualFold(partner, op.Table) {
					partner = v.Def.Source
				}
				addFoot(partner, keyset.WholeTable())
				lockSet[partner] = true
				mustWhole[partner] = true
			case v.sp.pkInView < 0:
				// A view that drops the source PK has no key to lock
				// ranges of: its plan deletes one stored occurrence per
				// before image, found by scanning under the view's
				// whole-table lock. Key-disjoint transactions commute on
				// the view's content (a multiset), but they would queue
				// on that lock anyway, so widen to whole-table and let
				// the DAG run them in source order, one worker at a time,
				// instead of parking workers on the lock.
				fp = keyset.WholeTable()
				mustWhole[v.Def.Name] = true
			default:
				rangeSrc[v.Def.Name] = strings.ToLower(op.Table)
			}
		}
		for _, av := range in.W.AggViewsOn(op.Table) {
			// Agg view rows are keyed by group-by value, unrelated to the
			// source key set; concurrent groups serialize on the view's
			// table lock exactly as they did before range locking.
			lockSet[av.Def.Name] = true
			mustWhole[av.Def.Name] = true
		}
		addFoot(op.Table, fp)
	}
	g.ranged = make(map[string][]keyset.KeyRange)
	for t := range lockSet {
		g.lockOrder = append(g.lockOrder, t)
		if in.TableLocks || g.universal || mustWhole[t] {
			continue
		}
		src, ok := rangeSrc[t]
		if !ok {
			continue
		}
		fp := g.foot[src]
		if fp.Whole || len(fp.Ranges) == 0 {
			continue
		}
		g.ranged[t] = keyset.LockRanges(fp.Ranges)
	}
	if in.Applied != nil {
		// The group's dedup rows are part of its write set: lock their
		// points alongside the data plan (whole-table when the group
		// already degraded to that).
		g.lockOrder = append(g.lockOrder, AppliedLogName)
		if !in.TableLocks && !g.universal {
			g.ranged[AppliedLogName] = in.Applied.ranges(ops)
		}
	}
	sort.Strings(g.lockOrder)
	m := in.metrics()
	if g.universal {
		m.degradedUniversal.Inc()
	} else if !in.TableLocks {
		// Whole-table locks chosen where key ranges were the goal are
		// precision the scheduler gave up; in TableLocks mode they are
		// the configured baseline, not a degradation.
		for _, t := range g.lockOrder {
			if _, ok := g.ranged[t]; !ok {
				m.degradedWholeTable.Inc()
			}
		}
	}
	return g
}

// Apply replays the ops, preserving source commit order between
// conflicting transactions. Ops carrying a lifecycle trace are stamped
// locked, applied once their statements have run, and durable once
// their warehouse transaction commits. On the first error the remaining
// groups are abandoned; already-committed groups stay committed.
func (in *ParallelIntegrator) Apply(ops []*opdelta.Op) (ApplyStats, error) {
	start := time.Now()
	var groups []*txnGroup
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j].Txn == ops[i].Txn {
			j++
		}
		groups = append(groups, in.analyze(ops[i:j]))
		i = j
	}
	n := len(groups)
	var stats ApplyStats
	if n == 0 {
		stats.Duration = time.Since(start)
		return stats, nil
	}

	// Dependency DAG: group j waits for every earlier conflicting group.
	indeg, rdeps := dependencyDAG(groups)

	workers := in.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	// mu guards the schedule (ready, indeg, completed), the first error
	// and panic, and stats; cond wakes workers when a group becomes
	// ready or the schedule ends. ready holds, ascending, the groups
	// whose predecessors have all committed.
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	var firstErr error
	var panicVal any
	completed := 0
	var ready []int
	for idx := 0; idx < n; idx++ {
		if indeg[idx] == 0 {
			ready = append(ready, idx)
		}
	}

	m := in.metrics()
	runGroup := func(g *txnGroup) (err error) {
		var tx *engine.Tx
		committing := false
		defer func() {
			if r := recover(); r == nil {
				return
			} else {
				// Release the group's locks so peers fail fast instead of
				// timing out, then surface the panic value to the caller's
				// goroutine (the fault harness catches crash panics there).
				if tx != nil && !committing {
					func() { defer func() { recover() }(); tx.Abort() }()
				}
				mu.Lock()
				if panicVal == nil {
					panicVal = r
				}
				mu.Unlock()
				err = fmt.Errorf("warehouse: parallel apply panic: %v", r)
			}
		}()
		txStart := time.Now()
		tx = in.W.DB.Begin()
		// Pre-declare the lock plan in canonical table order; every lock
		// the executor takes while applying is contained in it.
		for _, name := range g.lockOrder {
			var lerr error
			if rs, ok := g.ranged[name]; ok {
				lerr = tx.LockRangesExclusive(name, rs)
			} else {
				lerr = tx.LockTablesExclusive(name)
			}
			if lerr != nil {
				tx.Abort()
				return lerr
			}
		}
		for _, op := range g.ops {
			op.Trace.Locked()
		}
		// Under at-least-once delivery a replayed op arrives with its
		// dedup row already committed; skip it (but still finish its
		// trace, so freshness tracking sees the redelivery resolve). The
		// survivors are recorded with the group.
		var live []*opdelta.Op
		recs, stmts := 0, 0
		for i, op := range g.ops {
			if in.Applied != nil {
				seen, serr := in.Applied.Seen(tx, op.Seq)
				if serr != nil {
					tx.Abort()
					return serr
				}
				if seen {
					m.skippedDup.Inc()
					op.Trace.Applied()
					continue
				}
				live = append(live, op)
			}
			c, aerr := in.applyOne(tx, op, g.stmts[i])
			stmts += c
			if aerr != nil {
				tx.Abort()
				return fmt.Errorf("warehouse: op %d (%s): %w", op.Seq, op.Stmt, aerr)
			}
			op.Trace.Applied()
			recs++
		}
		if in.Applied != nil {
			if rerr := in.Applied.Record(tx, live); rerr != nil {
				tx.Abort()
				return rerr
			}
		}
		committing = true
		if cerr := tx.Commit(); cerr != nil {
			return cerr
		}
		for _, op := range g.ops {
			op.Trace.Durable()
			op.Trace.Done()
		}
		m.txns.Inc()
		m.records.Add(uint64(recs))
		m.statements.Add(uint64(stmts))
		m.txnSeconds.ObserveDuration(time.Since(txStart))
		mu.Lock()
		stats.Records += recs
		stats.Statements += stmts
		stats.Txns++
		mu.Unlock()
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for {
				for len(ready) == 0 && completed < n && firstErr == nil {
					cond.Wait()
				}
				if len(ready) == 0 || firstErr != nil {
					return
				}
				idx := ready[0]
				ready = ready[1:]
				mu.Unlock()
				err := runGroup(groups[idx])
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					cond.Broadcast()
					return
				}
				completed++
				if completed == n {
					cond.Broadcast()
				}
				for _, d := range rdeps[idx] {
					indeg[d]--
					if indeg[d] == 0 {
						i, _ := slices.BinarySearch(ready, d)
						ready = slices.Insert(ready, i, d)
						cond.Signal()
					}
				}
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	stats.Duration = time.Since(start)
	return stats, firstErr
}

// applyOne runs one op inside the group's transaction. stmt is the op's
// statement as analyze parsed it; nil means it does not parse, and the
// op fails with the parse error.
func (in *ParallelIntegrator) applyOne(tx *engine.Tx, op *opdelta.Op, stmt sqlmini.Statement) (int, error) {
	if stmt == nil {
		_, err := op.Statement()
		return 0, err
	}
	if in.W.HasReplica(op.Table) {
		// The replica shares the source schema and name: the op applies
		// verbatim; dependent views follow via statement hooks.
		if _, err := in.W.DB.ExecStmt(tx, stmt); err != nil {
			return 0, err
		}
		return 1, nil
	}
	// View-only deployment: apply the transformation rules per view.
	stmts := 0
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
func (in *ParallelIntegrator) applyToView(tx *engine.Tx, v *View, op *opdelta.Op, stmt sqlmini.Statement) (int, error) {
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

func (in *ParallelIntegrator) applySelfMaintainable(tx *engine.Tx, v *View, op *opdelta.Op, stmt sqlmini.Statement) (int, error) {
	switch s := stmt.(type) {
	case *sqlmini.Insert:
		// Materialize the inserted rows from the statement's literals,
		// then filter and project into the view.
		rows, err := engine.InsertRows(s, v.SrcSchema)
		if err != nil {
			return 0, err
		}
		// The engine-maintained timestamp column takes the op's capture
		// time, so replays are deterministic.
		if i, ok := v.SrcSchema.ColIndex(v.Def.SourceTS); ok {
			for _, row := range rows {
				if row[i].IsNull() {
					row[i] = catalog.NewTime(op.Time)
				}
			}
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
func (in *ParallelIntegrator) applyWithBeforeImages(tx *engine.Tx, v *View, op *opdelta.Op, stmt sqlmini.Statement) (int, error) {
	delta := &engine.StatementDelta{Table: op.Table, Before: op.Before}
	switch s := stmt.(type) {
	case *sqlmini.Delete:
		delta.Op = engine.TrigDelete
	case *sqlmini.Update:
		delta.Op = engine.TrigUpdate
		set, err := engine.ResolveSet(s, v.SrcSchema)
		if err != nil {
			return 0, err
		}
		delta.After = make([]catalog.Tuple, len(op.Before))
		for i, before := range op.Before {
			after, err := set.Apply(before)
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
