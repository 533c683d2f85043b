package warehouse

import (
	"fmt"
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
// of consecutive ops sharing Op.Txn — applies whole inside one small
// warehouse transaction, preserving source transaction boundaries, so
// integration interleaves with concurrent OLAP queries instead of
// requiring an outage. Consecutive point-only source transactions of one
// Apply call — every statement names single keys, no table is locked
// whole — share one warehouse transaction, up to runKeys keys (see
// runs): a reader then sees the state after the run, which is still a
// source state. Every other source transaction is one warehouse
// transaction of its own.
//
// The transactions commit in source order: each commits only at its
// turn, once every earlier one has committed. So the warehouse — and
// every snapshot a reader takes of it — always holds a prefix of the
// source's transactions, and the AppliedLog is one high-water seq.
//
// Execution overlaps. Workers take transactions strictly in source
// order from a bounded pool. Each pre-declares its lock plan — exclusive
// key-range locks where its footprint (see keyset.StatementFootprint)
// bounds the keys it touches, whole-table locks for anything the
// analysis widened — once every earlier transaction has taken its own,
// then executes and waits for its turn. A transaction whose plan
// overlaps an earlier one's therefore waits in the lock manager until
// that one commits, and sees its effects; key-disjoint transactions on
// the same table execute concurrently; anything the analysis cannot
// bound locks whole tables — serial order, never wrong answers. Taking
// the plans in source order is what keeps the turn deadlock-free: a
// transaction parked at its turn holds no lock that an earlier one, or
// a reader queued ahead of an earlier one, still waits for. With one
// worker (Workers ≤ 1, the zero value) the same scheduler is serial
// replay. The executor's own per-statement locks are contained in the
// pre-declared set and are granted without waiting.
type ParallelIntegrator struct {
	W *Warehouse
	// Workers bounds the apply pool. Values below 2 run one transaction
	// at a time.
	Workers int
	// TableLocks forces whole-table lock plans (the pre-range-lock
	// behavior): same-table transactions then run one after another. It
	// is not a failure switch: it is the reference key-range locking is
	// measured and checked against — the E9 table-lock rows
	// (internal/bench) and TestParallelApplyEquivalence run both modes —
	// so it stays on the production type.
	TableLocks bool
	// Applied, when set, makes Apply idempotent under at-least-once
	// redelivery: ops at or below its high-water seq are skipped, and
	// each transaction writes its last seq to the log inside its own
	// warehouse transaction at its commit turn — effects and high-water
	// row commit or roll back together.
	Applied *AppliedLog

	// applyMu runs Apply calls one at a time: the high-water seq read at
	// the start of a call must not change under it.
	applyMu sync.Mutex
	mOnce   sync.Once
	m       *applyMetrics
}

func (in *ParallelIntegrator) metrics() *applyMetrics {
	in.mOnce.Do(func() { in.m = newApplyMetrics(in.W.DB.Obs(), "parallel") })
	return in.m
}

// runKeys bounds a run of point-only source transactions at the
// shipper's default DELTA size (netrepl's ShipperConfig.BatchOps): a
// delivered DELTA of single-row ops commits as one run, and a backlog
// the applier drains in one call (up to 256 ops) still commits in
// DELTA-sized runs, so a reader never waits behind more. A run's plan
// locks at most this many keys on any table, unless one source
// transaction alone plans more.
const runKeys = 64

// txnGroup is what one warehouse transaction applies: one source
// transaction's ops, or a run of point-only ones, plus its lock plan.
type txnGroup struct {
	// txns is the number of source transactions the group applies: 1, or
	// the length of a run.
	txns int
	// keys is the most single keys the group's statements lock on one
	// table when every statement locks only single keys and no table
	// whole; 0 when any does not, and the group never joins a run.
	keys int
	ops  []*opdelta.Op
	// stmts[i] is ops[i]'s statement, parsed once by analyze and executed
	// by the apply; nil when it does not parse.
	stmts []sqlmini.Statement
	// universal marks a group with an op that does not parse: it locks
	// every table it may touch whole.
	universal bool
	// The lock plan, pre-declared before any op runs. lockOrder lists
	// every warehouse table the group may touch, lower-cased, in sorted
	// order; plan maps each to what the group locks there: exclusive
	// key ranges (a bounded footprint on a table whose maintenance is
	// keyed by the source PK), or the whole table.
	lockOrder []string
	plan      map[string]keyset.Footprint
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

// analyze parses one group's ops and computes its lock plan.
func (in *ParallelIntegrator) analyze(ops []*opdelta.Op) *txnGroup {
	g := &txnGroup{txns: 1, ops: ops, stmts: make([]sqlmini.Statement, len(ops))}
	// foot maps lower(source table) -> the group's key footprint there.
	foot := make(map[string]keyset.Footprint)
	// mustWhole marks tables whose maintenance is not keyed by the
	// source PK (agg views, join views and partners, PK-dropping views):
	// only a whole-table lock covers the statements run against them.
	// rangeSrc maps the remaining tables to the footprint key that
	// bounds them — the replica is bounded by its own footprint, and a
	// PK-retaining SP view by its source's (view rows are addressed by
	// the projected source PK, so the key values coincide). Every table
	// the group locks is a key of one of the two.
	mustWhole := make(map[string]bool)
	rangeSrc := make(map[string]string)
	// addFoot unions fp into the table's footprint. It appends to the
	// group's own slice rather than calling Footprint.Union, which copies
	// both operands: a 1000-op transaction would copy half a million
	// ranges.
	addFoot := func(table string, fp keyset.Footprint) {
		cur := foot[table]
		if cur.Whole || fp.Whole {
			foot[table] = keyset.WholeTable()
			return
		}
		cur.Ranges = append(cur.Ranges, fp.Ranges...)
		foot[table] = cur
	}
	for i, op := range ops {
		src := strings.ToLower(op.Table)
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
			rangeSrc[src] = src
		}
		for _, v := range in.W.ViewsOn(op.Table) {
			name := strings.ToLower(v.Def.Name)
			switch {
			case v.Def.Join != nil:
				// Join maintenance probes the partner replica: the group
				// effectively reads arbitrary partner rows and patches
				// arbitrary view rows, so widen to whole-table on both
				// sides and lock the partner too.
				fp = keyset.WholeTable()
				mustWhole[name] = true
				partner := v.Def.Join.Table
				if strings.EqualFold(partner, op.Table) {
					partner = v.Def.Source
				}
				mustWhole[strings.ToLower(partner)] = true
			case v.sp.pkInView < 0:
				// A view that drops the source PK has no key to lock
				// ranges of: its plan deletes one stored occurrence per
				// before image, found by scanning under the view's
				// whole-table lock. Key-disjoint transactions commute on
				// the view's content (a multiset), but they queue on that
				// lock anyway, so widen the replica's plan to whole-table
				// too.
				fp = keyset.WholeTable()
				mustWhole[name] = true
			default:
				rangeSrc[name] = src
			}
		}
		for _, av := range in.W.AggViewsOn(op.Table) {
			// Agg view rows are keyed by group-by value, unrelated to the
			// source key set: every group on the source locks the whole
			// view, so they run one after another.
			mustWhole[strings.ToLower(av.Def.Name)] = true
		}
		addFoot(src, fp)
	}
	whole := in.TableLocks || g.universal
	if !whole && len(mustWhole) == 0 {
		// Point-only is read from the statements' own footprints, before
		// consecutive keys are joined into ranges below.
		g.keys = pointKeys(foot)
	}
	if !whole {
		// Each source table's ranges are merged once; the replica and the
		// views it bounds share the result, which the lock manager only
		// reads.
		for src, fp := range foot {
			if !fp.Whole && len(fp.Ranges) > 1 {
				fp.Ranges = keyset.LockRanges(fp.Ranges)
				foot[src] = fp
			}
		}
	}
	g.plan = make(map[string]keyset.Footprint, len(rangeSrc)+len(mustWhole))
	for t, src := range rangeSrc {
		fp := foot[src]
		if whole || fp.Whole || len(fp.Ranges) == 0 {
			fp = keyset.WholeTable()
		}
		g.plan[t] = fp
	}
	for t := range mustWhole {
		g.plan[t] = keyset.WholeTable()
	}
	g.sortLockOrder()
	m := in.metrics()
	if g.universal {
		m.degradedUniversal.Inc()
	} else if !in.TableLocks {
		// Whole-table locks chosen where key ranges were the goal are
		// precision the scheduler gave up; in TableLocks mode they are
		// the configured baseline, not a degradation.
		for _, fp := range g.plan {
			if fp.Whole {
				m.degradedWholeTable.Inc()
			}
		}
	}
	return g
}

// sortLockOrder lists the plan's tables in the canonical lock order.
func (g *txnGroup) sortLockOrder() {
	for t := range g.plan {
		g.lockOrder = append(g.lockOrder, t)
	}
	sort.Strings(g.lockOrder)
}

// pointKeys returns the most ranges one table's footprint holds when
// every footprint is a non-empty list of single-key ranges, and 0 when
// any is whole, empty or holds a range that is not one key.
func pointKeys(foot map[string]keyset.Footprint) int {
	most := 0
	for _, fp := range foot {
		if fp.Whole || len(fp.Ranges) == 0 {
			return 0
		}
		for _, r := range fp.Ranges {
			if !r.HasLo || !r.HasHi || r.LoOpen || r.HiOpen || keyset.TotalCompare(r.Lo, r.Hi) != 0 {
				return 0
			}
		}
		most = max(most, len(fp.Ranges))
	}
	return most
}

// runs groups analyzed source transactions for the scheduler: each
// stretch of consecutive point-only ones joins one run while its keys
// fit in runKeys; every other source transaction is a group alone. A
// run only covers ops already in the call — it never waits for more.
func runs(units []*txnGroup) []*txnGroup {
	groups := make([]*txnGroup, 0, len(units))
	first, keys := 0, 0
	closeRun := func(end int) {
		if end > first {
			groups = append(groups, joinRun(units[first:end]))
		}
		first, keys = end, 0
	}
	for i, g := range units {
		switch {
		case g.keys == 0:
			closeRun(i)
			groups = append(groups, g)
			first = i + 1
		case keys+g.keys > runKeys:
			closeRun(i)
		}
		keys += g.keys
	}
	closeRun(len(units))
	return groups
}

// joinRun makes consecutive point-only source transactions one group:
// their ops and statements concatenated, and their plans' keys unioned
// per table, keyset.LockRanges applied once per table.
func joinRun(units []*txnGroup) *txnGroup {
	if len(units) == 1 {
		return units[0]
	}
	nops := 0
	for _, g := range units {
		nops += len(g.ops)
	}
	r := &txnGroup{txns: len(units), ops: make([]*opdelta.Op, 0, nops),
		stmts: make([]sqlmini.Statement, 0, nops), plan: make(map[string]keyset.Footprint, len(units[0].plan))}
	for _, g := range units {
		r.ops = append(r.ops, g.ops...)
		r.stmts = append(r.stmts, g.stmts...)
		for t, fp := range g.plan {
			cur := r.plan[t]
			cur.Ranges = append(cur.Ranges, fp.Ranges...)
			r.plan[t] = cur
		}
	}
	for t, fp := range r.plan {
		fp.Ranges = keyset.LockRanges(fp.Ranges)
		r.plan[t] = fp
	}
	r.sortLockOrder()
	return r
}

// Apply replays the ops, given in source order (ascending seq). Each
// source transaction commits at its turn, after every earlier one, so a
// reader never sees a transaction without the ones before it. With an
// AppliedLog, the ops at or below its high-water seq are skipped as
// redeliveries. Ops carrying a lifecycle trace are stamped locked,
// applied once their statements have run, and durable once their
// warehouse transaction commits.
//
// The first source transaction that fails ends the call: every earlier
// one commits, it and every later one roll back, and its error is
// returned, so what was applied is still a prefix of the stream. When
// the failure is inside a run, the run rolls back whole and the ops from
// its first one on are applied again one source transaction per
// warehouse transaction, which commits the prefix before the failing
// one and names it — or, when the failure does not repeat, applies them
// all. A run whose Commit fails is not applied again: its effects and
// high-water row may be visible already, and the error is returned as it
// is. Calls on one integrator run one at a time.
func (in *ParallelIntegrator) Apply(ops []*opdelta.Op) (ApplyStats, error) {
	in.applyMu.Lock()
	defer in.applyMu.Unlock()
	start := time.Now()
	m := in.metrics()
	var stats ApplyStats
	if in.Applied != nil {
		high, err := in.Applied.MaxSeq()
		if err != nil {
			return stats, err
		}
		// A redelivered op committed with the row that covers it. Still
		// finish its trace, so freshness tracking sees it resolve.
		for len(ops) > 0 && ops[0].Seq <= high {
			m.skippedDup.Inc()
			ops[0].Trace.Applied()
			ops[0].Trace.Durable()
			ops[0].Trace.Done()
			ops = ops[1:]
		}
	}
	var units []*txnGroup
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j].Txn == ops[i].Txn {
			j++
		}
		units = append(units, in.analyze(ops[i:j]))
		i = j
	}
	groups := runs(units)
	failed, atCommit, err := in.schedule(groups, &stats)
	if err != nil && !atCommit && groups[failed].txns > 1 {
		first := 0
		for _, g := range groups[:failed] {
			first += g.txns
		}
		_, _, err = in.schedule(units[first:], &stats)
	}
	stats.Duration = time.Since(start)
	return stats, err
}

// schedule applies the groups, each as one warehouse transaction, and
// adds what commits to stats. It returns the index of the first group
// that failed and its error (len(groups) and nil when none did); every
// group before it commits, and every later one rolls back. atCommit
// reports that the failure came from the group's Commit: the group may
// then have committed after all — its effects and its high-water row
// visible, only their durability unknown — so it must not be applied
// again. Any earlier failure rolled the group back. A panic in a group
// is raised again on the caller's goroutine once every worker has
// stopped.
func (in *ParallelIntegrator) schedule(groups []*txnGroup, stats *ApplyStats) (failed int, atCommit bool, err error) {
	m := in.metrics()
	n := len(groups)
	if n == 0 {
		return 0, false, nil
	}
	workers := in.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	// mu guards the schedule, the failure, the panic value and stats;
	// cond wakes waiting groups when a group takes its locks, commits or
	// fails. next is the group the next free worker takes; locking is
	// the group whose locks are due — every group before it holds its
	// plan; turn is the group whose commit is due — every group before
	// it has committed; failed is the lowest group that failed (n while
	// none has), err its error and atCommit where it failed. Groups
	// after failed roll back instead of committing.
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	next, locking, turn := 0, 0, 0
	failed = n
	var panicVal any

	// waitFor blocks until ready holds for group j, and reports false
	// when an earlier group has failed instead.
	waitFor := func(j int, ready func() bool) bool {
		mu.Lock()
		defer mu.Unlock()
		for !ready() && j < failed {
			cond.Wait()
		}
		return j < failed
	}

	runGroup := func(j int) (committing bool, err error) {
		g := groups[j]
		var tx *engine.Tx
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
		if !waitFor(j, func() bool { return locking == j }) {
			return false, nil
		}
		txStart := time.Now()
		tx = in.W.DB.Begin()
		// Pre-declare the lock plan in canonical table order, after every
		// earlier group; every lock the executor takes while applying is
		// contained in it.
		for _, name := range g.lockOrder {
			var lerr error
			if fp := g.plan[name]; fp.Whole {
				lerr = tx.LockTablesExclusive(name)
			} else {
				lerr = tx.LockRangesExclusive(name, fp.Ranges)
			}
			if lerr != nil {
				tx.Abort()
				return false, lerr
			}
		}
		mu.Lock()
		locking++
		cond.Broadcast()
		mu.Unlock()
		for _, op := range g.ops {
			op.Trace.Locked()
		}
		stmts := 0
		for i, op := range g.ops {
			c, aerr := in.applyOne(tx, op, g.stmts[i])
			stmts += c
			if aerr != nil {
				tx.Abort()
				return false, fmt.Errorf("warehouse: op %d (%s): %w", op.Seq, op.Stmt, aerr)
			}
			op.Trace.Applied()
		}
		// The turn is held from here until Commit returns.
		if !waitFor(j, func() bool { return turn == j }) {
			tx.Abort()
			return false, nil
		}
		if in.Applied != nil {
			if aerr := in.Applied.advance(tx, g.ops[len(g.ops)-1].Seq); aerr != nil {
				tx.Abort()
				return false, aerr
			}
		}
		committing = true
		if cerr := tx.Commit(); cerr != nil {
			return true, cerr
		}
		for _, op := range g.ops {
			op.Trace.Durable()
			op.Trace.Done()
		}
		m.txns.Add(uint64(g.txns))
		m.commits.Inc()
		m.records.Add(uint64(len(g.ops)))
		m.statements.Add(uint64(stmts))
		m.txnSeconds.ObserveDuration(time.Since(txStart))
		mu.Lock()
		stats.Records += len(g.ops)
		stats.Statements += stmts
		stats.Txns += g.txns
		stats.Commits++
		turn++
		cond.Broadcast()
		mu.Unlock()
		return false, nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				j := next
				if j >= n || j > failed {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				if commitErr, gerr := runGroup(j); gerr != nil {
					mu.Lock()
					if j < failed {
						failed, atCommit, err = j, commitErr, gerr
					}
					cond.Broadcast()
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return failed, atCommit, err
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
			delta.After[i] = make(catalog.Tuple, len(before))
			if err := set.Apply(delta.After[i], before); err != nil {
				return 0, err
			}
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
