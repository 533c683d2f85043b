package warehouse

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/keyset"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
	"opdelta/internal/wal"
)

// equivseeds bounds the randomized serial-vs-parallel equivalence
// sweep. CI runs a larger bound: go test ./internal/warehouse/ -equivseeds 12
var equivseeds = flag.Int("equivseeds", 4, "seeds for the parallel apply equivalence sweep")

// fixedNow pins engine-stamped timestamp columns: serial and parallel
// replays execute statements in different global orders, so a ticking
// clock would make byte comparison fail for reasons that have nothing
// to do with integration correctness.
func fixedNow() time.Time { return time.Date(2000, 3, 1, 0, 0, 0, 0, time.UTC) }

// equivWarehouse builds a warehouse (replica + SP view + aggregate
// view, plus optionally a PK-dropping view) over a fixed clock.
func equivWarehouse(t *testing.T, sync wal.SyncPolicy, withNoPKView bool) *Warehouse {
	t.Helper()
	return equivWarehouseViews(t, sync, withNoPKView, true)
}

// equivWarehouseViews is equivWarehouse with the aggregate view
// optional. Every group on parts locks the aggregate view's whole
// table, so without it key-disjoint groups run side by side.
func equivWarehouseViews(t *testing.T, sync wal.SyncPolicy, withNoPKView, withAgg bool) *Warehouse {
	t.Helper()
	db, err := engine.Open(t.TempDir(), engine.Options{Now: fixedNow, WALSync: sync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	w := New(db)
	schema := partsSchema(t, db)
	if err := w.RegisterReplica("parts", schema, "part_id", "last_modified"); err != nil {
		t.Fatal(err)
	}
	lowQty, err := sqlmini.ParseExpr("qty < 500")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RegisterView(opdelta.ViewDef{
		Name: "v_low", Source: "parts", Project: []string{"part_id", "qty"}, Where: lowQty,
	}, schema, nil); err != nil {
		t.Fatal(err)
	}
	if withNoPKView {
		// v_status drops the PK: full-row-match deletes make its
		// maintenance order-sensitive, so its presence must force the
		// integrator into whole-table conflicts (serial order).
		if _, err := w.RegisterView(opdelta.ViewDef{
			Name: "v_status", Source: "parts", Project: []string{"status"},
		}, schema, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !withAgg {
		return w
	}
	if _, err := w.RegisterAggView(AggViewDef{
		Name: "agg_status", Source: "parts", GroupBy: "status",
		Aggregates: []sqlmini.AggSpec{
			{Fn: sqlmini.AggCount},
			{Fn: sqlmini.AggSum, Col: "qty"},
		},
	}, schema); err != nil {
		t.Fatal(err)
	}
	return w
}

// randomOpWorkload executes a seeded random transaction mix on a fresh
// source with op capture and returns the captured stream.
func randomOpWorkload(t *testing.T, seed int64, txns int) []*opdelta.Op {
	t.Helper()
	src, _, oc, log := sourceWithCapture(t, nil)
	rng := rand.New(rand.NewSource(seed))
	const keys = 400
	live := make(map[int64]bool)
	// Seed rows so updates and deletes have targets.
	tx := src.Begin()
	for k := int64(0); k < 120; k++ {
		stmt := fmt.Sprintf("INSERT INTO parts VALUES (%d, 's%d', %d, NULL)", k, k%7, k*10)
		if _, err := oc.Exec(tx, stmt); err != nil {
			t.Fatal(err)
		}
		live[k] = true
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < txns; i++ {
		tx := src.Begin()
		for s := 0; s < 1+rng.Intn(4); s++ {
			var stmt string
			switch rng.Intn(10) {
			case 0, 1: // insert a fresh key
				k := int64(rng.Intn(keys))
				for live[k] {
					k = (k + 1) % keys
				}
				live[k] = true
				stmt = fmt.Sprintf("INSERT INTO parts (part_id, status, qty) VALUES (%d, 's%d', %d)", k, rng.Intn(7), rng.Intn(1000))
			case 2: // delete a point
				k := int64(rng.Intn(keys))
				delete(live, k)
				stmt = fmt.Sprintf("DELETE FROM parts WHERE part_id = %d", k)
			case 3, 4, 5: // range update (analyzable footprint)
				lo := rng.Intn(keys)
				hi := lo + rng.Intn(25)
				stmt = fmt.Sprintf("UPDATE parts SET status = 's%d', qty = %d WHERE part_id BETWEEN %d AND %d",
					rng.Intn(7), rng.Intn(1000), lo, hi)
			case 6, 7, 8: // point update with computed non-key column
				stmt = fmt.Sprintf("UPDATE parts SET qty = qty + %d WHERE part_id = %d", 1+rng.Intn(9), rng.Intn(keys))
			default: // non-key predicate: degrades to whole-table (serial fallback)
				stmt = fmt.Sprintf("UPDATE parts SET status = 'w%d' WHERE qty = %d", rng.Intn(3), rng.Intn(1000))
			}
			if _, err := oc.Exec(tx, stmt); err != nil {
				t.Fatalf("workload stmt %q: %v", stmt, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ops, err := log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// tableImage renders a table as sorted encoded rows, a physical-layout-
// independent fingerprint of its logical content.
func tableImage(t *testing.T, db *engine.DB, name string) []string {
	t.Helper()
	var rows []string
	err := db.ScanTable(nil, name, func(tup catalog.Tuple) error {
		parts := make([]string, len(tup))
		for i, v := range tup {
			parts[i] = v.SQLLiteral()
		}
		rows = append(rows, strings.Join(parts, "|"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(rows)
	return rows
}

// TestParallelApplyEquivalence is the property test: for seeded random
// workloads, ParallelIntegrator at 4 workers must leave the warehouse —
// base replica and every view — byte-identical to the serial reference
// (refSerialApply). Each seed runs under both lock plans: key-range
// locking (appliers overlap execution) and the whole-table baseline;
// and, on odd seeds, with key-range locking and no aggregate view,
// where single-row source transactions join runs beside multi-statement
// and range ones.
func TestParallelApplyEquivalence(t *testing.T) {
	for seed := int64(1); seed <= int64(*equivseeds); seed++ {
		seed := seed
		// Every other seed adds the PK-dropping view, which forces the
		// whole-table (serial-order) degradation path; the rest exercise
		// genuine reordering.
		withNoPK := seed%2 == 0
		modes := []string{"rangelocks", "tablelocks"}
		if !withNoPK {
			modes = append(modes, "runs")
		}
		for _, mode := range modes {
			tableLocks, withAgg := mode == "tablelocks", mode != "runs"
			t.Run(fmt.Sprintf("seed%d/%s", seed, mode), func(t *testing.T) {
				tables := []string{"parts", "v_low"}
				if withAgg {
					tables = append(tables, "agg_status")
				}
				if withNoPK {
					tables = append(tables, "v_status")
				}
				ops := randomOpWorkload(t, seed, 40)
				ws := equivWarehouseViews(t, wal.SyncFlush, withNoPK, withAgg)
				serStats, err := refSerialApply(ws, ops)
				if err != nil {
					t.Fatalf("serial apply: %v", err)
				}
				wp := equivWarehouseViews(t, wal.SyncFlush, withNoPK, withAgg)
				parStats, err := (&ParallelIntegrator{W: wp, Workers: 4, TableLocks: tableLocks}).Apply(ops)
				if err != nil {
					t.Fatalf("parallel apply: %v", err)
				}
				if serStats.Records != parStats.Records || serStats.Txns != parStats.Txns ||
					serStats.Statements != parStats.Statements {
					t.Fatalf("stats diverged: serial %+v parallel %+v", serStats, parStats)
				}
				if !withAgg && parStats.Commits >= parStats.Txns {
					t.Fatalf("no run formed: %d source transactions in %d commits", parStats.Txns, parStats.Commits)
				}
				for _, name := range tables {
					a, b := tableImage(t, ws.DB, name), tableImage(t, wp.DB, name)
					if len(a) != len(b) {
						t.Fatalf("%s: row count %d (serial) vs %d (parallel)", name, len(a), len(b))
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("%s row %d differs:\n serial   %s\n parallel %s", name, i, a[i], b[i])
						}
					}
				}
			})
		}
	}
}

// TestUnparseableOpFailsItsGroup: analyze parses each op once and the
// apply executes that parse. An op that does not parse makes its group
// lock every table it may touch whole — its footprint cannot be bounded
// — and applying it fails with the parser's error: every earlier group
// commits, and no later one does.
func TestUnparseableOpFailsItsGroup(t *testing.T) {
	w := equivWarehouse(t, wal.SyncFlush, false)
	ops := []*opdelta.Op{
		{Seq: 1, Txn: 1, Kind: opdelta.OpInsert, Table: "parts", Stmt: "INSERT INTO parts (part_id, status, qty) VALUES (1, 's1', 10)"},
		{Seq: 2, Txn: 2, Kind: opdelta.OpInsert, Table: "parts", Stmt: "INSERT INTO parts (part_id, status, qty) VALUES (2, 's2', 20)"},
		{Seq: 3, Txn: 2, Kind: opdelta.OpUpdate, Table: "parts", Stmt: "UPDATE parts SET qty = WHERE part_id = 2"},
		{Seq: 4, Txn: 3, Kind: opdelta.OpInsert, Table: "parts", Stmt: "INSERT INTO parts (part_id, status, qty) VALUES (3, 's3', 30)"},
	}
	_, parseErr := ops[2].Statement()
	if parseErr == nil {
		t.Fatal("the broken statement parses")
	}
	in := &ParallelIntegrator{W: w, Workers: 4}
	if g := in.analyze(ops[1:3]); !g.universal || g.stmts[0] == nil || g.stmts[1] != nil {
		t.Fatalf("group analysis: universal=%v parsed=%v", g.universal, g.stmts)
	}
	stats, err := in.Apply(ops)
	if err == nil || !strings.Contains(err.Error(), parseErr.Error()) {
		t.Fatalf("err = %v, want the parse error %q", err, parseErr)
	}
	if stats.Txns != 1 {
		t.Fatalf("committed %d groups, want only the one before the broken op", stats.Txns)
	}
	if rows := tableImage(t, w.DB, "parts"); len(rows) != 1 || !strings.HasPrefix(rows[0], "1|") {
		t.Fatalf("replica = %v, want only part 1", rows)
	}
}

// TestOneWorkerReplaysInSourceOrder: workers take groups strictly in
// source order, so one worker is serial replay — not merely an order the
// locks allow. Group 2 is independent of groups 0 and 1, yet still runs
// last. The second and third statements name a two-key range (the
// keys 0 and 3 are absent), so no two of the three join one run.
func TestOneWorkerReplaysInSourceOrder(t *testing.T) {
	w := equivWarehouse(t, wal.SyncFlush, false)
	if _, err := w.DB.Exec(nil, "INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 0), (2, 'a', 0)"); err != nil {
		t.Fatal(err)
	}
	var order []int64
	if err := w.DB.CreateStatementHook("parts", engine.StatementHook{Name: "order",
		Fn: func(_ *engine.Tx, d *engine.StatementDelta) error {
			order = append(order, d.After[0][2].Int())
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	ops := []*opdelta.Op{
		{Seq: 1, Txn: 1, Kind: opdelta.OpUpdate, Table: "parts", Stmt: "UPDATE parts SET qty = 1 WHERE part_id = 1"},
		{Seq: 2, Txn: 2, Kind: opdelta.OpUpdate, Table: "parts", Stmt: "UPDATE parts SET qty = 2 WHERE part_id BETWEEN 0 AND 1"},
		{Seq: 3, Txn: 3, Kind: opdelta.OpUpdate, Table: "parts", Stmt: "UPDATE parts SET qty = 3 WHERE part_id BETWEEN 2 AND 3"},
	}
	if _, err := (&ParallelIntegrator{W: w}).Apply(ops); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("one worker applied the source transactions in order %v, want [1 2 3]", order)
	}
}

// TestLockPlanJoinsConsecutiveIntegerKeys: a transaction of single-row
// INSERTs with consecutive BIGINT keys pre-declares one range per run
// of keys, not one point per row, and its statements' own locks are
// still contained in the plan (the apply takes no table lock). Only
// closed, integer-typed bounds one apart are joined.
func TestLockPlanJoinsConsecutiveIntegerKeys(t *testing.T) {
	w := equivWarehouse(t, wal.SyncFlush, false)
	var ops []*opdelta.Op
	for i, key := range append(seqKeys(100, 600), seqKeys(700, 800)...) {
		ops = append(ops, &opdelta.Op{Seq: uint64(i + 1), Txn: 1, Kind: opdelta.OpInsert, Table: "parts",
			Stmt: fmt.Sprintf("INSERT INTO parts (part_id, status, qty) VALUES (%d, 's', 1)", key)})
	}
	in := &ParallelIntegrator{W: w}
	g := in.analyze(ops)
	if got := fmt.Sprint(g.plan["parts"].Ranges); got != "[[100, 599] [700, 799]]" {
		t.Fatalf("lock plan for parts = %s, want [[100, 599] [700, 799]]", got)
	}
	before := w.DB.LockTableStats()["parts"]
	if _, err := in.Apply(ops); err != nil {
		t.Fatal(err)
	}
	after := w.DB.LockTableStats()["parts"]
	if n := after.RangeAcquires - before.RangeAcquires; n != 2 {
		t.Fatalf("apply granted %d range locks on parts, want the 2 pre-declared", n)
	}
	if n := after.Escalations - before.Escalations; n != 0 {
		t.Fatalf("apply escalated %d times", n)
	}

	ip := func(v int64) keyset.KeyRange { return keyset.Point(catalog.NewInt(v)) }
	fp := func(v float64) keyset.KeyRange { return keyset.Point(catalog.NewFloat(v)) }
	for _, c := range []struct {
		in   []keyset.KeyRange
		want string
	}{
		{[]keyset.KeyRange{ip(3), ip(1), ip(2), ip(5)}, "[[1, 3] [5, 5]]"},
		{[]keyset.KeyRange{fp(1), fp(2)}, "[[1, 1] [2, 2]]"},
		{[]keyset.KeyRange{{Lo: catalog.NewInt(0), HasLo: true, Hi: catalog.NewInt(2), HasHi: true, HiOpen: true}, ip(3)},
			"[[0, 2) [3, 3]]"},
		{[]keyset.KeyRange{ip(math.MaxInt64 - 1), ip(math.MaxInt64), ip(math.MinInt64)},
			fmt.Sprintf("[[%d, %d] [%d, %d]]", int64(math.MinInt64), int64(math.MinInt64), int64(math.MaxInt64-1), int64(math.MaxInt64))},
	} {
		if got := fmt.Sprint(keyset.LockRanges(c.in)); got != c.want {
			t.Errorf("LockRanges(%v) = %s, want %s", c.in, got, c.want)
		}
	}
}

// seqKeys returns the keys lo..hi-1.
func seqKeys(lo, hi int64) []int64 {
	var ks []int64
	for k := lo; k < hi; k++ {
		ks = append(ks, k)
	}
	return ks
}

// TestParallelApplyOrderedConflicts pins the ordering guarantee
// directly: many transactions rewriting the same key must land in
// source commit order even with maximal worker counts. Each rewrite
// names a two-key range (key 2 is absent), so every transaction is its
// own warehouse transaction rather than a member of one run.
func TestParallelApplyOrderedConflicts(t *testing.T) {
	src, _, oc, log := sourceWithCapture(t, nil)
	tx := src.Begin()
	if _, err := oc.Exec(tx, "INSERT INTO parts VALUES (1, 'v0', 0, NULL)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	const chain = 30
	for i := 1; i <= chain; i++ {
		tx := src.Begin()
		if _, err := oc.Exec(tx, fmt.Sprintf("UPDATE parts SET status = 'v%d', qty = %d WHERE part_id BETWEEN 1 AND 2", i, i)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	ops, err := log.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	w := equivWarehouse(t, wal.SyncFlush, false)
	if _, err := (&ParallelIntegrator{W: w, Workers: 8}).Apply(ops); err != nil {
		t.Fatal(err)
	}
	_, rows, err := w.DB.Query(nil, "SELECT status, qty FROM parts WHERE part_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Str() != fmt.Sprintf("v%d", chain) {
		t.Fatalf("conflicting chain applied out of order: %v", rows)
	}
}

// TestLockedReaderBesideTheCommitTurn: a locked reader that queues for
// the whole replica while source transactions are in flight must not
// deadlock with the commit turn. Transaction A (key 1) is held in its
// statement, B rewrites key 1 and so waits for A, and C writes key 2;
// the reader asks for a shared lock on all of parts. Were C to take its
// locks before B, it would hold them parked at its turn behind B, B's
// request would queue behind the reader's (the lock manager grants in
// order), and the reader would wait for C: a cycle through the turn,
// which the deadlock probe cannot see and only a lock timeout breaks.
// Groups take their lock plans in source order, so C locks after B.
// B names a two-key range (key 0 is absent), so A, B and C stay three
// warehouse transactions instead of one run.
func TestLockedReaderBesideTheCommitTurn(t *testing.T) {
	db, err := engine.Open(t.TempDir(), engine.Options{Now: fixedNow, LockTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(nil, partsDDL); err != nil {
		t.Fatal(err)
	}
	w := New(db)
	if err := w.RegisterReplica("parts", partsSchema(t, db), "part_id", "last_modified"); err != nil {
		t.Fatal(err)
	}
	held, release, ranC := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var holdA, markC sync.Once
	if err := db.CreateStatementHook("parts", engine.StatementHook{Name: "hold",
		Fn: func(_ *engine.Tx, d *engine.StatementDelta) error {
			switch row := d.After[0]; {
			case row[0].Int() == 1 && row[2].Int() == 1:
				holdA.Do(func() { close(held); <-release })
			case row[0].Int() == 2:
				markC.Do(func() { close(ranC) })
			}
			return nil
		}}); err != nil {
		t.Fatal(err)
	}
	ops := []*opdelta.Op{
		{Seq: 1, Txn: 1, Kind: opdelta.OpInsert, Table: "parts", Stmt: "INSERT INTO parts (part_id, status, qty) VALUES (1, 'a', 1)"},
		{Seq: 2, Txn: 2, Kind: opdelta.OpUpdate, Table: "parts", Stmt: "UPDATE parts SET qty = 2 WHERE part_id BETWEEN 0 AND 1"},
		{Seq: 3, Txn: 3, Kind: opdelta.OpInsert, Table: "parts", Stmt: "INSERT INTO parts (part_id, status, qty) VALUES (2, 'c', 3)"},
	}
	applied := make(chan error, 1)
	go func() {
		_, err := (&ParallelIntegrator{W: w, Workers: 3}).Apply(ops)
		applied <- err
	}()
	var unblock sync.Once
	defer unblock.Do(func() { close(release) })
	<-held
	// Give C the chance to run ahead, were it allowed to.
	select {
	case <-ranC:
	case <-time.After(200 * time.Millisecond):
	}
	readerWaits := func() uint64 { ls := db.LockTableStats()["parts"]; return ls.Waits - ls.WriteWaits }
	read := make(chan error, 1)
	go func() {
		_, _, err := db.Query(nil, "SELECT * FROM parts")
		read <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); readerWaits() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader never queued for parts")
		}
	}
	unblock.Do(func() { close(release) })
	if err := <-applied; err != nil {
		t.Fatalf("apply beside a queued reader: %v", err)
	}
	if err := <-read; err != nil {
		t.Fatalf("reader beside the apply: %v", err)
	}
	if got := fmt.Sprint(tableImage(t, db, "parts")); !strings.Contains(got, "1|'a'|2") || !strings.Contains(got, "2|'c'|3") {
		t.Fatalf("parts = %s", got)
	}
}

// TestSharedViewLockOrdersDisjointGroups: two source transactions on
// different keys share no range of parts. With the aggregate view both
// also lock its whole table, so the second may not run its statement
// until the first has committed; without the view they run side by
// side. The first is held in its statement until the second has run, or
// for 300 ms. Each updates a row inserted beforehand through a two-key
// range (keys 0 and 3 are absent): a range statement, so the two never
// join one run.
func TestSharedViewLockOrdersDisjointGroups(t *testing.T) {
	ops := []*opdelta.Op{
		{Seq: 1, Txn: 1, Kind: opdelta.OpUpdate, Table: "parts", Stmt: "UPDATE parts SET qty = 11 WHERE part_id BETWEEN 0 AND 1"},
		{Seq: 2, Txn: 2, Kind: opdelta.OpUpdate, Table: "parts", Stmt: "UPDATE parts SET qty = 21 WHERE part_id BETWEEN 2 AND 3"},
	}
	for _, withAgg := range []bool{false, true} {
		w := equivWarehouseViews(t, wal.SyncFlush, false, withAgg)
		if _, err := w.DB.Exec(nil, "INSERT INTO parts (part_id, status, qty) VALUES (1, 's1', 10), (2, 's2', 20)"); err != nil {
			t.Fatal(err)
		}
		in := &ParallelIntegrator{W: w, Workers: 2}
		if a, b := in.analyze(ops[:1]).plan["parts"], in.analyze(ops[1:]).plan["parts"]; a.Whole || b.Whole || a.Overlaps(b) {
			t.Fatalf("parts lock plans %v and %v, want disjoint key ranges", a, b)
		}
		ranSecond := make(chan struct{})
		overlapped := false
		if err := w.DB.CreateStatementHook("parts", engine.StatementHook{Name: "probe",
			Fn: func(_ *engine.Tx, d *engine.StatementDelta) error {
				switch d.After[0][0].Int() {
				case 1:
					select {
					case <-ranSecond:
						overlapped = true
					case <-time.After(300 * time.Millisecond):
					}
				case 2:
					close(ranSecond)
				}
				return nil
			}}); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if overlapped == withAgg {
			t.Fatalf("aggregate view %v: the two transactions ran side by side = %v", withAgg, overlapped)
		}
	}
}
