package bench

import (
	"fmt"
	"testing"

	"opdelta/internal/engine"
	"opdelta/internal/extract"
	"opdelta/internal/warehouse"
)

// Shape tests assert the qualitative findings of each paper artifact at
// a small scale: who wins, what grows, where the large ratios are.
// Absolute numbers are not compared (different hardware era); see
// EXPERIMENTS.md for the side-by-side. Where a finding is a wall-clock
// ratio that a loaded machine can push past any fixed limit, the test
// logs the timing and asserts the count behind it — statements
// executed, WAL records written — which repeats exactly.

// walRecords returns the WAL records db appended while fn ran.
func walRecords(t *testing.T, db *engine.DB, fn func() error) uint64 {
	t.Helper()
	before := db.WAL().Stats().Appended
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return db.WAL().Stats().Appended - before
}

// smallCfg keeps shape tests fast.
func smallCfg(t *testing.T) Config {
	t.Helper()
	return Config{
		WorkDir:   t.TempDir(),
		TableRows: 20_000,
		DeltaRows: []int{5_000, 10_000, 20_000},
		TxnSizes:  []int{10, 100, 1000},
		Repeats:   3,
	}
}

func TestShapeTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := RunTable1(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	big := res.ColHeads[len(res.ColHeads)-1]
	// Import is the most expensive technique (the paper's dominant
	// observation) and Export the cheapest; asserted at the largest
	// size where the gap is not noise-dominated.
	if res.Get("Import", big) <= res.Get("DBMS Loader", big) {
		t.Errorf("at %s: Import (%.3fs) should exceed Loader (%.3fs)",
			big, res.Get("Import", big), res.Get("DBMS Loader", big))
	}
	for _, col := range res.ColHeads {
		if res.Get("Export", col) >= res.Get("Import", col) {
			t.Errorf("at %s: Export should be cheaper than Import", col)
		}
	}
	// Costs grow with delta size.
	small := res.ColHeads[0]
	for _, row := range res.RowHeads {
		if res.Get(row, big) <= res.Get(row, small) {
			t.Errorf("%s does not grow with size: %.3fs -> %.3fs", row, res.Get(row, small), res.Get(row, big))
		}
	}
}

func TestShapeTables2And3(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	t2, t3, err := RunTables23(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + t2.Render())
	t.Log("\n" + t3.Render())
	// Orderings are asserted at the largest delta, where they are not
	// noise-dominated (the paper's gap also widens with size).
	big := t2.ColHeads[len(t2.ColHeads)-1]
	if t2.Get("Table output", big) <= t2.Get("File output", big) {
		t.Errorf("at %s: table output (%.3f) should exceed file output (%.3f)",
			big, t2.Get("Table output", big), t2.Get("File output", big))
	}
	for _, col := range t2.ColHeads {
		if t2.Get("Table output + Export", col) <= t2.Get("Table output", col) {
			t.Errorf("at %s: +Export must add cost", col)
		}
	}
	// End-to-end, the file+Loader path beats table+Export+Import
	// (Table 3's conclusion, by 1.6-3.5x in the paper).
	a := t3.Get("Time Stamp file output + DBMS Loader", big)
	b := t3.Get("Time Stamp table output + Export + Import", big)
	if b <= a {
		t.Errorf("at %s: export/import path (%.3f) should exceed file/loader path (%.3f)", big, b, a)
	}
}

func TestShapeFigure2(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := RunFigure2(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	first, last := res.ColHeads[0], res.ColHeads[len(res.ColHeads)-1]
	// Insert overhead is substantial at every size (paper: 80-100%)
	// because the trigger writes a captured row for every inserted row:
	// the transaction's writes double. The percentages above are logged;
	// the doubling is asserted.
	cfg := smallCfg(t)
	db, _, err := populatedSource(&cfg, "fig2-counts", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	capture := &extract.TriggerCapture{DB: db, Table: "parts"}
	exec := func(tx *engine.Tx, sql string) (engine.Result, error) { return db.Exec(tx, sql) }
	for _, k := range cfg.TxnSizes {
		insert := func() error {
			_, err := runTxn(db, exec, txnInsert, 0, k, "")
			return err
		}
		plain := walRecords(t, db, insert)
		if err := restore(db, txnInsert, 0, k); err != nil {
			t.Fatal(err)
		}
		if err := capture.Install(); err != nil {
			t.Fatal(err)
		}
		captured := walRecords(t, db, insert)
		if err := capture.Uninstall(); err != nil {
			t.Fatal(err)
		}
		if err := restore(db, txnInsert, 0, k); err != nil {
			t.Fatal(err)
		}
		if captured-plain != uint64(k) {
			t.Errorf("insert of %d rows: %d WAL records plain, %d with trigger capture; want one more per row",
				k, plain, captured)
		}
	}
	// Update and delete overhead grows with transaction size (paper:
	// per-row scan cost amortizes away, triggered inserts do not).
	if res.Get("Update", last) <= res.Get("Update", first) {
		t.Errorf("update overhead should grow: %.1f%% -> %.1f%%",
			res.Get("Update", first), res.Get("Update", last))
	}
	if res.Get("Delete", last) <= res.Get("Delete", first) {
		t.Errorf("delete overhead should grow: %.1f%% -> %.1f%%",
			res.Get("Delete", first), res.Get("Delete", last))
	}
	// At the largest size, update overhead (two triggered image writes
	// per row) is at least comparable to delete overhead (one). In the
	// paper update overhead is strictly higher; here the update baseline
	// also carries both WAL images, so the percentages converge — allow
	// a tolerance rather than strict ordering.
	if res.Get("Update", last) < res.Get("Delete", last)*0.5 {
		t.Errorf("update overhead (%.1f%%) should be comparable to or exceed delete overhead (%.1f%%) at size %s",
			res.Get("Update", last), res.Get("Delete", last), last)
	}
}

func TestShapeFigure3(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := RunFigure3(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	last := res.ColHeads[len(res.ColHeads)-1]
	// Op-delta capture of big delete/update transactions is nearly free
	// (paper: 2.48% / 3.68% average) — allow a loose bound.
	if v := res.Get("Delete", last); v > 20 {
		t.Errorf("delete op-delta overhead at %s = %.1f%%, expected small", last, v)
	}
	if v := res.Get("Update", last); v > 20 {
		t.Errorf("update op-delta overhead at %s = %.1f%%, expected small", last, v)
	}
	// Insert capture pays per-record (paper: 66%), far above delete and
	// update capture at scale.
	if res.Get("Insert", last) <= res.Get("Delete", last) ||
		res.Get("Insert", last) <= res.Get("Update", last) {
		t.Errorf("insert op-delta overhead should dominate delete/update at %s: I=%.1f D=%.1f U=%.1f",
			last, res.Get("Insert", last), res.Get("Delete", last), res.Get("Update", last))
	}
}

func TestShapeTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := RunTable4(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	last := res.ColHeads[len(res.ColHeads)-1]
	// Inserts: the DB log pays a per-record transactional insert, the
	// file log a buffered append — file log wins at scale (paper: 81.8s
	// vs 55.4s at 10k rows).
	if res.Get("Insert (DBLog)", last) <= res.Get("Insert (FileLog)", last) {
		t.Errorf("insert DBLog (%.2fms) should exceed FileLog (%.2fms) at size %s",
			res.Get("Insert (DBLog)", last), res.Get("Insert (FileLog)", last), last)
	}
	// Deletes and updates: one op either way; response times are close
	// (paper: within a few percent).
	for _, kind := range []string{"Delete", "Update"} {
		db := res.Get(kind+" (DBLog)", last)
		file := res.Get(kind+" (FileLog)", last)
		ratio := db / file
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s DBLog/FileLog ratio = %.2f, expected near 1", kind, ratio)
		}
	}
}

func TestShapeMaintWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := RunMaintWindow(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	// The paper: insert windows equal, delete windows 31.8% and update
	// windows 69.7% shorter with Op-Delta. The windows are logged; what
	// is asserted is why, in counts of one transaction at the largest
	// size: the same inserts either way, one statement where the value
	// path runs one per deleted row, and one where it deletes and
	// re-inserts every updated row.
	last := res.ColHeads[len(res.ColHeads)-1]
	for _, kind := range []string{"Insert", "Delete", "Update"} {
		t.Logf("%s at %s rows: value delta %.2fms, op-delta %.2fms", kind, last,
			res.Get(kind+" (ValueDelta)", last), res.Get(kind+" (OpDelta)", last))
	}
	cfg := smallCfg(t)
	k := cfg.TxnSizes[len(cfg.TxnSizes)-1]
	cfg.TableRows = 2 * k // a smaller replica: counts do not depend on it
	type cost struct {
		stmts int
		wal   uint64
	}
	costOf := func(name string, apply func(w *warehouse.Warehouse) (warehouse.ApplyStats, error)) cost {
		t.Helper()
		w, err := newReplicaWarehouse(&cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		defer w.DB.Close()
		var stats warehouse.ApplyStats
		wal := walRecords(t, w.DB, func() (err error) {
			stats, err = apply(w)
			return err
		})
		if stats.Txns != 1 {
			t.Errorf("%s: %d warehouse transactions, want 1", name, stats.Txns)
		}
		return cost{stats.Statements, wal}
	}
	costs := map[txnKind][2]cost{}
	for _, kind := range []txnKind{txnInsert, txnDelete, txnUpdate} {
		work, err := captureSourceTxn(&cfg, "e7-counts-src-"+kind.String(), kind, k)
		if err != nil {
			t.Fatal(err)
		}
		costs[kind] = [2]cost{
			costOf("e7-counts-wv-"+kind.String(), func(w *warehouse.Warehouse) (warehouse.ApplyStats, error) {
				return (&warehouse.ValueDeltaIntegrator{W: w}).Apply(work.deltas)
			}),
			costOf("e7-counts-wo-"+kind.String(), func(w *warehouse.Warehouse) (warehouse.ApplyStats, error) {
				return (&warehouse.ParallelIntegrator{W: w}).Apply(work.ops)
			}),
		}
		t.Logf("%s of %d rows: value delta %+v, op-delta %+v", kind, k, costs[kind][0], costs[kind][1])
	}
	if v, o := costs[txnInsert][0], costs[txnInsert][1]; v != o || v.stmts != k {
		t.Errorf("insert: value delta %+v and op-delta %+v should both run %d statements and write the same WAL records", v, o, k)
	}
	if v, o := costs[txnDelete][0], costs[txnDelete][1]; v.stmts != k || o.stmts != 1 || v.wal != o.wal {
		t.Errorf("delete: value delta %+v should run %d statements, op-delta %+v one, both deleting the same rows", v, k, o)
	}
	if v, o := costs[txnUpdate][0], costs[txnUpdate][1]; v.stmts != 2*k || o.stmts != 1 || v.wal-o.wal != uint64(k) {
		t.Errorf("update: value delta %+v should run %d statements and write one more WAL record per row than op-delta %+v's one statement", v, 2*k, o)
	}
}

func TestShapeConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := RunConcurrent(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	// The value-delta batch blocks readers for (roughly) its whole
	// window; op-delta integration interleaves, so the worst reader
	// latency is far smaller.
	vMax := res.Get("ValueDelta batch", "max reader latency")
	for _, w := range []int{1, 4} {
		row := fmt.Sprintf("OpDelta parallel w=%d", w)
		if oMax := res.Get(row, "max reader latency"); vMax < 3*oMax {
			t.Errorf("value-delta max reader latency (%.1fms) should dwarf %s (%.1fms)", vMax, row, oMax)
		}
	}
	// And the outage is comparable to the whole batch window.
	vWin := res.Get("ValueDelta batch", "integration window")
	if vMax < vWin/3 {
		t.Errorf("readers should stall for most of the batch window: maxLat=%.1fms window=%.1fms", vMax, vWin)
	}
	// MVCC snapshot readers must never enter the lock manager: zero
	// blocked time and zero read-mode grants, while the table-lock
	// baseline readers queue behind every applier commit.
	for _, w := range []int{1, 4} {
		row := fmt.Sprintf("OpDelta parallel snapshot-read w=%d", w)
		if acq := res.Get(row, "reader lock acquires"); acq != 0 {
			t.Errorf("%s: reader lock acquires = %.0f, want 0", row, acq)
		}
		if wait := res.Get(row, "reader lock wait ms"); wait != 0 {
			t.Errorf("%s: reader lock wait = %.1fms, want 0", row, wait)
		}
	}
	if acq := res.Get("OpDelta parallel table-lock w=4", "reader lock acquires"); acq == 0 {
		t.Errorf("table-lock baseline readers acquired no locks; the contrast row is inert")
	}
}

func TestShapeRemoteCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	res, err := RunRemoteCapture(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if ratio := res.Get("Ratio (x)", "txn response time"); ratio < 10 {
		t.Errorf("remote capture ratio = %.1fx, paper reports 10-100x", ratio)
	}
}

func TestShapeVolume(t *testing.T) {
	res, err := RunVolume(smallCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	first, last := res.ColHeads[0], res.ColHeads[len(res.ColHeads)-1]
	// Delete/update op-delta volume is independent of txn size.
	for _, kind := range []string{"Delete", "Update"} {
		a := res.Get(kind+" (OpDelta)", first)
		b := res.Get(kind+" (OpDelta)", last)
		if b > a*1.5 {
			t.Errorf("%s op-delta volume grew with txn size: %.0f -> %.0f bytes", kind, a, b)
		}
		if b > 200 {
			t.Errorf("%s op-delta is %.0f bytes, expected a small statement", kind, b)
		}
	}
	// Value-delta volume is proportional to txn size.
	for _, kind := range []string{"Insert", "Delete", "Update"} {
		a := res.Get(kind+" (ValueDelta)", first)
		b := res.Get(kind+" (ValueDelta)", last)
		if b < a*10 {
			t.Errorf("%s value-delta volume should grow ~linearly: %.0f -> %.0f bytes", kind, a, b)
		}
	}
	// Update value deltas (two images) are about twice delete value
	// deltas (one image).
	ud := res.Get("Update (ValueDelta)", last) / res.Get("Delete (ValueDelta)", last)
	if ud < 1.5 || ud > 2.5 {
		t.Errorf("update/delete value volume ratio = %.2f, expected ~2", ud)
	}
	// Insert op-delta is comparable to insert value delta (same info).
	iv := res.Get("Insert (ValueDelta)", last)
	io := res.Get("Insert (OpDelta)", last)
	if r := io / iv; r < 0.5 || r > 3 {
		t.Errorf("insert op/value volume ratio = %.2f, expected comparable", r)
	}
}

func TestShapeTimestampIndexAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	cfg := smallCfg(t)
	cfg.DeltaRows = []int{500, 20_000} // 2.5% and 100% of the table
	res, err := RunTimestampIndexAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	small := res.ColHeads[0]
	// For a small delta the index must win clearly (the paper's point).
	if res.Get("Indexed", small) >= res.Get("Scan", small) {
		t.Errorf("small delta: indexed (%.3fs) should beat scan (%.3fs)",
			res.Get("Indexed", small), res.Get("Scan", small))
	}
	// At a full-table delta the index's relative advantage shrinks (both
	// variants must touch every row). In this engine the index stays in
	// memory, so unlike the paper's disk-resident B-trees it never turns
	// into a loss; assert only that the gap narrows.
	big := res.ColHeads[len(res.ColHeads)-1]
	smallGap := res.Get("Scan", small) / res.Get("Indexed", small)
	bigGap := res.Get("Scan", big) / res.Get("Indexed", big)
	if bigGap >= smallGap {
		t.Errorf("index advantage should shrink with delta size: %.1fx -> %.1fx", smallGap, bigGap)
	}
}
