package bench

import (
	"fmt"
	"path/filepath"
	"testing"

	"opdelta/internal/engine"
	"opdelta/internal/extract"
	"opdelta/internal/opdelta"
	"opdelta/internal/storage"
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
	// The paper: Import is the most expensive technique, Export the
	// cheapest, and every cost grows with the delta. The times are
	// logged; what is asserted is why, in counts: each technique moves
	// every row of the delta, Export only reads, the direct loader
	// bypasses the log, and Import logs every row through the engine —
	// a log volume the others do not pay, linear in the delta.
	cfg := smallCfg(t)
	for _, rows := range cfg.DeltaRows {
		p, err := table1At(&cfg, rows)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d rows: Export %v, Import %v, Loader %v; WAL records %d / %d / %d",
			rows, p.export, p.imp, p.load, p.exportWAL, p.importWAL, p.loadWAL)
		n := int64(rows)
		if p.exportRows != n || p.importRows != n || p.loadRows != n {
			t.Errorf("%d rows: Export, Import and Loader moved %d, %d and %d rows", rows, p.exportRows, p.importRows, p.loadRows)
		}
		if p.exportWAL != 0 || p.loadWAL != 0 {
			t.Errorf("%d rows: Export appended %d WAL records and the loader %d, want 0 and 0", rows, p.exportWAL, p.loadWAL)
		}
		// One record per row, plus a begin and a commit per batch
		// transaction.
		txns := (rows + table1ImportBatch - 1) / table1ImportBatch
		if want := uint64(rows + 2*txns); p.importWAL != want {
			t.Errorf("%d rows: Import appended %d WAL records, want %d: one per row and two per %d-row transaction",
				rows, p.importWAL, want, table1ImportBatch)
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
	// The paper's findings are the shape of the per-row trigger cost:
	// insert overhead is substantial at every size (80-100%) because
	// the trigger writes a captured row for every inserted row, and
	// update and delete overhead grows with transaction size (9-344%)
	// because the statement's own work is one scan while the triggered
	// inserts stay one per row, and an update's cost no less than a
	// delete's. The percentages above are logged; they divide by the
	// plain path's wall clock, which a loaded machine (and the plain
	// path's statement batching) moves. What is asserted is the work
	// behind them: one captured row and one more WAL record per changed
	// row, for every kind and size, and more captured bytes for an update
	// than for a delete of the same rows, since its captured row carries
	// both images.
	cfg := smallCfg(t)
	db, _, err := populatedSource(&cfg, "fig2-counts", cfg.TxnSizes[len(cfg.TxnSizes)-1], false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	capture := &extract.TriggerCapture{DB: db, Table: "parts"}
	exec := func(tx *engine.Tx, sql string) (engine.Result, error) { return db.Exec(tx, sql) }
	// captured counts the capture table's rows and record bytes.
	captured := func() (rows, bytes int64) {
		tbl, err := db.Table(extract.DeltaTableName("parts"))
		if err != nil {
			return 0, 0 // no capture table before the first install
		}
		err = tbl.Heap().Scan(func(_ storage.RID, rec []byte) (bool, error) {
			rows++
			bytes += int64(len(rec))
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows, bytes
	}
	capturedBytes := map[txnKind][]int64{}
	for _, k := range cfg.TxnSizes {
		for _, kind := range []txnKind{txnInsert, txnDelete, txnUpdate} {
			first := int64(0)
			if kind == txnInsert {
				first = 1_000_000
			}
			run := func() error {
				_, err := runTxn(db, exec, kind, first, k, "m")
				return err
			}
			plain := walRecords(t, db, run)
			if err := restore(db, kind, first, k); err != nil {
				t.Fatal(err)
			}
			if err := capture.Install(); err != nil {
				t.Fatal(err)
			}
			rows0, bytes0 := captured()
			withTrigger := walRecords(t, db, run)
			rows, bytes := captured()
			rows, bytes = rows-rows0, bytes-bytes0
			if err := capture.Uninstall(); err != nil {
				t.Fatal(err)
			}
			if err := restore(db, kind, first, k); err != nil {
				t.Fatal(err)
			}
			if rows != int64(k) || withTrigger-plain != uint64(k) {
				t.Errorf("%s of %d rows: %d rows captured, %d WAL records plain and %d with trigger capture; want one captured row and one more record per row",
					kind, k, rows, plain, withTrigger)
			}
			capturedBytes[kind] = append(capturedBytes[kind], bytes)
		}
	}
	for i, k := range cfg.TxnSizes {
		if upd, del := capturedBytes[txnUpdate][i], capturedBytes[txnDelete][i]; upd <= del {
			t.Errorf("at %d rows the update's trigger capture stored %d bytes, no more than the delete's %d",
				k, upd, del)
		}
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
	// The paper: op capture costs an insert transaction 66% (one op per
	// inserted record) and a delete or update 2.5-3.7% (one op, however
	// many rows it touches). The percentages above are logged; they
	// divide by the plain path's wall clock, which a loaded machine
	// moves. What is asserted is the count behind them, at every size: a
	// k-row INSERT transaction adds k op-log rows, and a k-row DELETE or
	// UPDATE adds one, of the same size at every k. The delete and update
	// ranges start at id 1000, so their bounds print with four digits at
	// every size and the statement text is the same length.
	cfg := smallCfg(t)
	k := cfg.TxnSizes[len(cfg.TxnSizes)-1]
	db, _, err := populatedSource(&cfg, "fig3-counts", 2*k, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	log, err := opdelta.NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}
	capture := &opdelta.Capture{DB: db, Log: log}
	exec := func(tx *engine.Tx, sql string) (engine.Result, error) { return capture.Exec(tx, sql) }
	logTbl, err := db.Table(opdelta.TableLogName)
	if err != nil {
		t.Fatal(err)
	}
	// opRows counts the op-log table's rows and record bytes.
	opRows := func() (rows, bytes int64) {
		err := logTbl.Heap().Scan(func(_ storage.RID, rec []byte) (bool, error) {
			rows++
			bytes += int64(len(rec))
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rows, bytes
	}
	opBytes := map[txnKind]int64{}
	for _, k := range cfg.TxnSizes {
		for _, kind := range []txnKind{txnInsert, txnDelete, txnUpdate} {
			first, want := int64(1000), int64(1)
			if kind == txnInsert {
				first, want = 1_000_000, int64(k)
			}
			rows0, bytes0 := opRows()
			if _, err := runTxn(db, exec, kind, first, k, "m"); err != nil {
				t.Fatal(err)
			}
			rows, bytes := opRows()
			rows, bytes = rows-rows0, bytes-bytes0
			if err := restore(db, kind, first, k); err != nil {
				t.Fatal(err)
			}
			if rows != want {
				t.Errorf("%s of %d rows added %d op rows, want %d", kind, k, rows, want)
			}
			if kind == txnInsert {
				continue
			}
			if prev, ok := opBytes[kind]; ok && bytes != prev {
				t.Errorf("%s of %d rows added an op row of %d bytes, %d at a smaller size", kind, k, bytes, prev)
			}
			opBytes[kind] = bytes
		}
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
	// The paper: inserts cost more with the DB log, which pays a
	// transactional insert per op where the file log buffers an append
	// (81.8s vs 55.4s at 10k rows); deletes and updates are one op
	// either way, so their times are close. The times are logged; what
	// is asserted is the count behind them at the largest size: k
	// single-row INSERTs capture k ops and one scan-based DELETE or
	// UPDATE captures one, with either log, and the DB log adds one WAL
	// record per op — its op row — to the statements' own.
	cfg := smallCfg(t)
	k := cfg.TxnSizes[len(cfg.TxnSizes)-1]
	db, _, err := populatedSource(&cfg, "t4-counts", k, false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tableLog, err := opdelta.NewTableLog(db)
	if err != nil {
		t.Fatal(err)
	}
	fileLog, err := opdelta.NewFileLog(filepath.Join(cfg.WorkDir, "t4-counts.log"), db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	defer fileLog.Close()
	for _, kind := range []txnKind{txnInsert, txnDelete, txnUpdate} {
		t.Logf("%s at %d rows: DBLog %.2fms, FileLog %.2fms", kind, k,
			res.Get(kind.String()+" (DBLog)", last), res.Get(kind.String()+" (FileLog)", last))
		first, want := int64(0), uint64(1)
		if kind == txnInsert {
			first, want = 1_000_000, uint64(k) // fresh ids, one op per statement
		}
		var recs [2]uint64
		var ops [2]uint64
		for i, log := range []opdelta.Log{tableLog, fileLog} {
			c := &opdelta.Capture{DB: db, Log: log}
			exec := func(tx *engine.Tx, sql string) (engine.Result, error) { return c.Exec(tx, sql) }
			seq := log.(interface{ Seq() uint64 })
			before := seq.Seq()
			recs[i] = walRecords(t, db, func() error {
				_, err := runTxn(db, exec, kind, first, k, "m")
				return err
			})
			ops[i] = seq.Seq() - before
			if err := restore(db, kind, first, k); err != nil {
				t.Fatal(err)
			}
		}
		if ops != [2]uint64{want, want} || recs[0] != recs[1]+want {
			t.Errorf("%s of %d rows: %d ops captured and %d WAL records with the DB log, %d ops and %d records with the file log; want %d ops each and %d records more for the DB log",
				kind, k, ops[0], recs[0], ops[1], recs[1], want, want)
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
	// The value-delta batch is one transaction holding the table
	// exclusively, so each reader queues behind it once, for the rest of
	// its window; op-delta integration commits one small transaction per
	// source transaction, and a queued reader is granted at the next
	// one. Latencies and windows are logged above; asserted are the
	// counts behind them.
	const readers, sourceTxns = 2, 100
	if n := res.Get("ValueDelta batch", "warehouse txns"); n != 1 {
		t.Errorf("value-delta batch committed %.0f transactions, want 1", n)
	}
	if w := res.Get("ValueDelta batch", "reader lock waits"); w < 1 || w > readers {
		t.Errorf("readers queued %.0f times behind the value-delta batch, want 1..%d: at most once each, and not never", w, readers)
	}
	for _, w := range []int{1, 4} {
		row := fmt.Sprintf("OpDelta parallel w=%d", w)
		if n := res.Get(row, "warehouse txns"); n != sourceTxns {
			t.Errorf("%s committed %.0f transactions, want one per source transaction (%d)", row, n, sourceTxns)
		}
	}
	// MVCC snapshot readers must never enter the lock manager: zero
	// blocked time and zero read-mode grants, while the table-lock
	// baseline readers queue behind every applier commit.
	for _, w := range []int{1, 4} {
		row := fmt.Sprintf("OpDelta parallel snapshot-read w=%d", w)
		if acq := res.Get(row, "reader lock acquires"); acq != 0 {
			t.Errorf("%s: reader lock acquires = %.0f, want 0", row, acq)
		}
		if waits, ms := res.Get(row, "reader lock waits"), res.Get(row, "reader lock wait ms"); waits != 0 || ms != 0 {
			t.Errorf("%s: readers waited %.0f times for %.1fms, want 0 and 0", row, waits, ms)
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
