package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/extract"
	"opdelta/internal/opdelta"
	"opdelta/internal/workload"
)

// txnKind selects the transaction flavor measured by Figures 2-3 and
// Table 4.
type txnKind int

const (
	txnInsert txnKind = iota
	txnDelete
	txnUpdate
)

func (k txnKind) String() string {
	switch k {
	case txnInsert:
		return "Insert"
	case txnDelete:
		return "Delete"
	case txnUpdate:
		return "Update"
	default:
		return "?"
	}
}

// execFunc abstracts "plain engine" vs "capture-wrapped" execution.
type execFunc func(tx *engine.Tx, sql string) (engine.Result, error)

// runTxn executes one experiment transaction of size k and returns its
// response time. Insert transactions issue k single-row statements
// (record-at-a-time, as COTS software submits); delete and update are
// one scan-based statement, per the paper's setup. The caller restores
// state afterwards.
func runTxn(db *engine.DB, exec execFunc, kind txnKind, first int64, k int, marker string) (time.Duration, error) {
	start := time.Now()
	tx := db.Begin()
	switch kind {
	case txnInsert:
		for i := 0; i < k; i++ {
			if _, err := exec(tx, workload.SingleInsertStmt(first+int64(i))); err != nil {
				tx.Abort()
				return 0, err
			}
		}
	case txnDelete:
		if _, err := exec(tx, workload.DeleteStmtScan(first, k)); err != nil {
			tx.Abort()
			return 0, err
		}
	case txnUpdate:
		if _, err := exec(tx, workload.UpdateStmtScan(first, k, marker)); err != nil {
			tx.Abort()
			return 0, err
		}
	}
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// restore undoes the effects of one measured transaction (not part of
// any measurement): inserted rows are removed; deleted rows are
// re-inserted with their canonical images.
func restore(db *engine.DB, kind txnKind, first int64, k int) error {
	switch kind {
	case txnInsert:
		_, err := db.Exec(nil, workload.DeleteStmt(first, k))
		return err
	case txnDelete:
		tx := db.Begin()
		for i := 0; i < k; i++ {
			id := first + int64(i)
			if err := db.InsertTuple(tx, "parts", workload.PartRow(id, db.Now())); err != nil {
				tx.Abort()
				return err
			}
		}
		return tx.Commit()
	default:
		return nil // update leaves row count unchanged; markers differ per run
	}
}

// measureTxn runs (baseline, instrumented) pairs cfg.Repeats times and
// returns medians.
func measureTxn(db *engine.DB, cfg *Config, kind txnKind, k int, base execFunc, instr execFunc,
	afterInstr func() error) (baseline, instrumented time.Duration, err error) {
	var baseSamples, instrSamples []time.Duration
	tbl, err := db.Table("parts")
	if err != nil {
		return 0, 0, err
	}
	insertBase := tbl.NumRows() // fresh ids for insert txns
	if err := warmup(db, base, kind, k, insertBase+1_000_000); err != nil {
		return 0, 0, err
	}
	marker := 0
	for rep := 0; rep < effectiveRepeats(cfg, k); rep++ {
		first := int64(0)
		if kind == txnInsert {
			first = insertBase + int64(rep*k)
		}
		marker++
		d, err := runTxn(db, base, kind, first, k, fmt.Sprintf("b%d", marker))
		if err != nil {
			return 0, 0, err
		}
		baseSamples = append(baseSamples, d)
		if err := restore(db, kind, first, k); err != nil {
			return 0, 0, err
		}

		marker++
		d, err = runTxn(db, instr, kind, first, k, fmt.Sprintf("i%d", marker))
		if err != nil {
			return 0, 0, err
		}
		instrSamples = append(instrSamples, d)
		if err := restore(db, kind, first, k); err != nil {
			return 0, 0, err
		}
		if afterInstr != nil {
			if err := afterInstr(); err != nil {
				return 0, 0, err
			}
		}
		// Drain MVCC versions between reps (untimed): the run+restore
		// writes would otherwise push the population over the GC
		// trigger and a GC pass would run inside timed txns.
		db.VersionGC()
	}
	return median(baseSamples), median(instrSamples), nil
}

// effectiveRepeats raises the sample count for small transactions,
// whose sub-millisecond times are noise-dominated.
func effectiveRepeats(cfg *Config, k int) int {
	reps := cfg.Repeats
	if k <= 100 {
		reps = cfg.Repeats * 5
	} else if k <= 1000 {
		reps = cfg.Repeats * 4
	}
	return reps
}

// warmup runs one unmeasured transaction to heat caches and lock paths.
func warmup(db *engine.DB, exec execFunc, kind txnKind, k int, first int64) error {
	if _, err := runTxn(db, exec, kind, first, k, "warm"); err != nil {
		return err
	}
	return restore(db, kind, first, k)
}

func overheadPct(base, instr time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return (float64(instr) - float64(base)) / float64(base) * 100
}

// RunFigure2 reproduces Figure 2: the response-time overhead of
// row-level trigger capture for insert, delete and update transactions
// as transaction size grows. The paper observes a roughly constant
// 80-100% overhead for inserts and an overhead that grows with
// transaction size for updates and deletes (up to ~344%).
func RunFigure2(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:       "figure2",
		Title:    "Insert/Delete/Update trigger overhead (Figure 2)",
		Unit:     "%",
		RowHeads: []string{"Insert", "Delete", "Update"},
		Notes: []string{
			"paper: insert overhead constant 80-100%; update/delete overhead grows with txn size (9-344%)",
		},
	}
	res.Values = make([][]float64, 3)

	db, _, err := populatedSource(&cfg, "fig2-src", cfg.TableRows, false)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	cap := &extract.TriggerCapture{DB: db, Table: "parts"}
	if err := cap.Install(); err != nil {
		return nil, err
	}
	// Capture stays installed; baseline runs use a second identical
	// source without triggers to avoid install/uninstall churn skewing
	// cache state. Simpler and fair: measure baseline with the trigger
	// uninstalled on the same database.
	if err := cap.Uninstall(); err != nil {
		return nil, err
	}

	baseExec := func(tx *engine.Tx, sql string) (engine.Result, error) { return db.Exec(tx, sql) }
	for _, k := range cfg.TxnSizes {
		for ki, kind := range []txnKind{txnInsert, txnDelete, txnUpdate} {
			// Baseline without trigger, instrumented with trigger.
			instr := func(tx *engine.Tx, sql string) (engine.Result, error) { return db.Exec(tx, sql) }
			base, withTrig, err := measureTxnTrigger(db, &cfg, cap, kind, k, baseExec, instr)
			if err != nil {
				return nil, err
			}
			res.Values[ki] = append(res.Values[ki], overheadPct(base, withTrig))
		}
	}
	for _, k := range cfg.TxnSizes {
		res.ColHeads = append(res.ColHeads, fmt.Sprintf("%d", k))
	}
	return res, nil
}

// measureTxnTrigger measures a (no-trigger, with-trigger) pair: the
// trigger is installed only around the instrumented run, and the
// capture table is cleared between repetitions.
func measureTxnTrigger(db *engine.DB, cfg *Config, cap *extract.TriggerCapture, kind txnKind, k int,
	base, instr execFunc) (time.Duration, time.Duration, error) {
	var baseSamples, instrSamples []time.Duration
	tbl, err := db.Table("parts")
	if err != nil {
		return 0, 0, err
	}
	insertBase := tbl.NumRows()
	if err := warmup(db, base, kind, k, insertBase+1_000_000); err != nil {
		return 0, 0, err
	}
	marker := 0
	for rep := 0; rep < effectiveRepeats(cfg, k); rep++ {
		first := int64(0)
		if kind == txnInsert {
			first = insertBase + int64(rep*k)
		}
		marker++
		d, err := runTxn(db, base, kind, first, k, fmt.Sprintf("b%d", marker))
		if err != nil {
			return 0, 0, err
		}
		baseSamples = append(baseSamples, d)
		if err := restore(db, kind, first, k); err != nil {
			return 0, 0, err
		}

		if err := cap.Install(); err != nil {
			return 0, 0, err
		}
		marker++
		d, err = runTxn(db, instr, kind, first, k, fmt.Sprintf("i%d", marker))
		if err != nil {
			return 0, 0, err
		}
		instrSamples = append(instrSamples, d)
		if err := cap.Uninstall(); err != nil {
			return 0, 0, err
		}
		if err := restore(db, kind, first, k); err != nil {
			return 0, 0, err
		}
		// Clear what the trigger captured so the table doesn't grow.
		if _, err := cap.Extract(&extract.CountSink{}); err != nil {
			return 0, 0, err
		}
		db.VersionGC() // keep version GC out of the timed txns
	}
	return median(baseSamples), median(instrSamples), nil
}

// RunFigure3 reproduces Figure 3: the overhead of capturing Op-Deltas
// into a database table (transactionally) for insert, delete and update
// transactions. The paper measures 66.47% average overhead for inserts
// (comparable to the trigger) and only 2.48% / 3.68% for deletes and
// updates, because one small op record covers the whole statement.
func RunFigure3(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:       "figure3",
		Title:    "Op-Delta extraction overhead (Figure 3)",
		Unit:     "%",
		RowHeads: []string{"Insert", "Delete", "Update"},
		Notes: []string{
			"paper: insert avg 66.47%, delete avg 2.48%, update avg 3.68%",
		},
	}
	res.Values = make([][]float64, 3)

	db, _, err := populatedSource(&cfg, "fig3-src", cfg.TableRows, false)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	log, err := opdelta.NewTableLog(db)
	if err != nil {
		return nil, err
	}
	capture := &opdelta.Capture{DB: db, Log: log}

	baseExec := func(tx *engine.Tx, sql string) (engine.Result, error) { return db.Exec(tx, sql) }
	instrExec := func(tx *engine.Tx, sql string) (engine.Result, error) { return capture.Exec(tx, sql) }
	clearLog := func() error { return log.Truncate(^uint64(0) >> 1) }

	for _, k := range cfg.TxnSizes {
		for ki, kind := range []txnKind{txnInsert, txnDelete, txnUpdate} {
			base, withOp, err := measureTxn(db, &cfg, kind, k, baseExec, instrExec, clearLog)
			if err != nil {
				return nil, err
			}
			res.Values[ki] = append(res.Values[ki], overheadPct(base, withOp))
		}
	}
	for _, k := range cfg.TxnSizes {
		res.ColHeads = append(res.ColHeads, fmt.Sprintf("%d", k))
	}
	return res, nil
}

// RunTable4 reproduces Table 4: transaction response time with the
// Op-Delta log in a database table versus in a flat file. The paper
// finds the file log significantly faster for inserts (one op per
// record) and nearly identical for deletes and updates (one op per
// transaction).
func RunTable4(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "table4",
		Title: "Response time — op log in DB table vs flat file (Table 4)",
		Unit:  "ms",
		RowHeads: []string{
			"Insert (DBLog)", "Insert (FileLog)",
			"Delete (DBLog)", "Delete (FileLog)",
			"Update (DBLog)", "Update (FileLog)",
		},
		Notes: []string{
			"paper (ms at 10..10,000 rows): insert 117..81,840 (DB) vs 75..55,364 (file); delete and update nearly equal",
		},
	}
	res.Values = make([][]float64, 6)

	db, _, err := populatedSource(&cfg, "t4-src", cfg.TableRows, false)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	tableLog, err := opdelta.NewTableLog(db)
	if err != nil {
		return nil, err
	}
	fileLog, err := opdelta.NewFileLog(filepath.Join(cfg.WorkDir, "t4-ops.log"), db.Schema)
	if err != nil {
		return nil, err
	}
	defer fileLog.Close()

	dbCap := &opdelta.Capture{DB: db, Log: tableLog}
	fileCap := &opdelta.Capture{DB: db, Log: fileLog}
	dbExec := func(tx *engine.Tx, sql string) (engine.Result, error) { return dbCap.Exec(tx, sql) }
	fileExec := func(tx *engine.Tx, sql string) (engine.Result, error) { return fileCap.Exec(tx, sql) }

	for _, k := range cfg.TxnSizes {
		res.ColHeads = append(res.ColHeads, fmt.Sprintf("%d", k))
		for ki, kind := range []txnKind{txnInsert, txnDelete, txnUpdate} {
			dbMed, fileMed, err := measureTwo(db, &cfg, kind, k, dbExec, fileExec,
				func() error { return tableLog.Truncate(^uint64(0) >> 1) })
			if err != nil {
				return nil, err
			}
			res.Values[2*ki] = append(res.Values[2*ki], float64(dbMed)/float64(time.Millisecond))
			res.Values[2*ki+1] = append(res.Values[2*ki+1], float64(fileMed)/float64(time.Millisecond))
		}
	}
	return res, nil
}

// measureTwo measures the same transaction under two capture variants.
func measureTwo(db *engine.DB, cfg *Config, kind txnKind, k int, execA, execB execFunc,
	between func() error) (time.Duration, time.Duration, error) {
	var aSamples, bSamples []time.Duration
	tbl, err := db.Table("parts")
	if err != nil {
		return 0, 0, err
	}
	insertBase := tbl.NumRows()
	if err := warmup(db, execA, kind, k, insertBase+1_000_000); err != nil {
		return 0, 0, err
	}
	marker := 0
	for rep := 0; rep < effectiveRepeats(cfg, k); rep++ {
		first := int64(0)
		if kind == txnInsert {
			first = insertBase + int64(rep*k)
		}
		marker++
		d, err := runTxn(db, execA, kind, first, k, fmt.Sprintf("a%d", marker))
		if err != nil {
			return 0, 0, err
		}
		aSamples = append(aSamples, d)
		if err := restore(db, kind, first, k); err != nil {
			return 0, 0, err
		}
		if between != nil {
			if err := between(); err != nil {
				return 0, 0, err
			}
		}
		marker++
		d, err = runTxn(db, execB, kind, first, k, fmt.Sprintf("c%d", marker))
		if err != nil {
			return 0, 0, err
		}
		bSamples = append(bSamples, d)
		if err := restore(db, kind, first, k); err != nil {
			return 0, 0, err
		}
	}
	return median(aSamples), median(bSamples), nil
}
