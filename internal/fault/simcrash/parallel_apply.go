package simcrash

// Crash-during-parallel-apply scenario: the warehouse replays a
// deterministic op stream through ParallelIntegrator (4 workers, WAL
// group commit, early lock release) on a SimFS that dies at a sampled
// filesystem operation. Unlike the sequential harness in simcrash.go,
// the *interleaving* here is real concurrency, so the op count of the
// crash pass can differ from the clean pass and the crash may not fire
// at all — the invariants below therefore depend only on what recovery
// finds, never on which worker was where:
//
//   - Per-transaction atomicity: each source transaction inserts a
//     stripe of keys; after recovery a stripe is fully present or fully
//     absent.
//   - Source order: the integrator commits transactions in source
//     order, each after the one before it is durable, so the surviving
//     transactions — the chain row's first, then the stripes — form a
//     prefix of the stream, though the stripes are key-disjoint and run
//     side by side. Every third transaction also rewrites one shared
//     "chain" key, which must name the highest chain transaction of
//     that prefix, and the applied log's high-water row, written in each
//     transaction, must name the prefix's last op.
//   - View consistency: the materialized view is maintained in the same
//     engine transaction as its base, so after recovery it must equal
//     the projection of the recovered base — no matter where the crash
//     landed.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
)

// ParallelConfig parameterizes one parallel-apply crash run.
type ParallelConfig struct {
	// Seed drives the crash point and crash-time disk resolution.
	Seed int64
	// Txns is the number of striped source transactions. Default 24.
	Txns int
	// Workers is the apply pool width. Default 4.
	Workers int
}

// ParallelReport summarizes one run.
type ParallelReport struct {
	Seed     int64
	Txns     int
	TotalOps uint64 // mutating fs ops in the clean pass
	CrashOp  uint64 // sampled crash point for the crash pass
	Crashed  bool   // false when the crash pass finished first (schedules differ)
	Applied  int    // striped transactions surviving recovery
	Chain    int    // highest surviving chain transaction (0: chain row lost)
}

const (
	parDir    = "/wh/db"
	parTable  = "t"
	parView   = "v_pos"
	parStripe = 3 // keys inserted per striped transaction
)

// RunParallelApply executes the clean pass, the crash pass, and the
// post-recovery verification. A non-nil error is an invariant violation.
func RunParallelApply(cfg ParallelConfig) (*ParallelReport, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = 24
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	rep := &ParallelReport{Seed: cfg.Seed, Txns: cfg.Txns}
	// Worker interleaving (and with it group-commit fsync batching) is
	// not deterministic, so the crash pass may perform fewer ops than
	// the clean pass and complete; that run is verified as a second
	// clean pass instead of discarded.
	out, err := crashCycle{
		name: "parallel", seed: cfg.Seed, salt: 7,
		run: func(fsys fault.FS, _ bool) error {
			return runParallelWorkload(fsys, cfg.Txns, cfg.Workers)
		},
		verify: func(fsys fault.FS, complete bool) error {
			return verifyParallel(fsys, cfg.Txns, rep, complete)
		},
	}.drive()
	if err != nil {
		return nil, err
	}
	rep.TotalOps, rep.CrashOp, rep.Crashed = out.totalOps, out.crashOp, out.crashed
	return rep, nil
}

func parSchema() *catalog.Schema {
	return catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.TypeInt64, NotNull: true},
		catalog.Column{Name: "val", Type: catalog.TypeString, NotNull: true},
	)
}

func parEngineOpts(fsys fault.FS) engine.Options {
	return engine.Options{
		PoolPages:      4, // tiny pool: dirty page writebacks mid-apply
		WALSync:        wal.SyncFull,
		WALSegmentSize: 4 << 10,
		FS:             fsys,
		// A worker that dies inside Commit before early lock release has
		// no one left to free its table locks; a short timeout turns the
		// peers' waits into prompt errors instead of 10s stalls.
		LockTimeout: 2 * time.Second,
		// Constant clock: nothing here stamps timestamps, and a shared
		// counter would race across workers.
		Now: func() time.Time { return time.Unix(0, 1) },
	}
}

// parallelOps builds the deterministic op stream. Transaction 1 inserts
// the shared chain row (id 0). Each transaction i in [2, txns+1]
// inserts the stripe i*100+1 .. i*100+parStripe; every third also
// rewrites the chain row to name itself, making chain transactions
// conflict pairwise (and with transaction 1) while stripes stay
// key-disjoint.
func parallelOps(txns int) []*opdelta.Op {
	var ops []*opdelta.Op
	seq := uint64(0)
	add := func(txn uint64, kind opdelta.OpKind, stmt string) {
		seq++
		ops = append(ops, &opdelta.Op{
			Seq: seq, Txn: txn, Kind: kind, Table: parTable, Stmt: stmt,
			Time: time.Unix(0, int64(seq)),
		})
	}
	add(1, opdelta.OpInsert, "INSERT INTO t (id, val) VALUES (0, 'c1')")
	for i := 2; i <= txns+1; i++ {
		for k := 1; k <= parStripe; k++ {
			add(uint64(i), opdelta.OpInsert,
				fmt.Sprintf("INSERT INTO t (id, val) VALUES (%d, 't%d_%d')", i*100+k, i, k))
		}
		if i%3 == 0 {
			add(uint64(i), opdelta.OpUpdate,
				fmt.Sprintf("UPDATE t SET val = 'c%d' WHERE id = 0", i))
		}
	}
	return ops
}

func runParallelWorkload(fsys fault.FS, txns, workers int) error {
	db, err := engine.Open(parDir, parEngineOpts(fsys))
	if err != nil {
		return err
	}
	w := warehouse.New(db)
	schema := parSchema()
	if err := w.RegisterReplica(parTable, schema, "id", ""); err != nil {
		return err
	}
	where, err := sqlmini.ParseExpr("id > 0")
	if err != nil {
		return err
	}
	if _, err := w.RegisterView(opdelta.ViewDef{
		Name: parView, Source: parTable, Project: []string{"id", "val"}, Where: where,
	}, schema, nil); err != nil {
		return err
	}
	applied, err := warehouse.EnsureAppliedLog(w)
	if err != nil {
		return err
	}
	if _, err := (&warehouse.ParallelIntegrator{W: w, Workers: workers, Applied: applied}).Apply(parallelOps(txns)); err != nil {
		return err
	}
	return db.Close()
}

// verifyParallel reopens the engine (running recovery on a crash image)
// and checks atomicity, chain-prefix order, and view consistency.
// complete additionally demands that every transaction survived — the
// clean-pass contract.
func verifyParallel(fsys fault.FS, txns int, rep *ParallelReport, complete bool) error {
	db, err := engine.Open(parDir, parEngineOpts(fsys))
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	defer db.Close()

	base := map[int64]string{}
	if _, err := db.Table(parTable); err == nil {
		if err := db.ScanTable(nil, parTable, func(row catalog.Tuple) error {
			base[row[0].Int()] = row[1].Str()
			return nil
		}); err != nil {
			return fmt.Errorf("scan %s: %w", parTable, err)
		}
	} else if complete {
		return fmt.Errorf("table %s lost: %w", parTable, err)
	}

	// 1. Stripe atomicity, and no rows the workload never wrote.
	applied := map[int]bool{}
	rep.Applied = 0
	for i := 2; i <= txns+1; i++ {
		present := 0
		for k := 1; k <= parStripe; k++ {
			v, ok := base[int64(i*100+k)]
			if !ok {
				continue
			}
			if want := fmt.Sprintf("t%d_%d", i, k); v != want {
				return fmt.Errorf("txn %d stripe key %d: val %q, want %q", i, i*100+k, v, want)
			}
			present++
		}
		if present != 0 && present != parStripe {
			return fmt.Errorf("txn %d applied partially: %d/%d stripe keys", i, present, parStripe)
		}
		if present == parStripe {
			applied[i] = true
			rep.Applied++
		}
	}
	for id := range base {
		if id == 0 {
			continue
		}
		i, k := int(id/100), int(id%100)
		if i < 2 || i > txns+1 || k < 1 || k > parStripe {
			return fmt.Errorf("phantom row id=%d val=%q", id, base[id])
		}
	}

	// 2. Source order: transactions 1..last survived and none after.
	// Transaction 1 wrote the chain row; the chain row names the highest
	// chain transaction among them; the high-water row names the last op
	// of transaction last.
	chainVal, chainPresent := base[0]
	survived := func(i int) bool { return applied[i] || (i == 1 && chainPresent) }
	last := 0
	for last <= txns && survived(last+1) {
		last++
	}
	for i := last + 2; i <= txns+1; i++ {
		if survived(i) {
			return fmt.Errorf("transaction %d survived without transaction %d: not a prefix of source order", i, last+1)
		}
	}
	rep.Chain = 0
	if chainPresent {
		head, err := strconv.Atoi(strings.TrimPrefix(chainVal, "c"))
		if err != nil || !strings.HasPrefix(chainVal, "c") {
			return fmt.Errorf("chain row has foreign value %q", chainVal)
		}
		rep.Chain = head
	}
	if want := max(1, last/3*3); last > 0 && rep.Chain != want {
		return fmt.Errorf("chain row says %q, want c%d: transactions 1..%d survived", chainVal, want, last)
	}
	high, err := parHighWater(db)
	if err != nil {
		return err
	}
	if want := parLastSeq(txns, last); high != want {
		return fmt.Errorf("high-water seq %d, want %d: transactions 1..%d survived", high, want, last)
	}

	// 3. View == projection of the recovered base.
	view := map[int64]string{}
	if _, err := db.Table(parView); err == nil {
		if err := db.ScanTable(nil, parView, func(row catalog.Tuple) error {
			if _, dup := view[row[0].Int()]; dup {
				return fmt.Errorf("view %s has duplicate key %d", parView, row[0].Int())
			}
			view[row[0].Int()] = row[1].Str()
			return nil
		}); err != nil {
			return fmt.Errorf("scan %s: %w", parView, err)
		}
	} else if len(base) > 0 {
		return fmt.Errorf("view table %s lost while base has %d rows", parView, len(base))
	}
	for id, v := range base {
		if id <= 0 {
			continue
		}
		if vv, ok := view[id]; !ok {
			return fmt.Errorf("view missing base row id=%d", id)
		} else if vv != v {
			return fmt.Errorf("view row id=%d: %q, base has %q", id, vv, v)
		}
	}
	for id := range view {
		if _, ok := base[id]; !ok || id <= 0 {
			return fmt.Errorf("view holds phantom row id=%d", id)
		}
	}

	if complete {
		if rep.Applied != txns {
			return fmt.Errorf("complete run applied %d/%d transactions", rep.Applied, txns)
		}
		lastChain := (txns + 1) / 3 * 3
		if rep.Chain != lastChain {
			return fmt.Errorf("complete run chain head %d, want %d", rep.Chain, lastChain)
		}
	}
	return nil
}

// parLastSeq returns the seq of transaction last's final op in
// parallelOps(txns), 0 for none.
func parLastSeq(txns, last int) uint64 {
	var seq uint64
	for _, op := range parallelOps(txns) {
		if op.Txn > uint64(last) {
			break
		}
		seq = op.Seq
	}
	return seq
}

// parHighWater reads the recovered applied log's high-water seq: 0 when
// a crash came before the log or its row was durable.
func parHighWater(db *engine.DB) (uint64, error) {
	if _, err := db.Table(warehouse.AppliedLogName); err != nil {
		return 0, nil
	}
	var high uint64
	err := db.ScanTable(nil, warehouse.AppliedLogName, func(row catalog.Tuple) error {
		high = uint64(row[1].Int())
		return nil
	})
	return high, err
}
