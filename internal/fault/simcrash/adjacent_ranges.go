package simcrash

// Crash-during-adjacent-range-apply scenario: the partition-boundary
// stress for the key-range lock manager. One bulk transaction loads a
// table, then every later transaction rewrites one key stripe with
// UPDATE ... BETWEEN; the stripes tile the table edge to edge, so at
// any instant the two workers hold *adjacent* exclusive key ranges —
// [1,8] next to [9,16] — and both are mid-apply when the SimFS dies.
// The interval tree is what keeps those writers overlapped instead of
// serialized, and a boundary bug there (off-by-one overlap, a grant
// that leaks across the shared edge) would surface here as a stripe
// with mixed values or a key carrying its neighbour's marker.
//
// Invariants, checked on whatever recovery finds:
//
//   - Load atomicity: the bulk insert is one engine transaction, so the
//     base is either empty or holds exactly the full key set.
//   - Stripe atomicity: each UPDATE rewrites its whole stripe in one
//     transaction; after recovery a stripe is uniformly initial or
//     uniformly updated, never mixed.
//   - Boundary isolation: a key's value is either its initial marker or
//     its own stripe's update marker — a neighbouring transaction's
//     marker on the wrong side of a shared edge is an immediate error.
//   - View consistency: the maintained view equals the projection of
//     the recovered base.

import (
	"fmt"
	"strings"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/opdelta"
	"opdelta/internal/sqlmini"
	"opdelta/internal/warehouse"
)

// AdjacentConfig parameterizes one adjacent-range crash run.
type AdjacentConfig struct {
	// Seed drives the crash point and crash-time disk resolution.
	Seed int64
	// Stripes is the number of adjacent update transactions. Default 12.
	Stripes int
	// StripeW is the keys per stripe. Default 8.
	StripeW int
	// Workers is the apply pool width. Default 2: the scenario's point
	// is two appliers holding adjacent ranges at the crash instant.
	Workers int
}

// AdjacentReport summarizes one run.
type AdjacentReport struct {
	Seed     int64
	Stripes  int
	TotalOps uint64 // mutating fs ops in the clean pass
	CrashOp  uint64 // sampled crash point for the crash pass
	Crashed  bool   // false when the crash pass finished first
	Loaded   bool   // bulk load survived recovery
	Updated  int    // stripes recovered fully updated
}

// RunAdjacentRanges executes the clean pass, the crash pass, and the
// post-recovery verification. A non-nil error is an invariant violation.
func RunAdjacentRanges(cfg AdjacentConfig) (*AdjacentReport, error) {
	if cfg.Stripes <= 0 {
		cfg.Stripes = 12
	}
	if cfg.StripeW <= 0 {
		cfg.StripeW = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	rep := &AdjacentReport{Seed: cfg.Seed, Stripes: cfg.Stripes}
	// As in the parallel-apply scenario, worker interleaving is real
	// concurrency: the crash pass can take a different op path and
	// finish early, in which case it is verified as a clean pass.
	out, err := crashCycle{
		name: "adjacent", seed: cfg.Seed, salt: 11,
		run: func(fsys fault.FS, _ bool) error {
			return runAdjacentWorkload(fsys, cfg)
		},
		verify: func(fsys fault.FS, complete bool) error {
			return verifyAdjacent(fsys, cfg, rep, complete)
		},
	}.drive()
	if err != nil {
		return nil, err
	}
	rep.TotalOps, rep.CrashOp, rep.Crashed = out.totalOps, out.crashOp, out.crashed
	return rep, nil
}

// adjacentOps builds the op stream. Transaction 1 bulk-loads keys
// 1..Stripes*StripeW with per-key initial markers. Transaction i in
// [2, Stripes+1] rewrites stripe i-2 — the closed interval
// [(i-2)*StripeW+1, (i-1)*StripeW] — to name itself. Consecutive
// stripes tile the key space with shared edges one key apart, so their
// footprints are adjacent closed ranges that must NOT conflict.
func adjacentOps(cfg AdjacentConfig) []*opdelta.Op {
	var ops []*opdelta.Op
	seq := uint64(0)
	add := func(txn uint64, kind opdelta.OpKind, stmt string) {
		seq++
		ops = append(ops, &opdelta.Op{
			Seq: seq, Txn: txn, Kind: kind, Table: parTable, Stmt: stmt,
			Time: time.Unix(0, int64(seq)),
		})
	}
	var b strings.Builder
	b.WriteString("INSERT INTO t (id, val) VALUES ")
	n := cfg.Stripes * cfg.StripeW
	for id := 1; id <= n; id++ {
		if id > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'i%d')", id, id)
	}
	add(1, opdelta.OpInsert, b.String())
	for i := 2; i <= cfg.Stripes+1; i++ {
		lo := (i-2)*cfg.StripeW + 1
		hi := (i - 1) * cfg.StripeW
		add(uint64(i), opdelta.OpUpdate,
			fmt.Sprintf("UPDATE t SET val = 'u%d' WHERE id BETWEEN %d AND %d", i, lo, hi))
	}
	return ops
}

func runAdjacentWorkload(fsys fault.FS, cfg AdjacentConfig) error {
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
	if _, err := (&warehouse.ParallelIntegrator{W: w, Workers: cfg.Workers}).Apply(adjacentOps(cfg)); err != nil {
		return err
	}
	return db.Close()
}

// verifyAdjacent reopens the engine (running recovery on a crash image)
// and checks load atomicity, stripe atomicity, boundary isolation, and
// view consistency. complete additionally demands the full run's
// outcome — the clean-pass contract.
func verifyAdjacent(fsys fault.FS, cfg AdjacentConfig, rep *AdjacentReport, complete bool) error {
	db, err := engine.Open(parDir, parEngineOpts(fsys))
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	defer db.Close()

	n := cfg.Stripes * cfg.StripeW
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

	// 1. Load atomicity: the bulk insert is one transaction. Every
	// update conflicts with it, so nothing can run before it commits.
	if len(base) != 0 && len(base) != n {
		return fmt.Errorf("bulk load applied partially: %d/%d rows", len(base), n)
	}
	rep.Loaded = len(base) == n

	// 2. Stripe atomicity and boundary isolation: each key carries its
	// initial marker or its OWN stripe's update marker, and a stripe's
	// keys all agree.
	rep.Updated = 0
	for s := 0; s < cfg.Stripes && rep.Loaded; s++ {
		txn := s + 2
		updated := 0
		for k := 1; k <= cfg.StripeW; k++ {
			id := int64(s*cfg.StripeW + k)
			v, ok := base[id]
			if !ok {
				return fmt.Errorf("loaded base missing key %d", id)
			}
			switch v {
			case fmt.Sprintf("i%d", id):
			case fmt.Sprintf("u%d", txn):
				updated++
			default:
				// Most likely a neighbour's marker bleeding across the
				// shared stripe edge: a range-lock boundary violation.
				return fmt.Errorf("key %d (stripe %d, txn %d) has foreign value %q", id, s, txn, v)
			}
		}
		if updated != 0 && updated != cfg.StripeW {
			return fmt.Errorf("txn %d applied partially: %d/%d stripe keys updated", txn, updated, cfg.StripeW)
		}
		if updated == cfg.StripeW {
			rep.Updated++
		}
	}
	for id := range base {
		if id < 1 || id > int64(n) {
			return fmt.Errorf("phantom row id=%d val=%q", id, base[id])
		}
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
		if vv, ok := view[id]; !ok {
			return fmt.Errorf("view missing base row id=%d", id)
		} else if vv != v {
			return fmt.Errorf("view row id=%d: %q, base has %q", id, vv, v)
		}
	}
	for id := range view {
		if _, ok := base[id]; !ok {
			return fmt.Errorf("view holds phantom row id=%d", id)
		}
	}

	if complete {
		if !rep.Loaded {
			return fmt.Errorf("complete run lost the bulk load")
		}
		if rep.Updated != cfg.Stripes {
			return fmt.Errorf("complete run updated %d/%d stripes", rep.Updated, cfg.Stripes)
		}
	}
	return nil
}
