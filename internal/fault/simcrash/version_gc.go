package simcrash

// Crash-during-version-GC scenario: the MVCC stress for crash
// consistency. The workload bulk-loads a table, then rewrites it in
// rounds of striped autocommit transactions while a snapshot pinned
// before each round keeps reading its frozen image through the version
// chains; every round ends with an explicit full version-GC sweep. The
// SimFS dies at a sampled filesystem operation, which can land anywhere
// in that cycle — mid-stripe, between a commit and its GC pass, right
// after GC raised the AS OF low-water mark.
//
// The version store is memory-only and GC performs no I/O, so the
// design claim under test is twofold: the MVCC layer cannot perturb the
// WAL/heap crash schedule (the recovered image is exactly a committed
// prefix, same as any other workload), and recovery rebuilds a coherent
// MVCC state from nothing (fresh snapshots equal the locked scan, the
// horizon is readable, pre-crash history is correctly refused).
//
// Invariants, checked on whatever recovery finds:
//
//   - Load atomicity: the bulk insert is one transaction; the base is
//     empty or holds exactly the full key set.
//   - Stripe atomicity and prefix order: the rewrite transactions run
//     sequentially, so the recovered rounds must form an exact prefix —
//     stripe s sits at round r* while every earlier stripe sits at r*
//     and every later one at r*-1 (round 0 = initial markers).
//   - Snapshot coherence after recovery: a fresh snapshot scan is
//     byte-identical to the locked scan, and AS OF at the recovered
//     horizon reads the same image. AS OF below the recovery horizon is
//     refused as snapshot-too-old — the chains died with the process.
//
// The in-flight snapshot additionally self-checks during the workload:
// while its round's stripes are being rewritten underneath it, it must
// keep seeing the full key set with no value from its own or any later
// round.

import (
	"fmt"
	"math/rand"
	"strings"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/warehouse"
)

// VersionGCConfig parameterizes one version-GC crash run.
type VersionGCConfig struct {
	// Seed drives the crash point and crash-time disk resolution.
	Seed int64
	// Stripes is the number of rewrite transactions per round. Default 6.
	Stripes int
	// StripeW is the keys per stripe. Default 8.
	StripeW int
	// Rounds is the number of full-table rewrite rounds. Default 4.
	Rounds int
}

// VersionGCReport summarizes one run.
type VersionGCReport struct {
	Seed      int64
	TotalOps  uint64 // mutating fs ops in the clean pass
	CrashOp   uint64 // sampled crash point for the crash pass
	Crashed   bool   // false when the crash pass finished first
	Loaded    bool   // bulk load survived recovery
	Frontier  int    // committed (round,stripe) transactions recovered
	Reclaimed int    // versions reclaimed by GC in the clean pass
}

// RunVersionGC executes the clean pass, the crash pass, and the
// post-recovery verification. A non-nil error is an invariant violation.
func RunVersionGC(cfg VersionGCConfig) (*VersionGCReport, error) {
	if cfg.Stripes <= 0 {
		cfg.Stripes = 6
	}
	if cfg.StripeW <= 0 {
		cfg.StripeW = 8
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	rep := &VersionGCReport{Seed: cfg.Seed}

	clean := fault.NewSimFS(cfg.Seed)
	if err := runVersionGCWorkload(clean, cfg, rep); err != nil {
		return nil, fmt.Errorf("simcrash: version-gc clean pass: %w", err)
	}
	rep.TotalOps = clean.Ops()
	if rep.TotalOps == 0 {
		return nil, fmt.Errorf("simcrash: version-gc clean pass performed no fs ops")
	}
	if rep.Reclaimed == 0 {
		return nil, fmt.Errorf("simcrash: version-gc clean pass reclaimed nothing; the scenario is inert")
	}
	if err := verifyVersionGC(clean, cfg, rep, true); err != nil {
		return nil, fmt.Errorf("simcrash: version-gc clean pass: %w", err)
	}

	// Crash pass: the workload is single-threaded, so the op stream
	// matches the clean pass exactly and the sampled crash always fires.
	rng := rand.New(rand.NewSource(cfg.Seed*0x9E3779B9 + 13))
	rep.CrashOp = 1 + uint64(rng.Int63n(int64(rep.TotalOps)))
	crashFS := fault.NewSimFS(cfg.Seed)
	crashFS.SetScript(&fault.Script{
		CrashOp:     rep.CrashOp,
		CrashBefore: rng.Intn(2) == 0,
		TornTail:    func(path string) bool { return !strings.HasSuffix(path, ".heap") },
	})
	var workErr error
	crashed := fault.RunToCrash(func() {
		workErr = runVersionGCWorkload(crashFS, cfg, nil)
	})
	rep.Crashed = crashed || crashFS.Crashed()
	if !rep.Crashed {
		if workErr != nil {
			return nil, fmt.Errorf("simcrash: version-gc crash pass failed without crashing: %w", workErr)
		}
		// The workload outran its crash point; the verification's own
		// reopen and close must not trip it.
		crashFS.SetScript(nil)
		if err := verifyVersionGC(crashFS, cfg, rep, true); err != nil {
			return nil, fmt.Errorf("simcrash: version-gc crash pass (completed): %w", err)
		}
		return rep, nil
	}
	rebooted := crashFS.Reboot()
	if err := verifyVersionGC(rebooted, cfg, rep, false); err != nil {
		return nil, fmt.Errorf("simcrash: version-gc seed %d crash@%d: %w", cfg.Seed, rep.CrashOp, err)
	}
	return rep, nil
}

// runVersionGCWorkload loads the table, then runs the rewrite rounds
// with a pinned snapshot self-checking each round and a full GC sweep
// after it. rep, when non-nil, accumulates clean-pass GC counts.
func runVersionGCWorkload(fsys fault.FS, cfg VersionGCConfig, rep *VersionGCReport) error {
	db, err := engine.Open(parDir, parEngineOpts(fsys))
	if err != nil {
		return err
	}
	w := warehouse.New(db)
	if err := w.RegisterReplica(parTable, parSchema(), "id", ""); err != nil {
		return err
	}
	n := cfg.Stripes * cfg.StripeW
	var b strings.Builder
	b.WriteString("INSERT INTO t (id, val) VALUES ")
	for id := 1; id <= n; id++ {
		if id > 1 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'i%d')", id, id)
	}
	if _, err := db.Exec(nil, b.String()); err != nil {
		return err
	}
	for round := 1; round <= cfg.Rounds; round++ {
		stx := db.BeginSnapshot()
		for s := 0; s < cfg.Stripes; s++ {
			lo := s*cfg.StripeW + 1
			hi := (s + 1) * cfg.StripeW
			stmt := fmt.Sprintf("UPDATE t SET val = 'r%ds%d' WHERE id BETWEEN %d AND %d", round, s, lo, hi)
			if _, err := db.Exec(nil, stmt); err != nil {
				stx.Commit()
				return err
			}
			// The pinned snapshot keeps reading its frozen image while
			// this round's writes land underneath it.
			_, rows, err := db.Query(stx, "SELECT id, val FROM t")
			if err != nil {
				stx.Commit()
				return err
			}
			if len(rows) != n {
				stx.Commit()
				return fmt.Errorf("pinned snapshot saw %d rows mid-round %d, want %d", len(rows), round, n)
			}
			for _, row := range rows {
				v := row[1].Str()
				if strings.HasPrefix(v, fmt.Sprintf("r%ds", round)) {
					stx.Commit()
					return fmt.Errorf("pinned snapshot saw current-round value %q for id %d", v, row[0].Int())
				}
			}
		}
		if err := stx.Commit(); err != nil {
			return err
		}
		reclaimed := db.VersionGC()
		if rep != nil {
			rep.Reclaimed += reclaimed
		}
	}
	return db.Close()
}

// verifyVersionGC reopens the engine (running recovery on a crash
// image) and checks load atomicity, the round/stripe prefix order, and
// post-recovery snapshot coherence. complete additionally demands the
// full run's outcome.
func verifyVersionGC(fsys fault.FS, cfg VersionGCConfig, rep *VersionGCReport, complete bool) error {
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

	// 1. Load atomicity.
	if len(base) != 0 && len(base) != n {
		return fmt.Errorf("bulk load applied partially: %d/%d rows", len(base), n)
	}
	rep.Loaded = len(base) == n

	// 2. Stripe atomicity and prefix order: each stripe's keys must
	// agree on one round, and the per-stripe rounds must descend by at
	// most one at a single frontier position.
	if rep.Loaded {
		rounds := make([]int, cfg.Stripes)
		for s := 0; s < cfg.Stripes; s++ {
			r := -1
			for k := 1; k <= cfg.StripeW; k++ {
				id := int64(s*cfg.StripeW + k)
				v, ok := base[id]
				if !ok {
					return fmt.Errorf("loaded base missing key %d", id)
				}
				var kr int
				if v == fmt.Sprintf("i%d", id) {
					kr = 0
				} else if _, err := fmt.Sscanf(v, "r%ds%d", &kr, new(int)); err != nil ||
					!strings.HasSuffix(v, fmt.Sprintf("s%d", s)) {
					return fmt.Errorf("key %d (stripe %d) has foreign value %q", id, s, v)
				}
				if r == -1 {
					r = kr
				} else if r != kr {
					return fmt.Errorf("stripe %d recovered torn: rounds %d and %d coexist", s, r, kr)
				}
			}
			rounds[s] = r
		}
		rep.Frontier = 0
		for s := 0; s < cfg.Stripes; s++ {
			rep.Frontier += rounds[s]
		}
		for s := 1; s < cfg.Stripes; s++ {
			if rounds[s] > rounds[s-1] || rounds[s-1]-rounds[s] > 1 {
				return fmt.Errorf("rounds out of prefix order at stripe %d: %v", s, rounds)
			}
		}
		if complete {
			for s, r := range rounds {
				if r != cfg.Rounds {
					return fmt.Errorf("complete run left stripe %d at round %d, want %d", s, r, cfg.Rounds)
				}
			}
		}
	}

	// 3. Post-recovery MVCC coherence: fresh snapshot == locked scan,
	// AS OF at the horizon reads the same image, AS OF below the
	// recovery horizon is refused.
	if rep.Loaded {
		stx := db.BeginSnapshot()
		horizon := stx.ReadLSN()
		snap := map[int64]string{}
		_, rows, err := db.Query(stx, "SELECT id, val FROM t")
		stx.Commit()
		if err != nil {
			return fmt.Errorf("post-recovery snapshot scan: %w", err)
		}
		for _, row := range rows {
			snap[row[0].Int()] = row[1].Str()
		}
		if len(snap) != len(base) {
			return fmt.Errorf("snapshot scan %d rows, locked scan %d", len(snap), len(base))
		}
		for id, v := range base {
			if snap[id] != v {
				return fmt.Errorf("snapshot id %d = %q, locked scan %q", id, snap[id], v)
			}
		}
		_, rows, err = db.Query(nil, fmt.Sprintf("SELECT id, val FROM t AS OF %d", horizon))
		if err != nil {
			return fmt.Errorf("AS OF recovered horizon %d: %w", horizon, err)
		}
		if len(rows) != len(base) {
			return fmt.Errorf("AS OF horizon %d rows, want %d", len(rows), len(base))
		}
		if horizon > 1 {
			if _, _, err := db.Query(nil, "SELECT id FROM t AS OF 1"); err == nil ||
				!strings.Contains(err.Error(), "snapshot too old") {
				return fmt.Errorf("AS OF below the recovery horizon = %v, want snapshot-too-old", err)
			}
		}
	}
	return nil
}
