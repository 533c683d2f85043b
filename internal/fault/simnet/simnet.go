// Package simnet is a randomized network-fault soak harness for the
// replication protocol: a seeded source workload is shipped over a
// fault-injected in-memory network (drops, duplicates, reorders,
// truncations, cuts, dial failures, delays) into a warehouse, with an
// optional hard restart of the server process mid-stream, and the
// final warehouse state must be byte-equivalent to the source no
// matter what the network did.
//
// One Run is:
//
//  1. Workload pass: a deterministic DML stream (inserts, key-targeted
//     updates and deletes) runs against a source engine through the
//     op-delta capture wrapper. The source table digest is ground
//     truth.
//  2. Replication pass: a netrepl server, shipper, and applier move
//     the captured op log across a fault.Net whose fault schedule is
//     derived from the seed. Roughly half the seeds kill the server
//     and the shipper mid-stream — no SHUTDOWN frame, connections
//     severed, all shipper state lost — and restart both over the
//     server's surviving queue directory, so resume-from-durable-LSN
//     runs from a blank client against recovered server state.
//  3. Verdict: the run converges when the server acked every source
//     op, the applied log's high seq matches, and the warehouse
//     replica's digest equals the source digest. Anything else is a
//     lost or duplicated transaction.
//
// The workload, fault schedule, and restart decision are deterministic
// per seed; delivery timing is not (goroutines race), but the verdict
// must be convergence for every seed. Config.UnsafeAcceptOutOfOrder
// re-opens a pre-fix protocol hole (accepting DELTA batches that do
// not chain onto the durable watermark) so the sweep can demonstrate
// the silent-loss failure mode the chain check closes.
package simnet

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	netrepl "opdelta/internal/transport/net"
	"opdelta/internal/transport/retry"
	"opdelta/internal/wal"
	"opdelta/internal/warehouse"
)

// Config parameterizes one harness run.
type Config struct {
	// Seed drives the workload, the fault schedule, and the restart
	// decision.
	Seed int64
	// Txns is the number of source transactions. Default 24.
	Txns int
	// Timeout bounds the replication pass. Default 30s.
	Timeout time.Duration
	// Profile overrides the seed-derived fault profile when non-nil.
	Profile *fault.NetProfile
	// UnsafeAcceptOutOfOrder re-opens the pre-fix server hole: DELTA
	// batches are accepted even when they do not chain onto the durable
	// watermark. Runs with it set may (and for reorder-heavy profiles
	// do) end with Converged=false — that divergence is the point.
	UnsafeAcceptOutOfOrder bool
}

// Report summarizes one run.
type Report struct {
	Seed   int64
	Txns   int
	MaxSeq uint64 // highest op seq in the source log
	// SourceDigest fingerprints the source table — a pure function of
	// the seed, which the determinism test relies on.
	SourceDigest string
	// WarehouseDigest fingerprints the replica after the run.
	WarehouseDigest string
	// Converged: all ops acked, applied, and the digests match.
	Converged bool
	// Restarted: the server and shipper were hard-killed mid-stream and
	// restarted.
	Restarted bool
	// Faults is what the network actually injected.
	Faults fault.NetStats
}

const partsDDL = `CREATE TABLE parts (
	part_id BIGINT NOT NULL, status VARCHAR, qty BIGINT, last_modified TIMESTAMP
) PRIMARY KEY (part_id) TIMESTAMP COLUMN (last_modified)`

// fixedNow pins both engine clocks so the engine-stamped timestamp
// column matches between source and replica and digests are seed-pure.
func fixedNow() time.Time { return time.Unix(1_600_000_000, 0).UTC() }

// profileFor derives a fault schedule from the seed: every run gets a
// different mix, some nearly clean, some hostile.
func profileFor(seed int64, rng *rand.Rand) fault.NetProfile {
	return fault.NetProfile{
		Seed:         seed,
		DropProb:     0.08 * rng.Float64(),
		DupProb:      0.08 * rng.Float64(),
		ReorderProb:  0.10 * rng.Float64(),
		TruncateProb: 0.03 * rng.Float64(),
		CutProb:      0.02 * rng.Float64(),
		DialFailProb: 0.15 * rng.Float64(),
		DelayProb:    0.20 * rng.Float64(),
		MaxDelay:     500 * time.Microsecond,
	}
}

// Run executes one seeded soak and reports the verdict. A run that
// fails to converge returns a non-nil error unless the pre-fix hole is
// open (then divergence is reported, not failed, so the sweep can
// count it).
func Run(cfg Config) (*Report, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = 24
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	root, err := os.MkdirTemp("", "simnet")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Workload pass: capture a deterministic DML stream at the source.
	src, err := engine.Open(filepath.Join(root, "src"), engine.Options{WALSync: wal.SyncFlush, Now: fixedNow})
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if _, err := src.Exec(nil, partsDDL); err != nil {
		return nil, err
	}
	tbl, err := src.Table("parts")
	if err != nil {
		return nil, err
	}
	oplog, err := opdelta.NewTableLog(src)
	if err != nil {
		return nil, err
	}
	view := opdelta.ViewDef{
		Name: "slim_parts", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	capture := &opdelta.Capture{DB: src, Log: oplog, Analyzer: opdelta.NewAnalyzer(view)}
	if err := workload(capture, rng, cfg.Txns); err != nil {
		return nil, err
	}
	ops, err := oplog.Read(0)
	if err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("simnet seed %d: empty workload", cfg.Seed)
	}
	rep := &Report{Seed: cfg.Seed, Txns: cfg.Txns, MaxSeq: ops[len(ops)-1].Seq}
	if rep.SourceDigest, err = tableDigest(src, "parts"); err != nil {
		return nil, err
	}

	// Replication pass.
	profile := profileFor(cfg.Seed, rng)
	if cfg.Profile != nil {
		p := *cfg.Profile
		p.Seed = cfg.Seed
		profile = p
	}
	rep.Restarted = rng.Intn(2) == 0
	schemaOf := func(table string) (*catalog.Schema, error) {
		t, err := src.Table(table)
		if err != nil {
			return nil, err
		}
		return t.Schema, nil
	}

	wh, err := engine.Open(filepath.Join(root, "wh"), engine.Options{WALSync: wal.SyncFlush, Now: fixedNow})
	if err != nil {
		return nil, err
	}
	defer wh.Close()
	w := warehouse.New(wh)
	if err := w.RegisterReplica("parts", tbl.Schema, "part_id", "last_modified"); err != nil {
		return nil, err
	}
	applied, err := warehouse.EnsureAppliedLog(w)
	if err != nil {
		return nil, err
	}
	integ := &warehouse.ParallelIntegrator{W: w, Workers: 2, Applied: applied}

	// Every batch is traced (default 1-in-1 sampling) and marked, so the
	// soak doubles as a leak check on batch marks under faults.
	spans := obs.NewSpanTracer(obs.NewRegistry(), 512)
	pendingHandoffs := 0

	topicDir := filepath.Join(root, "topics")
	deadline := time.Now().Add(cfg.Timeout)
	runPhase := func(seedShift int64, target func(acked func() uint64) bool) (*fault.NetStats, error) {
		nw := fault.NewNet(withSeed(profile, cfg.Seed+seedShift))
		srv := netrepl.NewServer(netrepl.ServerConfig{
			Dir: topicDir, UnsafeAcceptOutOfOrder: cfg.UnsafeAcceptOutOfOrder,
			Spans: spans,
		})
		serveDone := make(chan struct{})
		go func() { defer close(serveDone); srv.Serve(nw.Listener()) }()
		topic, err := srv.Topic("src")
		if err != nil {
			return nil, err
		}
		sh := netrepl.NewShipper(netrepl.ShipperConfig{
			Source: "src", Dial: nw.Dial,
			Fetch: oplog.Read, SchemaOf: schemaOf,
			BatchOps: 3, Window: 3,
			Retry:      retry.Policy{Base: time.Millisecond, Cap: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.5},
			AckTimeout: 40 * time.Millisecond,
			PollEvery:  time.Millisecond,
			Spans:      spans,
		})
		ap := &netrepl.Applier{Topic: topic, Integrator: integ, SchemaOf: schemaOf, PollEvery: time.Millisecond, Spans: spans}
		stopShip := make(chan struct{})
		stopApply := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		var shipErr, applyErr error
		go func() { defer wg.Done(); shipErr = sh.Run(stopShip) }()
		go func() { defer wg.Done(); applyErr = ap.Run(stopApply) }()
		met := target == nil
		for target != nil && time.Now().Before(deadline) {
			if target(sh.Acked) {
				met = true
				break
			}
			time.Sleep(time.Millisecond)
		}
		// Kill order mimics the failure being simulated: the network dies
		// first (no SHUTDOWN can be delivered), then the endpoints stop,
		// and only then does the server close its queues — the applier
		// must not race a queue that Shutdown is closing.
		nw.Close()
		close(stopShip)
		close(stopApply)
		wg.Wait()
		pendingHandoffs = topic.PendingSpanHandoffs()
		srv.Shutdown()
		<-serveDone
		stats := nw.Stats()
		if applyErr != nil {
			return &stats, fmt.Errorf("simnet seed %d: applier: %w", cfg.Seed, applyErr)
		}
		if shipErr != nil {
			return &stats, fmt.Errorf("simnet seed %d: shipper: %w", cfg.Seed, shipErr)
		}
		if !met {
			return &stats, fmt.Errorf("simnet seed %d: phase timed out", cfg.Seed)
		}
		return &stats, nil
	}

	addStats := func(s *fault.NetStats) {
		if s == nil {
			return
		}
		rep.Faults.Drops += s.Drops
		rep.Faults.Dups += s.Dups
		rep.Faults.Reorders += s.Reorders
		rep.Faults.Truncates += s.Truncates
		rep.Faults.Delays += s.Delays
		rep.Faults.Cuts += s.Cuts
		rep.Faults.DialFails += s.DialFails
	}

	if rep.Restarted {
		// Phase 1 runs to roughly the middle, then everything dies hard:
		// the restarted phase gets a brand-new shipper with zero state.
		half := rep.MaxSeq / 2
		stats, err := runPhase(0, func(acked func() uint64) bool { return acked() >= half })
		addStats(stats)
		if err != nil {
			return rep, err
		}
	}
	want := rep.MaxSeq
	stats, err := runPhase(1_000_003, func(acked func() uint64) bool {
		if acked() < want {
			return false
		}
		max, err := applied.MaxSeq()
		return err == nil && max >= want
	})
	addStats(stats)
	if err != nil {
		if cfg.UnsafeAcceptOutOfOrder {
			// With the hole open, acks can stall behind dropped-and-skipped
			// ops or the run can wedge; either way it is a demonstration of
			// non-convergence, not a harness failure.
			rep.WarehouseDigest, _ = tableDigest(wh, "parts")
			return rep, nil
		}
		return rep, err
	}

	// Convergence dequeued every seq, so every pushed batch mark must
	// have been taken — a residue is an applier-side mark leak.
	if pendingHandoffs != 0 {
		return rep, fmt.Errorf("simnet seed %d: %d span handoffs leaked after convergence", cfg.Seed, pendingHandoffs)
	}
	if len(spans.Recent(1)) == 0 {
		return rep, fmt.Errorf("simnet seed %d: converged run recorded no spans", cfg.Seed)
	}

	if rep.WarehouseDigest, err = tableDigest(wh, "parts"); err != nil {
		return rep, err
	}
	rep.Converged = rep.WarehouseDigest == rep.SourceDigest
	if !rep.Converged && !cfg.UnsafeAcceptOutOfOrder {
		return rep, fmt.Errorf("simnet seed %d: replica diverged: source %s, warehouse %s",
			cfg.Seed, rep.SourceDigest, rep.WarehouseDigest)
	}
	return rep, nil
}

func withSeed(p fault.NetProfile, seed int64) fault.NetProfile {
	p.Seed = seed
	return p
}

// workload issues Txns transactions of DML against the capture
// wrapper: inserts of fresh keys, updates and deletes of live ones.
func workload(c *opdelta.Capture, rng *rand.Rand, txns int) error {
	for _, stmt := range genStatements(rng, txns) {
		if _, err := c.Exec(nil, stmt); err != nil {
			return err
		}
	}
	return nil
}

// genStatements derives the deterministic DML stream for a seed without
// executing it: inserts of fresh keys, updates and deletes of live
// ones. The rng draw order matches what workload always did, so seeds
// keep their digests; the bootstrap soak uses the pre-generated list so
// its free-running writer goroutine cannot perturb seed purity.
func genStatements(rng *rand.Rand, txns int) []string {
	stmts := make([]string, 0, txns)
	var live []int
	next := 0
	for i := 0; i < txns; i++ {
		roll := rng.Float64()
		switch {
		case len(live) > 0 && roll < 0.25:
			j := rng.Intn(len(live))
			id := live[j]
			stmts = append(stmts, fmt.Sprintf(`UPDATE parts SET status = 'hot', qty = %d WHERE part_id = %d`, rng.Intn(500), id))
		case len(live) > 1 && roll < 0.40:
			j := rng.Intn(len(live))
			id := live[j]
			live = append(live[:j], live[j+1:]...)
			stmts = append(stmts, fmt.Sprintf(`DELETE FROM parts WHERE part_id = %d`, id))
		default:
			next++
			live = append(live, next)
			stmts = append(stmts, fmt.Sprintf(`INSERT INTO parts (part_id, status, qty) VALUES (%d, 'new', %d)`, next, rng.Intn(500)))
		}
	}
	return stmts
}

// tableDigest fingerprints a table's rows, order-independently.
func tableDigest(db *engine.DB, name string) (string, error) {
	var rows []string
	if err := db.ScanTable(nil, name, func(row catalog.Tuple) error {
		rows = append(rows, fmt.Sprint(row))
		return nil
	}); err != nil {
		return "", err
	}
	sort.Strings(rows)
	crc := crc32.ChecksumIEEE([]byte(strings.Join(rows, "\n")))
	return fmt.Sprintf("%d:%08x", len(rows), crc), nil
}
