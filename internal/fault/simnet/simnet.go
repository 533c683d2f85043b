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
//  2. Replication pass: a shipper and a netrepl server move the
//     captured op log across a fault.Net whose fault schedule is
//     derived from the seed, and the server applies it through the
//     production warehouse side (netrepl.NewReplica: its integrator
//     workers, its applier poll). Roughly half the seeds kill the
//     server and the shipper mid-stream — no SHUTDOWN frame,
//     connections severed, all shipper state lost — and restart both
//     over the server's surviving queue directory, so
//     resume-from-durable-LSN runs from a blank client against
//     recovered server state.
//  3. Verdict: the run converges when the server acked every source
//     op, the applied log's high seq matches, and the warehouse
//     replica's digest equals the source digest. Anything else is a
//     lost or duplicated transaction.
//
// Kill order: the network dies first, so nothing graceful reaches
// either end; then the shipper stops; then the server's Shutdown severs
// what is left, drains its applier and closes its queues — the same
// Shutdown opdeltad -serve runs, so the soak owns no stop order of the
// warehouse side.
//
// The workload, fault schedule, and restart decision are deterministic
// per seed; delivery timing is not (goroutines race), but the verdict
// must be convergence for every seed. Config.Wire rewrites the frames
// the shipper sends, so a demonstration can re-open a hole a protocol
// rule closes (a DELTA whose prevSeq is 0 skips the chain check) and
// show the failure mode that rule prevents.
package simnet

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
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
	// Wire, when set, rewrites the payload of every frame the shipper
	// sends before the network sees it. A demonstration uses it to
	// re-open a protocol hole; runs with it set may end with
	// Converged=false — that divergence is the point.
	Wire func(typ byte, payload []byte) []byte
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
// fails to converge returns a non-nil error unless cfg.Wire opens a
// hole (then divergence is reported, not failed, so the sweep can
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
	src, err := openSource(root)
	if err != nil {
		return nil, err
	}
	defer src.db.Close()
	if err := workload(src.capture, rng, cfg.Txns); err != nil {
		return nil, err
	}
	ops, err := src.oplog.Read(0)
	if err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("simnet seed %d: empty workload", cfg.Seed)
	}
	rep := &Report{Seed: cfg.Seed, Txns: cfg.Txns, MaxSeq: ops[len(ops)-1].Seq}
	if rep.SourceDigest, err = tableDigest(src.db, "parts"); err != nil {
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

	// Every batch is traced (default 1-in-1 sampling) and marked, so the
	// soak doubles as a leak check on batch marks under faults.
	spans := obs.NewSpanTracer(obs.NewRegistry(), 512)
	pendingHandoffs := 0

	// The warehouse engine outlives the server restart; each server
	// incarnation applies into the same replica.
	wh, replica, err := openReplica(filepath.Join(root, "wh"), src.schema, nil, spans)
	if err != nil {
		return nil, err
	}
	defer wh.Close()

	topicDir := filepath.Join(root, "topics")
	deadline := time.Now().Add(cfg.Timeout)
	runPhase := func(seedShift int64, target func(acked func() uint64) bool) (fault.NetStats, error) {
		nw := fault.NewNet(withSeed(profile, cfg.Seed+seedShift))
		srv := netrepl.NewServer(netrepl.ServerConfig{
			Dir: topicDir, Spans: spans,
			Replica: func(string) (*netrepl.Replica, error) { return replica, nil },
		})
		served := serve(srv, nw)
		topic, err := srv.Topic("src")
		if err != nil {
			return nw.Stats(), err
		}
		sh := startShipper(nw, src, nil, spans, cfg.Wire)
		met := target == nil
		for target != nil && time.Now().Before(deadline) {
			if target(sh.Acked) {
				met = true
				break
			}
			time.Sleep(time.Millisecond)
		}
		// The network dies first (no SHUTDOWN can be delivered), then the
		// shipper, then the server, which drains its applier.
		shipErr := sh.kill(nw)
		applyErr := srv.Shutdown()
		<-served
		pendingHandoffs = topic.PendingSpanHandoffs()
		stats := nw.Stats()
		if applyErr != nil {
			return stats, fmt.Errorf("simnet seed %d: %w", cfg.Seed, applyErr)
		}
		if shipErr != nil {
			return stats, fmt.Errorf("simnet seed %d: shipper: %w", cfg.Seed, shipErr)
		}
		if !met {
			return stats, fmt.Errorf("simnet seed %d: phase timed out", cfg.Seed)
		}
		return stats, nil
	}

	if rep.Restarted {
		// Phase 1 runs to roughly the middle, then everything dies hard:
		// the restarted phase gets a brand-new shipper with zero state.
		half := rep.MaxSeq / 2
		stats, err := runPhase(0, func(acked func() uint64) bool { return acked() >= half })
		rep.Faults.Add(stats)
		if err != nil {
			return rep, err
		}
	}
	want := rep.MaxSeq
	stats, err := runPhase(1_000_003, func(acked func() uint64) bool {
		if acked() < want {
			return false
		}
		max, err := replica.Integrator.Applied.MaxSeq()
		return err == nil && max >= want
	})
	rep.Faults.Add(stats)
	if err != nil {
		if cfg.Wire != nil {
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
	if !rep.Converged && cfg.Wire == nil {
		return rep, fmt.Errorf("simnet seed %d: replica diverged: source %s, warehouse %s",
			cfg.Seed, rep.SourceDigest, rep.WarehouseDigest)
	}
	return rep, nil
}

// source is a soak's source side: an engine with the parts table, the
// op log, and the capture wrapper that fills it through the slim_parts
// analyzer view.
type source struct {
	db      *engine.DB
	oplog   *opdelta.TableLog
	capture *opdelta.Capture
	schema  *catalog.Schema // of parts
}

// openSource creates the source under root/src.
func openSource(root string) (_ *source, err error) {
	db, err := engine.Open(filepath.Join(root, "src"), engine.Options{WALSync: wal.SyncFlush, Now: fixedNow})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			db.Close()
		}
	}()
	if _, err := db.Exec(nil, partsDDL); err != nil {
		return nil, err
	}
	tbl, err := db.Table("parts")
	if err != nil {
		return nil, err
	}
	oplog, err := opdelta.NewTableLog(db)
	if err != nil {
		return nil, err
	}
	view := opdelta.ViewDef{
		Name: "slim_parts", Source: "parts",
		Project:  []string{"part_id", "status"},
		SourcePK: "part_id", SourceTS: "last_modified",
	}
	capture := &opdelta.Capture{DB: db, Log: oplog, Analyzer: opdelta.NewAnalyzer(view)}
	return &source{db: db, oplog: oplog, capture: capture, schema: tbl.Schema}, nil
}

// openReplica opens the warehouse engine under dir with a parts replica
// of schema, as the Replica of source "src"; reg and spans go to its
// bootstrapper.
func openReplica(dir string, schema *catalog.Schema, reg *obs.Registry, spans *obs.SpanTracer) (*engine.DB, *netrepl.Replica, error) {
	db, err := engine.Open(dir, engine.Options{WALSync: wal.SyncFlush, Now: fixedNow})
	if err != nil {
		return nil, nil, err
	}
	w := warehouse.New(db)
	err = w.RegisterReplica("parts", schema, "part_id", "last_modified")
	var r *netrepl.Replica
	if err == nil {
		r, err = netrepl.NewReplica(w, "src", reg, spans)
	}
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, r, nil
}

// serve runs srv on nw's listener; the channel closes when Serve
// returns, which it does once nw is closed.
func serve(srv *netrepl.Server, nw *fault.Net) chan struct{} {
	served := make(chan struct{})
	go func() { defer close(served); srv.Serve(nw.Listener()) }()
	return served
}

// shipper is a soak's running shipper.
type shipper struct {
	*netrepl.Shipper
	stop chan struct{}
	done chan error
}

// startShipper ships src's op log over nw on the soak's tight timers;
// snap, when set, serves snapshot bootstraps, and wire, when set,
// rewrites every frame the shipper sends.
func startShipper(nw *fault.Net, src *source, snap *opdelta.Snapshotter, spans *obs.SpanTracer, wire func(byte, []byte) []byte) *shipper {
	dial := nw.Dial
	if wire != nil {
		dial = func() (net.Conn, error) {
			c, err := nw.Dial()
			if err != nil {
				return nil, err
			}
			return wireConn{Conn: c, wire: wire}, nil
		}
	}
	sh := &shipper{
		Shipper: netrepl.NewShipper(netrepl.ShipperConfig{
			Source: "src", Dial: dial,
			Fetch: src.oplog.Read, SchemaOf: src.db.Schema,
			Snapshot: snap,
			BatchOps: 3, Window: 3,
			Retry:      retry.Policy{Base: time.Millisecond, Cap: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.5},
			AckTimeout: 40 * time.Millisecond,
			PollEvery:  time.Millisecond,
			Spans:      spans,
		}),
		stop: make(chan struct{}),
		done: make(chan error, 1),
	}
	go func() { sh.done <- sh.Run(sh.stop) }()
	return sh
}

// wireConn rewrites each frame written on it through wire.
// netrepl.WriteFrame makes one Write per frame, so a Write is one
// whole frame.
type wireConn struct {
	net.Conn
	wire func(typ byte, payload []byte) []byte
}

func (c wireConn) Write(p []byte) (int, error) {
	typ, flags, payload, err := netrepl.ReadFrame(bytes.NewReader(p))
	if err != nil {
		return 0, err
	}
	if _, err := c.Conn.Write(netrepl.AppendFrame(nil, typ, flags, c.wire(typ, payload))); err != nil {
		return 0, err
	}
	return len(p), nil
}

// kill cuts nw — nothing graceful can be delivered — then stops the
// shipper and returns its error.
func (sh *shipper) kill(nw *fault.Net) error {
	nw.Close()
	close(sh.stop)
	return <-sh.done
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
