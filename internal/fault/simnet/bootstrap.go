package simnet

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"opdelta/internal/engine"
	"opdelta/internal/fault"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	netrepl "opdelta/internal/transport/net"
)

// BootstrapConfig parameterizes one snapshot-bootstrap soak run: a
// pre-workload is captured and then truncated out of the source log, so
// a bare replica can only converge through the watermark-bracketed
// chunked snapshot, while a live workload keeps writing at the source
// for the whole bootstrap.
type BootstrapConfig struct {
	// Seed drives the workloads, the fault schedule, the chunk size, and
	// the restart decisions.
	Seed int64
	// PreTxns is the number of transactions captured before the log is
	// truncated (the state only the snapshot can deliver). Default 40.
	PreTxns int
	// LiveTxns is the number of transactions racing the bootstrap.
	// Default 30.
	LiveTxns int
	// Timeout bounds the whole replication pass. Default 60s.
	Timeout time.Duration
	// Profile overrides the seed-derived fault profile when non-nil.
	Profile *fault.NetProfile
	// ChunkRows fixes the snapshot chunk size; 0 derives 1..8 from the
	// seed.
	ChunkRows int
	// ChunkDelay paces the shipper between chunks so bootstrap reliably
	// overlaps the live workload. Default 2ms.
	ChunkDelay time.Duration
	// DisableRestart forces a single uninterrupted pass (the property
	// test's clean-schedule mode).
	DisableRestart bool
	// Wire, when set, rewrites the payload of every frame the shipper
	// sends before the network sees it (Config.Wire). A low WATERMARK
	// raised to math.MaxUint64 opens the reconciliation hole: no chunk
	// row is dropped for a colliding delta. Runs with it set may (and
	// with InjectCollisions must) end with Converged=false — that
	// divergence is the point.
	Wire func(typ byte, payload []byte) []byte
	// InjectCollisions plants two sentinel rows below every workload key
	// and, right after the first chunk read's transaction commits (before
	// the shipper samples the fence), updates one and deletes the other.
	// Both land inside the first chunk's watermark window while the chunk
	// carries their stale rows — the exact race delta-wins reconciliation
	// must resolve, deterministically, every run. Use ChunkRows >= 2 so
	// both sentinels sit in the first chunk.
	InjectCollisions bool
}

// BootstrapReport summarizes one bootstrap soak run.
type BootstrapReport struct {
	Seed int64
	// Base is the source log truncation boundary: ops <= Base exist only
	// as table state, never as replayable deltas.
	Base uint64
	// MaxSeq is the highest op seq after the live workload quiesced.
	MaxSeq    uint64
	ChunkRows int
	// SourceDigest fingerprints the quiesced source table — what a full
	// reload would deliver, the byte-equivalence target.
	SourceDigest string
	// WarehouseDigest fingerprints the replica after the run.
	WarehouseDigest string
	// Converged: bootstrap finished, every live op applied, digests match.
	Converged bool
	// Restarted: an endpoint was hard-killed mid-bootstrap and restarted.
	Restarted bool
	// ShipperOnly: only the shipper died (server and applier survived);
	// otherwise a restart kills the whole replica process.
	ShipperOnly bool
	// ChunksApplied / Chases / DroppedRows are the replica-side
	// reconciliation counters summed across replica incarnations.
	ChunksApplied uint64
	Chases        uint64
	DroppedRows   uint64
	// WritesDuringBootstrap counts live source commits that landed while
	// chunk reads were in flight — the no-write-outage evidence.
	WritesDuringBootstrap int
	// Faults is what the network actually injected, summed across nets.
	Faults fault.NetStats
}

// bootReplica is one incarnation of the warehouse process: the engine,
// its replica, and the server applying into it.
type bootReplica struct {
	db      *engine.DB
	replica *netrepl.Replica
	reg     *obs.Registry
	srv     *netrepl.Server
	served  chan struct{} // closed when the current Serve returns
}

// RunBootstrap executes one seeded bootstrap soak and reports the
// verdict. A run that fails to converge returns a non-nil error unless
// cfg.Wire opens a hole (then divergence is reported, not failed, so
// the regression sweep can count it).
func RunBootstrap(cfg BootstrapConfig) (*BootstrapReport, error) {
	if cfg.PreTxns <= 0 {
		cfg.PreTxns = 40
	}
	if cfg.LiveTxns <= 0 {
		cfg.LiveTxns = 30
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.ChunkDelay <= 0 {
		cfg.ChunkDelay = 2 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	root, err := os.MkdirTemp("", "simboot")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Source: capture the pre-workload, then truncate it out of the log.
	src, err := openSource(root)
	if err != nil {
		return nil, err
	}
	defer src.db.Close()
	oplog, capture := src.oplog, src.capture
	stmts := genStatements(rng, cfg.PreTxns+cfg.LiveTxns)
	for _, s := range stmts[:cfg.PreTxns] {
		if _, err := capture.Exec(nil, s); err != nil {
			return nil, err
		}
	}
	if cfg.InjectCollisions {
		// Sentinels sort below every generated key (those start at 1), so
		// they land in the first chunk and the generated live workload
		// never touches them — a wrongly kept stale row stays divergent.
		for _, s := range []string{
			`INSERT INTO parts (part_id, status, qty) VALUES (0, 'pin', 1)`,
			`INSERT INTO parts (part_id, status, qty) VALUES (-1, 'pin', 1)`,
		} {
			if _, err := capture.Exec(nil, s); err != nil {
				return nil, err
			}
		}
	}
	base := oplog.Seq()
	if base == 0 {
		return nil, fmt.Errorf("simboot seed %d: empty pre-workload", cfg.Seed)
	}
	if err := oplog.Truncate(base); err != nil {
		return nil, err
	}
	rep := &BootstrapReport{Seed: cfg.Seed, Base: base}

	// Every seed-derived decision happens before any goroutine starts,
	// so concurrent delivery timing cannot perturb the rng draw order.
	profile := profileFor(cfg.Seed, rng)
	if cfg.Profile != nil {
		p := *cfg.Profile
		p.Seed = cfg.Seed
		profile = p
	}
	rep.ChunkRows = cfg.ChunkRows
	if rep.ChunkRows <= 0 {
		rep.ChunkRows = 1 + rng.Intn(8)
	}
	rep.Restarted = !cfg.DisableRestart && rng.Intn(2) == 0
	rep.ShipperOnly = rep.Restarted && rng.Intn(2) == 0

	// bootReading flips up at the first chunk read and down once the run
	// is durably done; live commits landing in between are the proof the
	// source took writes throughout bootstrap.
	var bootReading atomic.Bool
	var writesDuring atomic.Int64
	snap := &opdelta.Snapshotter{
		DB: src.db, Log: oplog,
		Tables:     []string{"parts"},
		ChunkRows:  rep.ChunkRows,
		ChunkDelay: cfg.ChunkDelay,
		BeforeRead: func(string) { bootReading.Store(true) },
	}
	if cfg.InjectCollisions {
		// After the first chunk read commits and before the fence: the
		// chunk holds both sentinels' stale rows, and these two ops land
		// inside its watermark window. The replica must drop the stale
		// update target and refuse the resurrection of the deleted row.
		var once sync.Once
		snap.AfterRead = func(string) {
			once.Do(func() {
				// An exec failure here surfaces as divergence: the source
				// moves on, the replica cannot follow.
				capture.Exec(nil, `UPDATE parts SET status = 'moved', qty = 7777 WHERE part_id = 0`)
				capture.Exec(nil, `DELETE FROM parts WHERE part_id = -1`)
			})
		}
	}

	// Live workload: a free-running writer draining the pre-generated
	// statement list — it never touches the rng, and nothing downstream
	// ever blocks it.
	liveStmts := stmts[cfg.PreTxns:]
	liveDone := make(chan struct{})
	var liveErr error
	startLive := func() {
		go func() {
			defer close(liveDone)
			for _, s := range liveStmts {
				if _, err := capture.Exec(nil, s); err != nil {
					liveErr = err
					return
				}
				if bootReading.Load() {
					writesDuring.Add(1)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}

	whDir := filepath.Join(root, "wh")
	topicDir := filepath.Join(root, "topics")
	deadline := time.Now().Add(cfg.Timeout)

	startServer := func(nw *fault.Net) (*bootReplica, error) {
		r := &bootReplica{reg: obs.NewRegistry()}
		var err error
		if r.db, r.replica, err = openReplica(whDir, src.schema, r.reg, nil); err != nil {
			return nil, err
		}
		r.srv = netrepl.NewServer(netrepl.ServerConfig{
			Dir: topicDir, Obs: r.reg,
			Replica: func(string) (*netrepl.Replica, error) { return r.replica, nil },
		})
		r.served = serve(r.srv, nw)
		return r, nil
	}
	harvest := func(r *bootReplica) {
		l := obs.L("source", "src")
		rep.ChunksApplied += r.reg.Counter("netrepl_bootstrap_chunks_total", l).Value()
		rep.Chases += r.reg.Counter("netrepl_bootstrap_chases_total", l).Value()
		rep.DroppedRows += r.reg.Counter("netrepl_bootstrap_dropped_rows_total", l).Value()
	}
	// stopServer kills the network and the shipper, then shuts the
	// server down, which drains its applier. The replica engine stays
	// open so the caller can digest it; close it via r.db when done.
	stopServer := func(r *bootReplica, nw *fault.Net, sh *shipper) error {
		shipErr := sh.kill(nw)
		applyErr := r.srv.Shutdown()
		<-r.served
		rep.Faults.Add(nw.Stats())
		harvest(r)
		if applyErr != nil {
			return fmt.Errorf("simboot seed %d: %w", cfg.Seed, applyErr)
		}
		if shipErr != nil {
			return fmt.Errorf("simboot seed %d: shipper: %w", cfg.Seed, shipErr)
		}
		return nil
	}

	waitUntil := func(cond func() bool) bool {
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}
	// midBootstrap: at least one chunk is durable but the run is not
	// finished — the restart lands mid-bootstrap (a very fast seed may
	// already be done; restarting then exercises the done-run handshake).
	midBootstrap := func(r *bootReplica) func() bool {
		return func() bool {
			m, err := r.replica.Bootstrap.Log.Meta()
			if err != nil {
				return false
			}
			if m.Done {
				return true
			}
			prog, err := r.replica.Bootstrap.Log.Progress()
			return err == nil && len(prog) > 0
		}
	}
	// converged: the live workload has quiesced, the bootstrap run is
	// durably done, and every live delta is durably applied.
	converged := func(r *bootReplica) func() bool {
		return func() bool {
			select {
			case <-liveDone:
			default:
				return false
			}
			m, err := r.replica.Bootstrap.Log.Meta()
			if err != nil || !m.Done {
				return false
			}
			bootReading.Store(false)
			max, err := r.replica.Integrator.Applied.MaxSeq()
			return err == nil && max >= oplog.Seq()
		}
	}

	finish := func(r *bootReplica, nw *fault.Net, sh *shipper, met bool) error {
		stopErr := stopServer(r, nw, sh)
		// liveErr is owned by the writer goroutine until liveDone closes;
		// on a timeout the workload may still be running, so only read it
		// behind the channel.
		var lerr error
		select {
		case <-liveDone:
			lerr = liveErr
		default:
		}
		if lerr == nil {
			rep.MaxSeq = oplog.Seq()
			if rep.SourceDigest, err = tableDigest(src.db, "parts"); err != nil {
				return err
			}
			if rep.WarehouseDigest, err = tableDigest(r.db, "parts"); err != nil {
				return err
			}
		}
		closeErr := r.db.Close()
		if lerr != nil {
			return fmt.Errorf("simboot seed %d: live workload: %w", cfg.Seed, lerr)
		}
		if stopErr != nil {
			return stopErr
		}
		if closeErr != nil {
			return closeErr
		}
		rep.WritesDuringBootstrap = int(writesDuring.Load())
		rep.Converged = met && rep.WarehouseDigest == rep.SourceDigest
		if !rep.Converged && cfg.Wire == nil {
			if !met {
				return fmt.Errorf("simboot seed %d: timed out before convergence (source %s, warehouse %s)",
					cfg.Seed, rep.SourceDigest, rep.WarehouseDigest)
			}
			return fmt.Errorf("simboot seed %d: replica diverged: source %s, warehouse %s",
				cfg.Seed, rep.SourceDigest, rep.WarehouseDigest)
		}
		return nil
	}

	nw1 := fault.NewNet(withSeed(profile, cfg.Seed))
	r1, err := startServer(nw1)
	if err != nil {
		return rep, err
	}
	ship1 := startShipper(nw1, src, snap, nil, cfg.Wire)
	startLive()

	if !rep.Restarted {
		met := waitUntil(converged(r1))
		return rep, finish(r1, nw1, ship1, met)
	}

	if !waitUntil(midBootstrap(r1)) {
		err := stopServer(r1, nw1, ship1)
		r1.db.Close()
		if err != nil {
			return rep, err
		}
		return rep, fmt.Errorf("simboot seed %d: no chunk landed before restart deadline", cfg.Seed)
	}

	if rep.ShipperOnly {
		// Hard-kill the shipper's world: the network dies first, so its
		// in-flight chunk and window state are simply gone, then a brand
		// new shipper resumes from the replica's durable progress. The
		// server, its applier, and the warehouse engine never stop; the
		// server just serves the new network.
		err := ship1.kill(nw1)
		rep.Faults.Add(nw1.Stats())
		if err != nil {
			r1.srv.Shutdown()
			<-r1.served
			r1.db.Close()
			return rep, fmt.Errorf("simboot seed %d: shipper: %w", cfg.Seed, err)
		}
		<-r1.served // Serve returned when nw1's listener died
		nw2 := fault.NewNet(withSeed(profile, cfg.Seed+1_000_003))
		r1.served = serve(r1.srv, nw2)
		ship2 := startShipper(nw2, src, snap, nil, cfg.Wire)
		met := waitUntil(converged(r1))
		return rep, finish(r1, nw2, ship2, met)
	}

	// Whole-replica restart: server, applier, and the warehouse engine
	// all die with the connections severed; the second incarnation must
	// resume mid-bootstrap from the durable BootstrapLog.
	if err := stopServer(r1, nw1, ship1); err != nil {
		r1.db.Close()
		return rep, err
	}
	if err := r1.db.Close(); err != nil {
		return rep, err
	}
	nw2 := fault.NewNet(withSeed(profile, cfg.Seed+1_000_003))
	r2, err := startServer(nw2)
	if err != nil {
		return rep, err
	}
	ship2 := startShipper(nw2, src, snap, nil, cfg.Wire)
	met := waitUntil(converged(r2))
	return rep, finish(r2, nw2, ship2, met)
}
