package simnet

import (
	"encoding/binary"
	"flag"
	"math"
	"testing"
	"time"

	"opdelta/internal/fault"
	netrepl "opdelta/internal/transport/net"
)

// bootseeds bounds the randomized bootstrap sweep. CI soak runs raise
// it: go test ./internal/fault/simnet/ -bootseeds 200
var bootseeds = flag.Int("bootseeds", 15, "number of distinct snapshot-bootstrap seeds to run")

// TestBootstrapSeeds is the bootstrap soak: for each seed, truncate the
// source log so only the chunked snapshot can cover the pre-workload,
// race a live workload against the bootstrap across a fault-injected
// network (hard-restarting an endpoint mid-bootstrap on about half the
// seeds), and require the replica to converge byte-equivalent to the
// quiesced source.
func TestBootstrapSeeds(t *testing.T) {
	restarts, shipperOnly := 0, 0
	var chunks, chases, writesDuring uint64
	for seed := int64(1); seed <= int64(*bootseeds); seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rep, err := RunBootstrap(BootstrapConfig{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Converged {
				t.Fatalf("seed %d: not converged: source %s, warehouse %s", seed, rep.SourceDigest, rep.WarehouseDigest)
			}
			if rep.ChunksApplied == 0 {
				t.Fatalf("seed %d: converged without applying any snapshot chunk; bootstrap did not run", seed)
			}
			if rep.Restarted {
				restarts++
			}
			if rep.ShipperOnly {
				shipperOnly++
			}
			chunks += rep.ChunksApplied
			chases += rep.Chases
			writesDuring += uint64(rep.WritesDuringBootstrap)
			t.Logf("seed %d: base=%d maxSeq=%d chunkRows=%d chunks=%d chases=%d dropped=%d restarted=%v shipperOnly=%v writesDuring=%d faults=%+v",
				seed, rep.Base, rep.MaxSeq, rep.ChunkRows, rep.ChunksApplied, rep.Chases, rep.DroppedRows,
				rep.Restarted, rep.ShipperOnly, rep.WritesDuringBootstrap, rep.Faults)
		})
	}
	if *bootseeds >= 10 {
		if restarts == 0 {
			t.Fatalf("none of %d seeds restarted mid-bootstrap; the scenario is inert", *bootseeds)
		}
		if shipperOnly == 0 || shipperOnly == restarts {
			t.Logf("restart mix skewed (restarts=%d shipperOnly=%d); acceptable for small sweeps", restarts, shipperOnly)
		}
		if writesDuring == 0 {
			t.Fatalf("no live write landed during any bootstrap across %d seeds; the interleaving is inert", *bootseeds)
		}
	}
	t.Logf("sweep: %d seeds, %d restarts (%d shipper-only), %d chunks, %d chases, %d writes during bootstrap",
		*bootseeds, restarts, shipperOnly, chunks, chases, writesDuring)
}

// TestBootstrapDeterminism re-runs seeds and demands identical source
// digests, bases, and scenario decisions — what makes a failing seed
// reproducible.
func TestBootstrapDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		a, err := RunBootstrap(BootstrapConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d first run: %v", seed, err)
		}
		b, err := RunBootstrap(BootstrapConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d second run: %v", seed, err)
		}
		if a.SourceDigest != b.SourceDigest || a.Base != b.Base || a.MaxSeq != b.MaxSeq ||
			a.ChunkRows != b.ChunkRows || a.Restarted != b.Restarted || a.ShipperOnly != b.ShipperOnly {
			t.Fatalf("seed %d not deterministic:\n first: %+v\nsecond: %+v", seed, a, b)
		}
	}
}

// TestBootstrapInterleavingProperty is the interleaving property test:
// over chunk sizes 1..N and several seeds, a bootstrap whose chunk
// reads interleave with concurrent inserts, updates, and deletes must
// end byte-identical to the quiesced snapshot-then-replay baseline (the
// source digest after the writers stop — exactly what quiescing the
// source and reloading it would deliver). The network is clean and
// restarts are off, so any divergence is reconciliation, not delivery.
func TestBootstrapInterleavingProperty(t *testing.T) {
	clean := fault.NetProfile{}
	for chunkRows := 1; chunkRows <= 6; chunkRows++ {
		for _, seed := range []int64{5, 23} {
			rep, err := RunBootstrap(BootstrapConfig{
				Seed: seed, Profile: &clean,
				ChunkRows: chunkRows, DisableRestart: true,
				ChunkDelay: time.Millisecond,
			})
			if err != nil {
				t.Fatalf("chunkRows=%d seed=%d: %v", chunkRows, seed, err)
			}
			if !rep.Converged {
				t.Fatalf("chunkRows=%d seed=%d: not byte-identical to quiesced baseline: source %s, warehouse %s",
					chunkRows, seed, rep.SourceDigest, rep.WarehouseDigest)
			}
			t.Logf("chunkRows=%d seed=%d: chunks=%d chases=%d dropped=%d writesDuring=%d",
				chunkRows, seed, rep.ChunksApplied, rep.Chases, rep.DroppedRows, rep.WritesDuringBootstrap)
		}
	}
}

// TestBootstrapNoWriteOutage pins the paper-level promise that snapshot
// bootstrap never blocks writers: with one-row chunks paced 5ms apart,
// the bootstrap window is long, and the live workload must keep
// committing inside it — a snapshotter that locked the table or paused
// capture would score zero.
func TestBootstrapNoWriteOutage(t *testing.T) {
	clean := fault.NetProfile{}
	rep, err := RunBootstrap(BootstrapConfig{
		Seed: 7, Profile: &clean,
		ChunkRows: 1, ChunkDelay: 5 * time.Millisecond,
		DisableRestart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("not converged: source %s, warehouse %s", rep.SourceDigest, rep.WarehouseDigest)
	}
	if rep.WritesDuringBootstrap < 5 {
		t.Fatalf("only %d of %d live writes landed while bootstrap was reading; the source write path stalled",
			rep.WritesDuringBootstrap, 30)
	}
	t.Logf("%d live writes committed during bootstrap (%d chunks)", rep.WritesDuringBootstrap, rep.ChunksApplied)
}

// chunkWins raises every low WATERMARK's seq to math.MaxUint64. The
// delta-wins rule drops a chunk row only for an applied op above the
// chunk's low watermark, so no row is ever dropped and every chunk
// lands as read.
func chunkWins(typ byte, payload []byte) []byte {
	if typ != netrepl.FrameWatermark || len(payload) == 0 || payload[0] != 0 { // kind 0: low
		return payload
	}
	out := []byte{payload[0]}
	pos := 1
	for i := 0; i < 3; i++ { // chunk id, round, seq
		v, k := binary.Uvarint(payload[pos:])
		if k <= 0 {
			return payload
		}
		if i == 2 {
			v = math.MaxUint64
		}
		out = binary.AppendUvarint(out, v)
		pos += k
	}
	return append(out, payload[pos:]...)
}

// TestBootstrapReconciliationRegression pins the chunk-vs-delta
// reconciliation semantics with a deterministic collision: right after
// the first chunk read's transaction commits (and before the shipper
// samples the fence), one sentinel row in that chunk is updated and the
// other deleted. Both ops land inside the chunk's watermark window
// while the chunk still carries their stale rows, so the replica must
// drop both chunk rows and chase — the update because a statement delta
// replayed against the stale row would diverge, the delete because
// landing the chunk row would resurrect it. The fixed protocol
// converges with both drops visible in the counters; the broken variant
// (chunk wins: every low watermark raised to math.MaxUint64 on the
// wire, à la the pre-fix out-of-order server) must diverge — every run,
// not just unlucky ones.
func TestBootstrapReconciliationRegression(t *testing.T) {
	clean := fault.NetProfile{}
	run := func(broken bool) *BootstrapReport {
		t.Helper()
		var wire func(byte, []byte) []byte
		if broken {
			wire = chunkWins
		}
		rep, err := RunBootstrap(BootstrapConfig{
			Seed: 19, Profile: &clean,
			ChunkRows: 4, ChunkDelay: time.Millisecond,
			DisableRestart:   true,
			InjectCollisions: true,
			Wire:             wire,
			Timeout:          20 * time.Second,
		})
		if err != nil && !broken {
			t.Fatalf("fixed variant: %v", err)
		}
		if err != nil && broken {
			t.Fatalf("broken variant harness error: %v", err)
		}
		return rep
	}

	fixed := run(false)
	if !fixed.Converged {
		t.Fatalf("fixed protocol did not converge: source %s, warehouse %s", fixed.SourceDigest, fixed.WarehouseDigest)
	}
	if fixed.DroppedRows < 2 || fixed.Chases < 1 {
		t.Fatalf("fixed protocol dropped %d rows in %d chases; the injected collision never fired",
			fixed.DroppedRows, fixed.Chases)
	}

	broken := run(true)
	if broken.Converged {
		t.Fatal("chunk-wins bootstrap converged despite a stale update and a resurrected delete inside the chunk window; the regression is inert")
	}
	t.Logf("fixed: dropped=%d chases=%d; broken diverged (source %s, warehouse %s)",
		fixed.DroppedRows, fixed.Chases, broken.SourceDigest, broken.WarehouseDigest)
}
