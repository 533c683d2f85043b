package simnet

import (
	"encoding/binary"
	"flag"
	"testing"
	"time"

	"opdelta/internal/fault"
	netrepl "opdelta/internal/transport/net"
)

// netseeds bounds the randomized network-fault sweep. CI soak runs
// raise it: go test ./internal/fault/simnet/ -netseeds 200
var netseeds = flag.Int("netseeds", 20, "number of distinct network-fault seeds to run")

// TestNetworkFaultSeeds is the soak sweep: for each seed, ship a
// seeded workload across a fault-injected network (hard-restarting
// both endpoints on about half the seeds) and require byte-equivalent
// convergence.
func TestNetworkFaultSeeds(t *testing.T) {
	restarts, faults := 0, uint64(0)
	for seed := int64(1); seed <= int64(*netseeds); seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rep, err := Run(Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Converged {
				t.Fatalf("seed %d: not converged: source %s, warehouse %s", seed, rep.SourceDigest, rep.WarehouseDigest)
			}
			if rep.Restarted {
				restarts++
			}
			faults += rep.Faults.Drops + rep.Faults.Dups + rep.Faults.Reorders +
				rep.Faults.Truncates + rep.Faults.Cuts + rep.Faults.DialFails
			t.Logf("seed %d: maxSeq=%d restarted=%v faults=%+v", seed, rep.MaxSeq, rep.Restarted, rep.Faults)
		})
	}
	if *netseeds >= 10 {
		if restarts == 0 {
			t.Fatalf("none of %d seeds restarted mid-stream; the scenario is inert", *netseeds)
		}
		if faults == 0 {
			t.Fatalf("no faults injected across %d seeds; the scenario is inert", *netseeds)
		}
	}
}

// TestWorkloadDeterminism re-runs seeds and demands identical source
// digests and op counts — what makes a failing seed reproducible.
func TestWorkloadDeterminism(t *testing.T) {
	for _, seed := range []int64{2, 9, 17} {
		a, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d first run: %v", seed, err)
		}
		b, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d second run: %v", seed, err)
		}
		if a.SourceDigest != b.SourceDigest || a.MaxSeq != b.MaxSeq || a.Restarted != b.Restarted {
			t.Fatalf("seed %d not deterministic:\n first: %+v\nsecond: %+v", seed, a, b)
		}
	}
}

// unchained rewrites every DELTA's prevSeq to 0. The server reads
// prevSeq only for the chain check, which a batch chaining onto 0 always
// passes, so the server behaves as the pre-fix one that had no check.
func unchained(typ byte, payload []byte) []byte {
	if typ != netrepl.FrameDelta {
		return payload
	}
	_, k := binary.Uvarint(payload)
	if k <= 0 {
		return payload
	}
	return append([]byte{0}, payload[k:]...) // uvarint 0 is one zero byte
}

// TestPreFixOutOfOrderLoss demonstrates the failure mode the DELTA
// chain check closes: with every DELTA's prevSeq rewritten to 0 on the
// wire (the pre-fix server, which had no check) and a reorder-heavy
// network, at least one seed must lose ops — the watermark jumps over a
// batch that never arrived, the skipped ops are later dropped as
// replays, and the replica silently diverges under a clean ack stream.
// The same seeds without the rewrite all converge (covered by
// TestNetworkFaultSeeds).
func TestPreFixOutOfOrderLoss(t *testing.T) {
	profile := fault.NetProfile{
		ReorderProb: 0.5,
		MaxDelay:    500 * time.Microsecond,
	}
	diverged := 0
	for seed := int64(1); seed <= 12; seed++ {
		rep, err := Run(Config{
			Seed: seed, Profile: &profile,
			Wire:    unchained,
			Timeout: 15 * time.Second,
		})
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if !rep.Converged {
			diverged++
			t.Logf("seed %d: diverged as expected (source %s, warehouse %s)", seed, rep.SourceDigest, rep.WarehouseDigest)
		}
	}
	if diverged == 0 {
		t.Fatal("pre-fix server converged on every reorder-heavy seed; the demonstration is inert")
	}
}
