package warehouse

import (
	"testing"
	"time"

	"opdelta/internal/obs"
	"opdelta/internal/wal"
)

// TestParallelApplyTraceMonotone runs a captured workload through the
// lifecycle tracer end to end in-process: the test plays the transport
// role (Begin + EnqueuedAt + Dequeued), the parallel integrator stamps
// lock/apply/durable and completes each trace, and every completed
// record must be monotone in pipeline order with freshness covering
// the full capture->durable span. The parallel appliers stamp traces
// from several goroutines, so the race detector covers the tracer's
// hot path here too.
func TestParallelApplyTraceMonotone(t *testing.T) {
	w := equivWarehouse(t, wal.SyncFull, false)
	ops := randomOpWorkload(t, 7, 30)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, len(ops)+1)
	for _, op := range ops {
		tr := tracer.Begin(op.Seq, op.Txn, op.Time)
		tr.EnqueuedAt(time.Now().UnixNano())
		tr.Dequeued()
		op.Trace = tr
	}
	in := &ParallelIntegrator{W: w, Workers: 4}
	if _, err := in.Apply(ops); err != nil {
		t.Fatal(err)
	}

	recs := tracer.Recent(0)
	if len(recs) != len(ops) {
		t.Fatalf("completed traces = %d, want %d", len(recs), len(ops))
	}
	for _, r := range recs {
		stamps := []struct {
			name string
			ns   int64
		}{
			{"captured", r.Captured},
			{"enqueued", r.Enqueued},
			{"dequeued", r.Dequeued},
			{"locked", r.Locked},
			{"applied", r.Applied},
			{"durable", r.Durable},
		}
		prev := stamps[0]
		for _, s := range stamps[1:] {
			if s.ns == 0 {
				t.Fatalf("trace seq=%d missing %s stamp", r.Seq, s.name)
			}
			if s.ns < prev.ns {
				t.Errorf("trace seq=%d: %s (%d) precedes %s (%d)", r.Seq, s.name, s.ns, prev.name, prev.ns)
			}
			prev = s
		}
		if want := r.Durable - r.Captured; r.FreshnessNs != want {
			t.Errorf("trace seq=%d freshness = %d, want %d", r.Seq, r.FreshnessNs, want)
		}
		if r.FreshnessNs <= 0 {
			t.Errorf("trace seq=%d freshness = %d, want > 0", r.Seq, r.FreshnessNs)
		}
	}

	snap := reg.Snapshot()
	if m := snap.Get("delta_freshness_lag_seconds"); m == nil || m.Count != uint64(len(ops)) {
		t.Fatalf("freshness histogram count = %+v, want %d observations", m, len(ops))
	}
	for _, stage := range []string{"lock", "apply", "durable"} {
		m := snap.Get("delta_stage_seconds", obs.L("stage", stage))
		if m == nil || m.Count != uint64(len(ops)) {
			t.Fatalf("stage %q histogram = %+v, want %d observations", stage, m, len(ops))
		}
	}
}
