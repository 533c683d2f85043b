package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceIDDeterministic(t *testing.T) {
	a := TraceID("src-1", 42)
	if a == 0 {
		t.Fatal("trace ID is the zero sentinel")
	}
	if TraceID("src-1", 42) != a {
		t.Fatal("same (source, seq) yields different trace IDs")
	}
	if TraceID("src-2", 42) == a || TraceID("src-1", 43) == a {
		t.Fatal("distinct inputs collide")
	}
	if SpanIDFor(a, "ship") == SpanIDFor(a, "persist") {
		t.Fatal("distinct stage names collide within a trace")
	}
	if SpanIDFor(a, "ship") == SpanIDFor(TraceID("src-2", 42), "ship") {
		t.Fatal("same stage in distinct traces collides")
	}
}

func TestSpanSampling(t *testing.T) {
	st := NewSpanTracer(NewRegistry(), 16)
	if !st.Sampled(7) {
		t.Fatal("default sampling must accept every trace")
	}
	st.SetSampleEvery(4)
	if st.Sampled(7) || !st.Sampled(8) {
		t.Fatal("1-in-4 sampling must be traceID%4 == 0")
	}
	st.SetSampleEvery(0)
	if st.Sampled(8) {
		t.Fatal("sampleEvery 0 must disable tracing")
	}
}

func TestSpanRingAndTraceSpans(t *testing.T) {
	reg := NewRegistry()
	st := NewSpanTracer(reg, 8)
	tid := TraceID("src", 1)
	// Record out of start order; TraceSpans must sort.
	st.Record(SpanRecord{TraceID: tid, SpanID: 2, Name: "ship", Source: "src", Seq: 1, StartUnixNs: 200, EndUnixNs: 300})
	st.Record(SpanRecord{TraceID: tid, SpanID: 1, Name: "capture", Source: "src", Seq: 1, StartUnixNs: 100, EndUnixNs: 200})
	st.Record(SpanRecord{TraceID: TraceID("src", 2), SpanID: 3, Name: "capture", Source: "src", Seq: 2, StartUnixNs: 400, EndUnixNs: 450})

	spans := st.TraceSpans(tid)
	if len(spans) != 2 || spans[0].Name != "capture" || spans[1].Name != "ship" {
		t.Fatalf("TraceSpans = %+v, want capture then ship", spans)
	}
	recent := st.Recent(1)
	if len(recent) != 1 || recent[0].Seq != 2 {
		t.Fatalf("Recent(1) = %+v, want newest span", recent)
	}
	traces := st.Traces(0)
	if len(traces) != 2 || traces[0].TraceID != TraceID("src", 2) || traces[1].TraceID != tid {
		t.Fatalf("Traces order = %+v, want newest trace first", traces)
	}

	snap := reg.Snapshot()
	if m := snap.Get("spans_recorded_total"); m == nil || m.Value != 3 {
		t.Fatalf("spans_recorded_total = %v, want 3", m)
	}
	if m := snap.Get("span_stage_seconds", L("stage", "capture")); m == nil || m.Count != 2 {
		t.Fatalf("capture stage count = %v, want 2", m)
	}
}

func TestSpanRingEviction(t *testing.T) {
	st := NewSpanTracer(NewRegistry(), 4)
	for i := 1; i <= 6; i++ {
		st.Record(SpanRecord{TraceID: uint64(i), SpanID: 1, Name: "s", Seq: uint64(i),
			StartUnixNs: int64(i), EndUnixNs: int64(i + 1)})
	}
	recent := st.Recent(0)
	if len(recent) != 4 || recent[0].Seq != 6 || recent[3].Seq != 3 {
		t.Fatalf("ring after wrap = %+v, want seqs 6..3", recent)
	}
}

// TestSlowRingEviction: the slow ring (16 records at the smallest span
// ring) keeps the newest slow traces once it wraps.
func TestSlowRingEviction(t *testing.T) {
	st := NewSpanTracer(NewRegistry(), 4)
	st.SetSlowThreshold(time.Millisecond)
	for i := 1; i <= 20; i++ {
		st.ObserveE2E(uint64(i), "src", uint64(i), int64(2*time.Millisecond))
	}
	seqs := func(recs []SlowRecord) []uint64 {
		var out []uint64
		for _, r := range recs {
			out = append(out, r.Seq)
		}
		return out
	}
	if got := seqs(st.Slow(0)); len(got) != 16 || got[0] != 20 || got[15] != 5 {
		t.Fatalf("slow ring after wrap = seqs %v, want 20 down to 5", got)
	}
	if got := seqs(st.Slow(3)); len(got) != 3 || got[0] != 20 || got[2] != 18 {
		t.Fatalf("Slow(3) = seqs %v, want 20, 19, 18", got)
	}
}

func TestObserveE2ESlowLog(t *testing.T) {
	reg := NewRegistry()
	st := NewSpanTracer(reg, 16)
	st.SetSlowThreshold(time.Millisecond)
	var logged string
	st.Logf = func(format string, args ...any) { logged = format }
	tid := TraceID("src", 9)
	st.Record(SpanRecord{TraceID: tid, SpanID: 1, Name: "apply", Source: "src", Seq: 9,
		StartUnixNs: 0, EndUnixNs: int64(2 * time.Millisecond)})

	// Under threshold: observed, not logged.
	st.ObserveE2E(tid, "src", 9, int64(500*time.Microsecond))
	if logged != "" || len(st.Slow(0)) != 0 {
		t.Fatalf("fast trace hit the slow log: %q %v", logged, st.Slow(0))
	}
	// Over threshold: slow ring, counter, and log line.
	st.ObserveE2E(tid, "src", 9, int64(5*time.Millisecond))
	slow := st.Slow(0)
	if len(slow) != 1 || slow[0].TraceID != tid || slow[0].LagNs != int64(5*time.Millisecond) {
		t.Fatalf("slow ring = %+v", slow)
	}
	if len(slow[0].Spans) != 1 || slow[0].Spans[0].Name != "apply" {
		t.Fatalf("slow record breakdown = %+v, want the apply span", slow[0].Spans)
	}
	if !strings.Contains(logged, "slow trace") {
		t.Fatalf("slow log line = %q", logged)
	}
	snap := reg.Snapshot()
	if m := snap.Get("spans_slow_total"); m == nil || m.Value != 1 {
		t.Fatalf("spans_slow_total = %v, want 1", m)
	}
	if m := snap.Get("span_e2e_seconds"); m == nil || m.Count != 2 {
		t.Fatalf("span_e2e_seconds count = %v, want 2", m)
	}
}

// TestSpanTracerNilSafe: every method must be a no-op on nil, so
// instrumented paths need no enabled checks.
func TestSpanTracerNilSafe(t *testing.T) {
	var st *SpanTracer
	st.SetSampleEvery(2)
	st.SetSlowThreshold(time.Second)
	if st.Sampled(4) {
		t.Fatal("nil tracer sampled a trace")
	}
	st.Record(SpanRecord{TraceID: 1})
	st.ObserveE2E(1, "src", 1, 100)
	if st.Recent(1) != nil || st.TraceSpans(1) != nil || st.Slow(1) != nil {
		t.Fatal("nil tracer returned data")
	}
}
