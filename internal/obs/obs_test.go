package obs

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if c2 := r.Counter("x_total"); c2 != c {
		t.Fatalf("re-lookup returned a different handle")
	}
	if c3 := r.Counter("x_total", L("a", "b")); c3 == c {
		t.Fatalf("different labels returned the same handle")
	}
}

func TestCounterAddDuration(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wait_nanos_total")
	c.AddDuration(3 * time.Millisecond)
	c.AddDuration(-time.Second) // negative durations are dropped
	if got := c.Value(); got != 3e6 {
		t.Fatalf("Value = %d, want 3e6", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestLabelOrderInsignificant(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", L("x", "1"), L("y", "2"))
	b := r.Counter("c_total", L("y", "2"), L("x", "1"))
	if a != b {
		t.Fatalf("label order changed series identity")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on type mismatch")
		}
	}()
	r.Gauge("m")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // le=0.001
	h.Observe(0.001)  // le=0.001 (upper bound inclusive)
	h.Observe(0.05)   // le=0.1
	h.Observe(5)      // +Inf
	if got := h.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	want := 0.0005 + 0.001 + 0.05 + 5
	if got := h.Sum(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	m := r.Snapshot().Get("lat_seconds")
	if m == nil {
		t.Fatalf("histogram missing from snapshot")
	}
	wantCum := []uint64{2, 2, 3, 4}
	for i, b := range m.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(m.Buckets[len(m.Buckets)-1].LE, 1) {
		t.Fatalf("last bucket le = %v, want +Inf", m.Buckets[len(m.Buckets)-1].LE)
	}
}

func TestFuncBackedMetrics(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("ratio", func() float64 { return v })
	if got := r.Snapshot().Get("ratio").Value; got != 1.5 {
		t.Fatalf("gauge func = %v, want 1.5", got)
	}
	// Replacement semantics: a re-opened component re-points the series.
	r.GaugeFunc("ratio", func() float64 { return 9 })
	if got := r.Snapshot().Get("ratio").Value; got != 9 {
		t.Fatalf("replaced gauge func = %v, want 9", got)
	}
	r.CounterFunc("reads_total", func() float64 { return 7 })
	m := r.Snapshot().Get("reads_total")
	if m.Type != TypeCounter || m.Value != 7 {
		t.Fatalf("counter func = %+v", m)
	}
}

// TestConcurrentHammer pounds one counter, one histogram, and one gauge
// from many goroutines; run under -race it proves the hot paths are
// data-race-free, and the totals prove no increment is lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total")
	h := r.Histogram("hammer_seconds", DurationBuckets)
	g := r.Gauge("hammer_depth")
	const goroutines = 16
	const perG = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshots while writers run: the race detector checks
	// the reader side too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := r.Snapshot()
				_ = s.Text()
			}
		}
	}()
	var writers sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(float64(j%100) * 1e-6)
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

// TestGoldenExposition locks the exact Prometheus text rendering of a
// representative registry against testdata/exposition.golden.
func TestGoldenExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("opdelta_captured_total").Add(12)
	r.Counter("txn_table_lock_waits_total", L("table", "sales")).Add(3)
	r.Counter("txn_table_lock_waits_total", L("table", "line\"item\\x")).Add(1)
	r.Gauge("transport_queue_depth_bytes").Set(4096)
	h := r.Histogram("wal_fsync_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0004)
	h.Observe(0.002)
	h.Observe(0.5)
	// A labeled histogram: the label set must render identically on the
	// _bucket, _sum and _count series.
	lh := r.Histogram("span_stage_seconds", []float64{0.01, 0.1}, L("stage", "apply"))
	lh.Observe(0.005)
	lh.Observe(0.25)
	r.GaugeFunc("storage_pool_hit_ratio", func() float64 { return 0.75 }, L("pool", "sales"))

	got := r.Snapshot().Text()
	if err := ValidateExposition([]byte(got)); err != nil {
		t.Fatalf("own output fails validation: %v", err)
	}

	golden := filepath.Join("testdata", "exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		os.MkdirAll("testdata", 0o755)
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestValidateExposition(t *testing.T) {
	good := []string{
		"# HELP foo something\n# TYPE foo counter\nfoo 1\n",
		`foo{a="b",c="d\"e\\f"} 2.5` + "\n",
		"foo_bucket{le=\"+Inf\"} 3\nfoo_sum 1.5e-06\nfoo_count 3\n",
		"foo 1 1712345678\n",
		"",
	}
	for _, g := range good {
		if err := ValidateExposition([]byte(g)); err != nil {
			t.Errorf("valid input rejected: %v", err)
		}
	}
	bad := []string{
		"foo\n",
		"foo bar\n",
		"{a=\"b\"} 1\n",
		"foo{a=b} 1\n",
		"foo{a=\"b} 1\n",
		"foo{a=\"b\"} 1 nope\n",
		"foo{a=\"b\" 1\n",
	}
	for _, b := range bad {
		if err := ValidateExposition([]byte(b)); err == nil {
			t.Errorf("invalid input accepted: %q", b)
		}
	}
}

func TestTracerLifecycle(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 4)
	start := time.Now().Add(-10 * time.Millisecond)
	trace := tr.Begin(7, 3, start)
	trace.EnqueuedAt(time.Now().UnixNano())
	trace.Dequeued()
	trace.Locked()
	trace.Applied()
	trace.Durable()
	trace.Done()

	recs := tr.Recent(10)
	if len(recs) != 1 {
		t.Fatalf("Recent = %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Seq != 7 || rec.Txn != 3 {
		t.Fatalf("record identity = %+v", rec)
	}
	// Monotone stamps along the pipeline.
	seqNs := []int64{rec.Captured, rec.Enqueued, rec.Dequeued, rec.Locked, rec.Applied, rec.Durable}
	for i := 1; i < len(seqNs); i++ {
		if seqNs[i] < seqNs[i-1] {
			t.Fatalf("stamp %d (%d) earlier than stamp %d (%d)", i, seqNs[i], i-1, seqNs[i-1])
		}
	}
	if rec.FreshnessNs < 10*time.Millisecond.Nanoseconds() {
		t.Fatalf("freshness = %dns, want >= 10ms", rec.FreshnessNs)
	}
	s := r.Snapshot()
	if m := s.Get("delta_freshness_lag_seconds"); m == nil || m.Count != 1 {
		t.Fatalf("freshness histogram = %+v", m)
	}
	for _, stage := range stages {
		if m := s.Get("delta_stage_seconds", L("stage", stage)); m == nil || m.Count != 1 {
			t.Fatalf("stage %q histogram = %+v", stage, m)
		}
	}
	if v := s.Get("delta_traces_total"); v == nil || v.Value != 1 {
		t.Fatalf("delta_traces_total = %+v", v)
	}
}

func TestTracerRingWraps(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 3)
	for i := uint64(1); i <= 5; i++ {
		trace := tr.Begin(i, i, time.Now())
		trace.Durable()
		trace.Done()
	}
	recs := tr.Recent(10)
	if len(recs) != 3 {
		t.Fatalf("ring kept %d, want 3", len(recs))
	}
	// Newest first: 5, 4, 3.
	for i, want := range []uint64{5, 4, 3} {
		if recs[i].Seq != want {
			t.Fatalf("recs[%d].Seq = %d, want %d", i, recs[i].Seq, want)
		}
	}
}

func TestNilTracerAndTrace(t *testing.T) {
	var tr *Tracer
	trace := tr.Begin(1, 1, time.Now())
	trace.EnqueuedAt(time.Now().UnixNano())
	trace.Dequeued()
	trace.Locked()
	trace.Applied()
	trace.Durable()
	trace.Done()
	if got := tr.Recent(5); got != nil {
		t.Fatalf("nil tracer Recent = %v, want nil", got)
	}
}

func TestTracerPartialStamps(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 4)
	// A trace that skipped the queue entirely: only apply-side stamps.
	trace := tr.Begin(1, 1, time.Now())
	trace.Applied()
	trace.Durable()
	trace.Done()
	s := r.Snapshot()
	if m := s.Get("delta_stage_seconds", L("stage", StageQueue)); m.Count != 0 {
		t.Fatalf("queue stage observed %d times despite missing stamps", m.Count)
	}
	if m := s.Get("delta_stage_seconds", L("stage", StageDurable)); m.Count != 1 {
		t.Fatalf("durable stage = %d observations, want 1", m.Count)
	}
	if m := s.Get("delta_freshness_lag_seconds"); m.Count != 1 {
		t.Fatalf("freshness = %d observations, want 1", m.Count)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", DurationBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-6)
			i++
		}
	})
}
