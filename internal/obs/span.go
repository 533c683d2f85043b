package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Span-based distributed tracing for the replication path. The
// lifecycle Tracer (trace.go) stamps the six in-process stages of one
// delta; spans generalize that across process boundaries: each stage
// becomes a span with a start, an end, and a parent link, and the
// (traceID, spanID, captureUnixNs) context rides the netrepl wire so
// the shipper's capture/ship spans and the server's
// persist/queue/apply/durable spans join into one tree keyed by trace
// ID. IDs are derived deterministically (FNV-1a over source and
// sequence number), so a redelivered batch reuses its trace rather
// than minting an orphan, and head sampling — a pure function of the
// trace ID — makes the same decision on both sides of the wire
// without coordination.

// TraceContext is the span context propagated across the wire as a
// frame trailer: which trace the frame belongs to, the sending span
// (the receiver's parent), and when the oldest op in the frame was
// captured at the source, in the source's clock.
type TraceContext struct {
	TraceID       uint64
	SpanID        uint64
	CaptureUnixNs int64
}

// Zero reports whether the context is absent.
func (tc TraceContext) Zero() bool { return tc.TraceID == 0 }

// TraceID derives the deterministic trace ID for a batch: FNV-1a over
// the source name and the batch's last sequence number. Deterministic
// derivation means a reconnect-and-resend of the same batch lands in
// the same trace, and the shipper and server agree on the sampling
// decision without exchanging it.
func TraceID(source string, seq uint64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(source); i++ {
		h ^= uint64(source[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= (seq >> (8 * i)) & 0xff
		h *= prime64
	}
	if h == 0 { // zero is the "no trace" sentinel
		h = prime64
	}
	return h
}

// SpanIDFor derives a span ID from its trace and stage name, so the
// two halves of a cross-process parent link (the server naming its
// "persist" span, the applier parenting "queue" under it) agree
// without shipping the ID both ways.
func SpanIDFor(traceID uint64, name string) uint64 {
	const prime64 = 1099511628211
	h := traceID
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	if h == 0 {
		h = prime64
	}
	return h
}

// SpanRecord is one completed span.
type SpanRecord struct {
	TraceID     uint64
	SpanID      uint64
	ParentID    uint64 // 0 = root
	Name        string // stage: capture, ship, persist, queue, apply, durable, ...
	Source      string
	Seq         uint64
	StartUnixNs int64
	EndUnixNs   int64
}

// DurationNs is the span's duration, clamped non-negative.
func (r SpanRecord) DurationNs() int64 {
	d := r.EndUnixNs - r.StartUnixNs
	if d < 0 {
		return 0
	}
	return d
}

// SlowRecord is one end-to-end observation that exceeded the slow-span
// threshold, with the local per-stage breakdown captured at detection
// time.
type SlowRecord struct {
	TraceID  uint64
	Source   string
	Seq      uint64
	LagNs    int64 // skew-corrected capture->durable
	AtUnixNs int64
	Spans    []SpanRecord // this process's spans for the trace
}

// SpanTracer records completed spans into a bounded ring, publishes
// per-stage duration histograms and an end-to-end freshness histogram
// into the registry, and flags slow traces. All methods are safe on a
// nil receiver, so instrumented code paths need no tracing-enabled
// checks.
type SpanTracer struct {
	reg *Registry

	e2e       *Histogram
	recorded  *Counter
	slowTotal *Counter

	// Logf, when set, receives one formatted line per slow trace.
	Logf func(format string, args ...any)

	mu          sync.Mutex
	stage       map[string]*Histogram
	sampleEvery uint64
	slowNs      int64
	ring        ring[SpanRecord]
	slow        ring[SlowRecord]
}

// NewSpanTracer builds a span tracer over the registry with a
// completed-span ring of the given size. Sampling defaults to every
// trace; the slow-span log is disabled until SetSlowThreshold.
func NewSpanTracer(reg *Registry, ringSize int) *SpanTracer {
	if ringSize <= 0 {
		ringSize = 256
	}
	slowSize := ringSize / 8
	if slowSize < 16 {
		slowSize = 16
	}
	return &SpanTracer{
		reg:         reg,
		e2e:         reg.Histogram("span_e2e_seconds", DurationBuckets),
		recorded:    reg.Counter("spans_recorded_total"),
		slowTotal:   reg.Counter("spans_slow_total"),
		stage:       make(map[string]*Histogram),
		sampleEvery: 1,
		ring:        newRing[SpanRecord](ringSize),
		slow:        newRing[SlowRecord](slowSize),
	}
}

// SetSampleEvery sets head sampling to one trace in n. n <= 1 samples
// every trace; n == 0 disables tracing entirely.
func (st *SpanTracer) SetSampleEvery(n int) {
	if st == nil {
		return
	}
	st.mu.Lock()
	if n < 0 {
		n = 0
	}
	st.sampleEvery = uint64(n)
	st.mu.Unlock()
}

// SetSlowThreshold enables the slow-span log for end-to-end latencies
// above d (0 disables).
func (st *SpanTracer) SetSlowThreshold(d time.Duration) {
	if st == nil {
		return
	}
	st.mu.Lock()
	st.slowNs = int64(d)
	st.mu.Unlock()
}

// Sampled reports the head-sampling decision for a trace — a pure
// function of the trace ID, so every process agrees.
func (st *SpanTracer) Sampled(traceID uint64) bool {
	if st == nil {
		return false
	}
	st.mu.Lock()
	n := st.sampleEvery
	st.mu.Unlock()
	if n == 0 {
		return false
	}
	if n <= 1 {
		return true
	}
	return traceID%n == 0
}

// Record stores a completed span and observes its duration in the
// per-stage histogram.
func (st *SpanTracer) Record(rec SpanRecord) {
	if st == nil || rec.TraceID == 0 {
		return
	}
	st.mu.Lock()
	h, ok := st.stage[rec.Name]
	if !ok {
		h = st.reg.Histogram("span_stage_seconds", DurationBuckets, Label{Key: "stage", Value: rec.Name})
		st.stage[rec.Name] = h
	}
	st.ring.push(rec)
	st.mu.Unlock()
	h.Observe(float64(rec.DurationNs()) / 1e9)
	st.recorded.Inc()
}

// ObserveE2E records one end-to-end freshness observation for a trace:
// lagNs is the skew-corrected capture-to-durable latency. If it
// exceeds the slow threshold the trace is logged with this process's
// per-stage breakdown and kept in the slow ring.
func (st *SpanTracer) ObserveE2E(traceID uint64, source string, seq uint64, lagNs int64) {
	if st == nil || traceID == 0 {
		return
	}
	if lagNs < 0 {
		lagNs = 0
	}
	st.e2e.Observe(float64(lagNs) / 1e9)
	st.mu.Lock()
	thr := st.slowNs
	st.mu.Unlock()
	if thr <= 0 || lagNs <= thr {
		return
	}
	spans := st.TraceSpans(traceID)
	rec := SlowRecord{TraceID: traceID, Source: source, Seq: seq, LagNs: lagNs,
		AtUnixNs: time.Now().UnixNano(), Spans: spans}
	st.mu.Lock()
	st.slow.push(rec)
	logf := st.Logf
	st.mu.Unlock()
	st.slowTotal.Inc()
	if logf != nil {
		var b []byte
		for _, sp := range spans {
			b = append(b, fmt.Sprintf(" %s=%s", sp.Name, time.Duration(sp.DurationNs()))...)
		}
		logf("obs: slow trace %016x source=%s seq=%d e2e=%s threshold=%s stages:%s",
			traceID, source, seq, time.Duration(lagNs), time.Duration(thr), string(b))
	}
}

// Recent returns up to n completed spans, newest first.
func (st *SpanTracer) Recent(n int) []SpanRecord {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ring.newest(n)
}

// TraceSpans returns this process's spans for one trace, ordered by
// start time.
func (st *SpanTracer) TraceSpans(traceID uint64) []SpanRecord {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	var out []SpanRecord
	for _, rec := range st.ring.held() {
		if rec.TraceID == traceID {
			out = append(out, rec)
		}
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNs < out[j].StartUnixNs })
	return out
}

// Slow returns up to n slow-trace records, newest first.
func (st *SpanTracer) Slow(n int) []SlowRecord {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.slow.newest(n)
}

// SpanTrace is one trace's spans grouped for rendering.
type SpanTrace struct {
	TraceID uint64
	Source  string
	Seq     uint64
	Spans   []SpanRecord
}

// Traces groups the ring's spans by trace ID, newest trace first, up
// to n traces (n <= 0 means all).
func (st *SpanTracer) Traces(n int) []SpanTrace {
	recent := st.Recent(0) // newest first
	var order []uint64
	byID := make(map[uint64]*SpanTrace)
	for _, sp := range recent {
		t, ok := byID[sp.TraceID]
		if !ok {
			if n > 0 && len(order) == n {
				continue
			}
			t = &SpanTrace{TraceID: sp.TraceID, Source: sp.Source, Seq: sp.Seq}
			byID[sp.TraceID] = t
			order = append(order, sp.TraceID)
		}
		if sp.Seq > t.Seq {
			t.Seq = sp.Seq
		}
		t.Spans = append(t.Spans, sp)
	}
	out := make([]SpanTrace, 0, len(order))
	for _, id := range order {
		t := byID[id]
		sort.Slice(t.Spans, func(i, j int) bool { return t.Spans[i].StartUnixNs < t.Spans[j].StartUnixNs })
		out = append(out, *t)
	}
	return out
}
