package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Lifecycle stage names, in pipeline order. Each stage histogram
// measures the gap between two adjacent stamps:
//
//	enqueue: capture  -> enqueued  (source commit to transport append)
//	queue:   enqueued -> dequeued  (time sitting in the transport queue)
//	lock:    dequeued -> locked    (scheduling + lock pre-declaration)
//	apply:   locked   -> applied   (statement execution at the warehouse)
//	durable: applied  -> durable   (commit + WAL group-commit fsync wait)
//
// Freshness lag is capture -> durable: how stale the warehouse answer
// was for data the source had already committed.
const (
	StageEnqueue = "enqueue"
	StageQueue   = "queue"
	StageLock    = "lock"
	StageApply   = "apply"
	StageDurable = "durable"
)

var stages = []string{StageEnqueue, StageQueue, StageLock, StageApply, StageDurable}

// TraceRecord is one completed lifecycle, kept in the tracer's ring
// buffer for /debug/deltaz. Times are unix nanoseconds; zero means the
// stage was never stamped (e.g. a trace that bypassed the queue).
type TraceRecord struct {
	Seq      uint64 `json:"seq"`
	Txn      uint64 `json:"txn"`
	Captured int64  `json:"captured_unix_ns"`
	Enqueued int64  `json:"enqueued_unix_ns,omitempty"`
	Dequeued int64  `json:"dequeued_unix_ns,omitempty"`
	Locked   int64  `json:"locked_unix_ns,omitempty"`
	Applied  int64  `json:"applied_unix_ns,omitempty"`
	Durable  int64  `json:"durable_unix_ns,omitempty"`

	// FreshnessNs is Durable-Captured (clamped at zero), the end-to-end
	// lag this delta experienced.
	FreshnessNs int64 `json:"freshness_ns"`
}

// Tracer derives freshness-lag and per-stage latency histograms from
// lifecycle stamps and retains the most recent completed traces in a
// ring buffer. All methods are nil-safe so instrumented code paths can
// run untraced at zero cost.
type Tracer struct {
	freshness *Histogram
	stage     map[string]*Histogram
	completed *Counter

	mu   sync.Mutex
	ring ring[TraceRecord]
}

// NewTracer registers the tracer's metrics on reg and keeps up to size
// completed traces for /debug/deltaz.
func NewTracer(reg *Registry, size int) *Tracer {
	if size <= 0 {
		size = 256
	}
	t := &Tracer{
		freshness: reg.Histogram("delta_freshness_lag_seconds", DurationBuckets),
		stage:     make(map[string]*Histogram, len(stages)),
		completed: reg.Counter("delta_traces_total"),
		ring:      newRing[TraceRecord](size),
	}
	for _, s := range stages {
		t.stage[s] = reg.Histogram("delta_stage_seconds", DurationBuckets, L("stage", s))
	}
	return t
}

// Begin starts a lifecycle for the delta with the given source sequence
// and transaction, captured at the source at the given time. A nil
// tracer yields a nil trace, on which every stamp is a no-op.
func (t *Tracer) Begin(seq, txn uint64, captured time.Time) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{t: t, seq: seq, txn: txn, captured: captured.UnixNano()}
}

// Recent returns up to n completed traces, newest first.
func (t *Tracer) Recent(n int) []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.newest(n)
}

// Trace is one in-flight delta lifecycle. Stamps are atomic int64 unix
// nanos, so the stages may be stamped from different goroutines (the
// capture side, the daemon's reader, and a parallel applier) without
// coordination. All methods tolerate a nil receiver.
type Trace struct {
	t        *Tracer
	seq, txn uint64
	captured int64

	enqueued atomic.Int64
	dequeued atomic.Int64
	locked   atomic.Int64
	applied  atomic.Int64
	durable  atomic.Int64

	mu     sync.Mutex
	onDone func(TraceRecord)
}

// SetOnDone registers a hook that receives the finished record when
// Done runs. The netrepl applier uses it to hand a wire-propagated
// span context into the parallel integrator's completion path: the
// integrator stamps and finishes the trace as it always did, and the
// hook converts the stamps into distributed spans. Call before the
// trace can complete; last registration wins.
func (tr *Trace) SetOnDone(fn func(TraceRecord)) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.onDone = fn
	tr.mu.Unlock()
}

func (tr *Trace) stamp(slot *atomic.Int64) {
	if tr == nil {
		return
	}
	slot.CompareAndSwap(0, time.Now().UnixNano())
}

// EnqueuedAt marks the delta appended to the transport queue at ns
// (unix nanoseconds). The stamp is taken where the append happened —
// the replication server — and applied when the op is dequeued.
func (tr *Trace) EnqueuedAt(ns int64) {
	if tr != nil {
		tr.enqueued.CompareAndSwap(0, ns)
	}
}

// Dequeued marks the delta read back out of the transport queue.
func (tr *Trace) Dequeued() {
	if tr != nil {
		tr.stamp(&tr.dequeued)
	}
}

// Locked marks the applier's lock plan granted.
func (tr *Trace) Locked() {
	if tr != nil {
		tr.stamp(&tr.locked)
	}
}

// Applied marks the delta's statements executed at the warehouse.
func (tr *Trace) Applied() {
	if tr != nil {
		tr.stamp(&tr.applied)
	}
}

// Durable marks the warehouse commit durable (WAL fsync complete).
func (tr *Trace) Durable() {
	if tr != nil {
		tr.stamp(&tr.durable)
	}
}

// Done finishes the lifecycle: observes per-stage latencies for every
// adjacent pair of stamps that were both taken, observes freshness lag
// if the trace reached durability, and records it in the ring buffer.
// Call exactly once, after the final stamp.
func (tr *Trace) Done() {
	if tr == nil {
		return
	}
	rec := TraceRecord{
		Seq:      tr.seq,
		Txn:      tr.txn,
		Captured: tr.captured,
		Enqueued: tr.enqueued.Load(),
		Dequeued: tr.dequeued.Load(),
		Locked:   tr.locked.Load(),
		Applied:  tr.applied.Load(),
		Durable:  tr.durable.Load(),
	}
	observeStage := func(name string, from, to int64) {
		if from != 0 && to != 0 {
			d := to - from
			if d < 0 {
				d = 0
			}
			tr.t.stage[name].Observe(float64(d) / 1e9)
		}
	}
	observeStage(StageEnqueue, rec.Captured, rec.Enqueued)
	observeStage(StageQueue, rec.Enqueued, rec.Dequeued)
	observeStage(StageLock, rec.Dequeued, rec.Locked)
	observeStage(StageApply, rec.Locked, rec.Applied)
	observeStage(StageDurable, rec.Applied, rec.Durable)
	if rec.Durable != 0 {
		lag := rec.Durable - rec.Captured
		if lag < 0 {
			lag = 0
		}
		rec.FreshnessNs = lag
		tr.t.freshness.Observe(float64(lag) / 1e9)
	}
	tr.t.completed.Inc()

	tr.t.mu.Lock()
	tr.t.ring.push(rec)
	tr.t.mu.Unlock()

	tr.mu.Lock()
	fn := tr.onDone
	tr.mu.Unlock()
	if fn != nil {
		fn(rec)
	}
}
