package netrepl

import (
	"errors"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/transport"
	"opdelta/internal/warehouse"
)

// Replica is one source's warehouse side: the exactly-once integrator
// its ops replay through and the snapshot-bootstrap coordinator that
// reconciles its chunks. A server with ServerConfig.Replica resolves it
// once per source and keeps it on the Topic; the HELLO handshake and
// the topic's applier use that same value, which is what serializes
// chunk reconciliation with delta apply for the source.
type Replica struct {
	Integrator *warehouse.ParallelIntegrator
	Bootstrap  *Bootstrapper
}

// NewReplica makes w the warehouse side of source: it ensures w's
// applied log and bootstrap log and returns the integrator (four
// workers, exactly-once through the applied log) and the bootstrapper.
// The caller registers w's replica tables first; reg and spans receive
// the bootstrapper's metrics and chunk spans.
func NewReplica(w *warehouse.Warehouse, source string, reg *obs.Registry, spans *obs.SpanTracer) (*Replica, error) {
	applied, err := warehouse.EnsureAppliedLog(w)
	if err != nil {
		return nil, err
	}
	blog, err := warehouse.EnsureBootstrapLog(w)
	if err != nil {
		return nil, err
	}
	return &Replica{
		Integrator: &warehouse.ParallelIntegrator{W: w, Workers: 4, Applied: applied},
		Bootstrap:  &Bootstrapper{Log: blog, Applied: applied, Source: source, Obs: reg, Spans: spans},
	}, nil
}

// applyBatchOps bounds ops per integrator call.
const applyBatchOps = 256

// ErrNoAppliedLog is Run's answer for an integrator without an
// AppliedLog: the applier keeps no position of its own, so without the
// log it could neither resume nor apply exactly once.
var ErrNoAppliedLog = errors.New("netrepl: applier needs an integrator with an AppliedLog")

// Applier drains one topic into one warehouse through the parallel
// integrator. The integrator's AppliedLog is the topic's one durable
// consumer position: its high-water row commits with each source
// transaction's effects, the applier never acks the topic, and a
// restarted Run resumes at the op after the high-water seq (resume).
// Each op gets a lifecycle trace beginning at its source capture
// timestamp — carried inside the op encoding — so the warehouse-side
// tracer measures true end-to-end freshness across the wire. A server
// with ServerConfig.Replica runs one per topic; only a server without
// it leaves Run to the caller. An idle applier waits on its topic's
// wake, which a durable append or a buffered bootstrap frame fires, not
// on a timer.
type Applier struct {
	Topic *Topic
	// Integrator applies batches; its Applied log must be set.
	Integrator *warehouse.ParallelIntegrator
	// SchemaOf resolves schemas for ops carrying before images; nil is
	// fine when none do.
	SchemaOf func(table string) (*catalog.Schema, error)
	// Tracer, when set, traces each op's enqueue→durable lifecycle; the
	// enqueue stamp comes from the op's batch mark.
	Tracer *obs.Tracer
	// Spans, when set (together with Tracer), completes wire-propagated
	// traces: the last op of a traced batch emits queue/apply/durable
	// spans when its lifecycle finishes, plus the skew-corrected
	// end-to-end observation that drives the slow-span log.
	Spans *obs.SpanTracer
	// Bootstrap, when set, is this source's snapshot-bootstrap
	// coordinator: the applier feeds it every applied batch (footprints
	// + cursor), and an empty one each time the queue runs dry — a
	// delivered chunk frame wakes it for that — so chunk reconciliation
	// runs on this goroutine, strictly serialized with delta application.
	Bootstrap *Bootstrapper
	// Obs receives the applier's metrics; nil keeps a private registry.
	Obs *obs.Registry
}

// Run applies until stop closes, then drains: it returns once the
// queue has come up empty after stop was seen, so everything enqueued
// before a graceful shutdown is applied by it.
func (a *Applier) Run(stop <-chan struct{}) error {
	if a.Integrator == nil || a.Integrator.Applied == nil {
		return ErrNoAppliedLog
	}
	next, err := a.resume()
	if err != nil {
		return err
	}
	reg := a.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := obs.L("source", a.Topic.Source)
	applied := reg.Counter("netrepl_applied_ops_total", l)
	// Replication lag, raw and skew-corrected. Raw subtracts the
	// source's capture timestamp from our clock — it silently includes
	// the clock offset between the machines. Corrected subtracts the
	// per-connection offset the shipper's NTP-style estimator reported
	// (Topic.Skew), bounding the residual error by half the probe RTT.
	// The gauge holds the corrected lag of the most recently applied op:
	// a scrape between batches sees the lag the pipeline delivered, not
	// a value that grows while the source is simply quiet.
	lagRaw := reg.Histogram("netrepl_replication_lag_raw_seconds", obs.DurationBuckets, l)
	lagCorrected := reg.Histogram("netrepl_replication_lag_seconds", obs.DurationBuckets, l)
	lagGauge := reg.Gauge("netrepl_replication_lag_ns", l)
	stopping := false
	for {
		var batch []*opdelta.Op
		for len(batch) < applyBatchOps {
			msg, err := next, error(nil)
			if next == nil {
				msg, err = a.Topic.Q.Next()
			}
			next = nil
			if errors.Is(err, transport.ErrEmpty) {
				break
			}
			if err != nil {
				return err
			}
			op, _, err := opdelta.DecodeOpResolve(msg, a.SchemaOf)
			if err != nil {
				return err
			}
			op.Trace = a.Tracer.Begin(op.Seq, op.Txn, op.Time)
			// Take the batch mark for every dequeued op even when tracing
			// is off here — the FIFO advances only on this path.
			if m, last := a.Topic.takeMark(op.Seq); m != nil {
				op.Trace.EnqueuedAt(m.enqueuedNs())
				if last && !m.tc.Zero() && a.Spans != nil && op.Trace != nil {
					a.hookSpans(op.Trace, m.tc)
				}
			}
			op.Trace.Dequeued()
			batch = append(batch, op)
		}
		if len(batch) == 0 {
			// A chunk whose high watermark the cursor passed settles here.
			if err := a.Bootstrap.Observe(nil); err != nil {
				return err
			}
			if stopping {
				return nil
			}
			select {
			case <-stop:
				// Look at the queue once more before leaving: ops enqueued
				// (and acked to their shipper) since the last read came up
				// empty belong to this run.
				stopping = true
			case <-a.Topic.wake:
			}
			continue
		}
		if _, err := a.Integrator.Apply(batch); err != nil {
			return err
		}
		if err := a.Bootstrap.Observe(batch); err != nil {
			return err
		}
		applied.Add(uint64(len(batch)))
		last := batch[len(batch)-1]
		raw := time.Since(last.Time)
		lagRaw.ObserveDuration(raw)
		corrected := raw
		if off, _, ok := a.Topic.Skew(); ok {
			corrected -= time.Duration(off)
		}
		if corrected < 0 {
			corrected = 0
		}
		lagCorrected.ObserveDuration(corrected)
		lagGauge.Set(corrected.Nanoseconds())
	}
}

// resume drops the topic's leading messages at or below the
// AppliedLog's high-water seq — ops whose effects committed before the
// restart — and returns the first one above it, or nil when the topic
// runs out first. It reads the log's one row.
func (a *Applier) resume() ([]byte, error) {
	high, err := a.Integrator.Applied.MaxSeq()
	if err != nil {
		return nil, err
	}
	for {
		msg, err := a.Topic.Q.Next()
		if errors.Is(err, transport.ErrEmpty) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		seq, err := opSeq(msg)
		if err != nil {
			return nil, err
		}
		if seq > high {
			return msg, nil
		}
	}
}

// hookSpans arranges for the op's trace completion (stamped by the
// integrator workers) to emit the server-side spans of its wire trace:
// queue (enqueued on topic → dequeued), apply (dequeue/lock → applied),
// durable (applied → fsynced), and the end-to-end freshness
// observation corrected by the source's clock offset.
func (a *Applier) hookSpans(tr *obs.Trace, tc obs.TraceContext) {
	spans, topic := a.Spans, a.Topic
	tr.SetOnDone(func(rec obs.TraceRecord) {
		tid := tc.TraceID
		persistID := obs.SpanIDFor(tid, "persist")
		queueID := obs.SpanIDFor(tid, "queue")
		applyID := obs.SpanIDFor(tid, "apply")
		durableID := obs.SpanIDFor(tid, "durable")
		if rec.Enqueued != 0 && rec.Dequeued != 0 {
			spans.Record(obs.SpanRecord{TraceID: tid, SpanID: queueID, ParentID: persistID,
				Name: "queue", Source: topic.Source, Seq: rec.Seq,
				StartUnixNs: rec.Enqueued, EndUnixNs: rec.Dequeued})
		}
		applyStart := rec.Locked
		if applyStart == 0 {
			applyStart = rec.Dequeued
		}
		if applyStart != 0 && rec.Applied != 0 {
			spans.Record(obs.SpanRecord{TraceID: tid, SpanID: applyID, ParentID: queueID,
				Name: "apply", Source: topic.Source, Seq: rec.Seq,
				StartUnixNs: applyStart, EndUnixNs: rec.Applied})
		}
		if rec.Applied != 0 && rec.Durable != 0 {
			spans.Record(obs.SpanRecord{TraceID: tid, SpanID: durableID, ParentID: applyID,
				Name: "durable", Source: topic.Source, Seq: rec.Seq,
				StartUnixNs: rec.Applied, EndUnixNs: rec.Durable})
		}
		if rec.Durable != 0 && tc.CaptureUnixNs != 0 {
			lag := rec.Durable - tc.CaptureUnixNs
			if off, _, ok := topic.Skew(); ok {
				lag -= off
			}
			spans.ObserveE2E(tid, topic.Source, rec.Seq, lag)
		}
	})
}
