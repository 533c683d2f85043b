package netrepl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/transport/retry"
)

// ShipperConfig configures a source-side shipper.
type ShipperConfig struct {
	// Source identifies this source to the server (the topic name).
	Source string
	// Dial opens a connection to the server. Called anew for every
	// (re)connect attempt.
	Dial func() (net.Conn, error)
	// Fetch returns ops with Seq > fromSeq in seq order (the op log's
	// Read). The shipper takes at most BatchOps of them per DELTA.
	Fetch func(fromSeq uint64) ([]*opdelta.Op, error)
	// SchemaOf resolves schemas for encoding hybrid before images; nil
	// is fine when no op carries them.
	SchemaOf func(table string) (*catalog.Schema, error)
	// Obs receives the shipper's metrics; nil keeps a private registry.
	Obs *obs.Registry
	// Snapshot, when set, lets the server negotiate a snapshot
	// bootstrap (ModeBootstrap in WELCOME): the shipper then interleaves
	// watermark-bracketed chunk reads with the live delta stream,
	// never pausing either. Nil ships deltas only.
	Snapshot *opdelta.Snapshotter
	// Spans, when set, records capture/ship spans for head-sampled
	// batches and attaches the trace context to their DELTA (and
	// SNAPSHOT_CHUNK) frames so the server side can continue the trace.
	// Nil disables tracing.
	Spans *obs.SpanTracer

	// BatchOps bounds ops per DELTA frame. Default 64.
	BatchOps int
	// Window bounds unacked DELTA batches in flight. When it is full
	// the shipper stops fetching — backpressure reaches the op log
	// cursor instead of ballooning memory. Default 16: at shipRate that
	// is 200 ms of round trip, which a server sharing one busy processor
	// with the applier has been seen to need (4 was not enough).
	Window int
	// Retry is the reconnect backoff schedule.
	Retry retry.Policy
	// AckTimeout bounds how long the oldest in-flight batch may stay
	// unacked before the connection is declared wedged (a dropped DELTA
	// or ACK frame would otherwise stall the window forever: resend
	// happens only on reconnect). It also sets the heartbeat interval
	// (AckTimeout/2) and how long a snapshot chunk may await its
	// CHUNK_ACK (4×AckTimeout: the verdict waits for the replica's
	// applied cursor to pass the chunk's high watermark). Default 2s.
	AckTimeout time.Duration
	// PollEvery paces the idle loop: how often the shipper polls Fetch
	// and the connection for frames. Default 5ms.
	PollEvery time.Duration
}

// shipRate is the most ops per second a shipper sends, backlog or not.
// Without it a backlog is shipped as fast as the processor allows, so
// the catch-up rate (and how much of the source machine the shipper
// takes from its OLTP clients) is whatever that processor has to spare
// that minute; with it both are the same from run to run wherever the
// rest of the pipeline keeps up. Trickle traffic never notices: one op
// buys 1/shipRate seconds.
const shipRate = 5120

// shipSlack is how far the send schedule may trail the clock. A shipper
// that lost its turn (a full window, a busy processor) sends what it
// missed at full speed, so the rate holds over any stretch much longer
// than this; after an idle spell it is the burst a new backlog gets.
const shipSlack = 2 * time.Second

func (c ShipperConfig) withDefaults() ShipperConfig {
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.BatchOps <= 0 {
		c.BatchOps = 64
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 5 * time.Millisecond
	}
	return c
}

// Shipper streams a source's op log to the replication server with
// resumable at-least-once delivery: batches flow inside a bounded
// unacked window, acks advance the durable cursor, and any failure —
// dial error, BUSY, torn frame, ack timeout, dead heartbeat — tears
// the connection down and reconnects with jittered exponential
// backoff, resuming from the seq the server's WELCOME names. The
// server's dedup makes the resulting redelivery harmless.
type Shipper struct {
	cfg ShipperConfig

	acked   atomic.Uint64 // highest server-acked durable seq
	maxSent uint64        // highest seq ever written to any connection

	reconnects   *obs.Counter
	retries      *obs.Counter
	batchesSent  *obs.Counter
	opsSent      *obs.Counter
	redelivered  *obs.Counter
	inflight     *obs.Gauge
	ackedGauge   *obs.Gauge
	rttSeconds   *obs.Histogram
	redeliverAge *obs.Histogram
	chunksSent   *obs.Counter
	chunkRows    *obs.Counter
	chunkChases  *obs.Counter
	bootDone     *obs.Gauge
}

// NewShipper creates a shipper; Run starts it.
func NewShipper(cfg ShipperConfig) *Shipper {
	cfg = cfg.withDefaults()
	sh := &Shipper{cfg: cfg}
	reg := cfg.Obs
	l := obs.L("source", cfg.Source)
	sh.reconnects = reg.Counter("netrepl_shipper_reconnects_total", l)
	sh.retries = reg.Counter("netrepl_shipper_retries_total", l)
	sh.batchesSent = reg.Counter("netrepl_shipper_batches_sent_total", l)
	sh.opsSent = reg.Counter("netrepl_shipper_ops_sent_total", l)
	sh.redelivered = reg.Counter("netrepl_shipper_redelivered_ops_total", l)
	sh.inflight = reg.Gauge("netrepl_shipper_inflight_batches", l)
	sh.ackedGauge = reg.Gauge("netrepl_shipper_acked_seq", l)
	sh.rttSeconds = reg.Histogram("netrepl_shipper_rtt_seconds", obs.DurationBuckets, l)
	sh.redeliverAge = reg.Histogram("netrepl_shipper_redelivery_seconds", obs.DurationBuckets, l)
	sh.chunksSent = reg.Counter("netrepl_shipper_chunks_sent_total", l)
	sh.chunkRows = reg.Counter("netrepl_shipper_chunk_rows_sent_total", l)
	sh.chunkChases = reg.Counter("netrepl_shipper_chunk_chases_total", l)
	sh.bootDone = reg.Gauge("netrepl_shipper_bootstrap_done", l)
	return sh
}

// Acked returns the highest seq the server has acknowledged durable.
func (sh *Shipper) Acked() uint64 { return sh.acked.Load() }

// errReconnect distinguishes "tear this connection down and redial"
// from fatal errors that should stop the shipper.
var errReconnect = errors.New("netrepl: reconnect")

// pendingBatch tracks one unacked DELTA.
type pendingBatch struct {
	lastSeq   uint64
	sentAt    time.Time
	firstSent time.Time // original send time, survives re-sends for the redelivery-age histogram
}

// Run ships until stop closes (graceful: a SHUTDOWN frame ends the
// stream) or a fatal error occurs. Connection-level failures are not
// fatal — they loop through backoff and resume.
func (sh *Shipper) Run(stop <-chan struct{}) error {
	b := retry.Backoff{P: sh.cfg.Retry}
	// firstSend remembers each seq's first transmission so a re-send
	// after reconnect can observe how stale the redelivery was.
	firstSend := make(map[uint64]time.Time)
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		err := sh.runConn(stop, &b, firstSend)
		switch {
		case err == nil:
			return nil // graceful stop
		case errors.Is(err, errReconnect):
			sh.retries.Inc()
			d := b.Next()
			select {
			case <-stop:
				return nil
			case <-time.After(d):
			}
		default:
			return err
		}
	}
}

// runConn runs one connection: dial, handshake, then the ship loop.
// Returns nil only for a graceful stop; errReconnect for anything the
// backoff loop should absorb.
func (sh *Shipper) runConn(stop <-chan struct{}, b *retry.Backoff, firstSend map[uint64]time.Time) error {
	conn, err := sh.cfg.Dial()
	if err != nil {
		return errReconnect
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(sh.cfg.AckTimeout))
	var base uint64
	if sh.cfg.Snapshot != nil {
		base = sh.cfg.Snapshot.Log.Base()
	}
	if err := WriteFrame(conn, FrameHello, 0, helloPayload(sh.cfg.Source, base, time.Now().UnixNano())); err != nil {
		return errReconnect
	}
	// One resumable reader for the connection's life: the reap loop below
	// polls under a PollEvery deadline that can expire anywhere inside a
	// frame, and the partial frame must survive to the next poll.
	frames := NewFrameReader(conn)
	typ, _, payload, err := frames.ReadFrame()
	if err != nil {
		return errReconnect
	}
	switch typ {
	case FrameWelcome:
	case FrameBusy:
		return errReconnect
	case FrameReject:
		return fmt.Errorf("netrepl: server rejected %s: %s", sh.cfg.Source, payload)
	default:
		return errReconnect
	}
	resume, mode, progress, helloTs, err := parseWelcome(payload)
	if err != nil {
		return errReconnect
	}
	// First skew exchange: the WELCOME echoes the HELLO's send time with
	// the server's receive/send pair; our receive time completes it.
	// HEARTBEAT probes keep re-estimating for the connection's life.
	skew := &SkewEstimator{}
	skew.Sample(helloTs.T0, helloTs.T1, helloTs.T2, time.Now().UnixNano())
	var pump *bootPump
	if mode == ModeBootstrap {
		if sh.cfg.Snapshot == nil {
			return fmt.Errorf("netrepl: server negotiated bootstrap but shipper %s has no Snapshotter", sh.cfg.Source)
		}
		pump = newBootPump(sh, progress)
	}
	// The server's durable seq is authoritative: it may be ahead of our
	// last ack (the ACK frame was lost) — never behind it, because acks
	// follow durability. Resume after it.
	if resume > sh.acked.Load() {
		sh.acked.Store(resume)
		sh.ackedGauge.Set(int64(resume))
	}
	if sh.maxSent > resume {
		// Everything between the server's durable seq and our previous
		// send cursor is about to be sent again: at-least-once redelivery.
		sh.redelivered.Add(sh.maxSent - resume)
	}
	sh.reconnects.Inc()
	b.Reset()

	cursor := resume // last seq handed to this connection
	var pending []pendingBatch
	// nextSend is when the next DELTA may leave: every op sent moves it
	// 1/shipRate later, from no further back than shipSlack ago.
	nextSend := time.Now()
	sh.inflight.Set(0)
	lastRecv := time.Now()
	var lastProbe time.Time // zero: first loop iteration probes immediately
	stopping := false
	for {
		select {
		case <-stop:
			// Graceful drain: stop fetching, let the in-flight window
			// empty (or time out), then end the stream with SHUTDOWN so
			// the server sees a clean close.
			stopping = true
		default:
		}
		if stopping && (len(pending) == 0 || time.Since(pending[0].sentAt) > sh.cfg.AckTimeout) {
			conn.SetWriteDeadline(time.Now().Add(sh.cfg.AckTimeout))
			WriteFrame(conn, FrameShutdown, 0, nil)
			return nil
		}

		// Fill the in-flight window from the op log.
		stalled := stopping
		for len(pending) < sh.cfg.Window && !stalled && !time.Now().Before(nextSend) {
			prev := cursor // the seq this batch chains onto
			ops, err := sh.cfg.Fetch(cursor)
			if err != nil {
				return err
			}
			if len(ops) == 0 {
				break
			}
			drained := len(ops) < sh.cfg.BatchOps
			if len(ops) > sh.cfg.BatchOps {
				ops = ops[:sh.cfg.BatchOps]
			}
			// A DELTA ends at BatchOps ops or before the op that would
			// take its payload past MaxPayload, whichever comes first:
			// hybrid before images make an op any size.
			encOps := make([][]byte, 0, len(ops))
			size := deltaHeaderMax + traceTrailerLen
			for _, op := range ops {
				var schema *catalog.Schema
				if len(op.Before) > 0 {
					if sh.cfg.SchemaOf == nil {
						return fmt.Errorf("netrepl: op %d carries before images but shipper has no SchemaOf", op.Seq)
					}
					if schema, err = sh.cfg.SchemaOf(op.Table); err != nil {
						return err
					}
				}
				enc, err := op.Encode(nil, schema)
				if err != nil {
					return err
				}
				if size += binary.MaxVarintLen64 + len(enc); size > MaxPayload {
					if len(encOps) == 0 {
						return fmt.Errorf("netrepl: op %d encodes to %d bytes, too large for any DELTA frame (MaxPayload %d)", op.Seq, len(enc), MaxPayload)
					}
					break
				}
				encOps = append(encOps, enc)
			}
			ops = ops[:len(encOps)]
			now := time.Now()
			last := ops[len(ops)-1].Seq
			pb := pendingBatch{lastSeq: last, sentAt: now, firstSent: now}
			if first, ok := firstSend[last]; ok {
				pb.firstSent = first
				sh.redeliverAge.ObserveDuration(now.Sub(first))
			} else {
				firstSend[last] = now
			}
			// Head sampling: the trace ID is a pure function of
			// (source, last seq), so a redelivered batch rejoins its
			// original trace and the server makes the same decision.
			frameFlags := byte(0)
			deltaBody := deltaPayload(prev, encOps)
			traceID := obs.TraceID(sh.cfg.Source, last)
			var captureNs int64
			traced := sh.cfg.Spans.Sampled(traceID)
			if traced {
				captureNs = ops[0].Time.UnixNano() // oldest op: worst-case batch freshness
				deltaBody = appendTraceTrailer(deltaBody, obs.TraceContext{
					TraceID: traceID, SpanID: obs.SpanIDFor(traceID, "ship"), CaptureUnixNs: captureNs})
				frameFlags |= FlagTrace
			}
			conn.SetWriteDeadline(now.Add(sh.cfg.AckTimeout))
			if err := WriteFrame(conn, FrameDelta, frameFlags, deltaBody); err != nil {
				return errReconnect
			}
			if traced {
				shipID := obs.SpanIDFor(traceID, "ship")
				capID := obs.SpanIDFor(traceID, "capture")
				sh.cfg.Spans.Record(obs.SpanRecord{TraceID: traceID, SpanID: capID, Name: "capture",
					Source: sh.cfg.Source, Seq: last, StartUnixNs: captureNs, EndUnixNs: now.UnixNano()})
				sh.cfg.Spans.Record(obs.SpanRecord{TraceID: traceID, SpanID: shipID, ParentID: capID,
					Name: "ship", Source: sh.cfg.Source, Seq: last,
					StartUnixNs: now.UnixNano(), EndUnixNs: time.Now().UnixNano()})
			}
			cursor = last
			if last > sh.maxSent {
				sh.maxSent = last
			}
			if floor := now.Add(-shipSlack); nextSend.Before(floor) {
				nextSend = floor
			}
			nextSend = nextSend.Add(time.Duration(len(ops)) * time.Second / shipRate)
			pending = append(pending, pb)
			sh.inflight.Set(int64(len(pending)))
			sh.batchesSent.Inc()
			sh.opsSent.Add(uint64(len(ops)))
			if drained {
				stalled = true // drained the log; don't spin Fetch
			}
		}

		// Advance the snapshot pump: at most one chunk in flight, read
		// and sent from this goroutine so the connection has a single
		// writer, interleaved with the delta window so bootstrap never
		// pauses the live stream (and the stream never pauses bootstrap).
		if pump != nil && !stopping {
			if _, err := pump.step(conn, time.Now()); err != nil {
				return err
			}
		}

		// Liveness and skew probes, every AckTimeout/2. A probe doubles
		// as the idle heartbeat but is sent on its interval even under
		// load — the skew estimate must keep refreshing while deltas
		// flow, since that is exactly when the freshness metric matters.
		// The probe carries our current offset estimate so the server can
		// correct the lag it measures against this source's clock.
		now := time.Now()
		if now.Sub(lastProbe) > sh.cfg.AckTimeout/2 {
			off, rtt, okEst := skew.Estimate()
			conn.SetWriteDeadline(now.Add(sh.cfg.AckTimeout))
			if err := WriteFrame(conn, FrameHeartbeat, 0, probePayload(now.UnixNano(), off, rtt, okEst)); err != nil {
				return errReconnect
			}
			lastProbe = now
		}
		if len(pending) > 0 && now.Sub(pending[0].sentAt) > sh.cfg.AckTimeout {
			// Oldest batch unacked too long: its DELTA or ACK was lost in
			// flight. In-stream retransmit cannot be reconciled with the
			// server's cursor, so reconnect and resume from the durable seq.
			return errReconnect
		}
		if now.Sub(lastRecv) > 2*sh.cfg.AckTimeout {
			return errReconnect
		}
		if pump != nil && pump.state == pumpAwaitAck && now.Sub(pump.sentAt) > 4*sh.cfg.AckTimeout {
			// The chunk's verdict never came (lost frame, or a wedged
			// replica): reconnect and resume from durable progress.
			return errReconnect
		}

		// Reap one frame (ack, heartbeat echo, server shutdown), bounded
		// by the poll interval — or by the next send slot, when that comes
		// first — so the send path stays responsive. A deadline that lands
		// mid-frame costs nothing: the reader resumes.
		wake := now.Add(sh.cfg.PollEvery)
		if nextSend.After(now) && nextSend.Before(wake) {
			wake = nextSend
		}
		conn.SetReadDeadline(wake)
		typ, _, payload, err := frames.ReadFrame()
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			return errReconnect
		}
		lastRecv = time.Now()
		switch typ {
		case FrameAck:
			seq, err := parseSeq(payload)
			if err != nil {
				return errReconnect
			}
			if seq > sh.acked.Load() {
				sh.acked.Store(seq)
				sh.ackedGauge.Set(int64(seq))
			}
			for len(pending) > 0 && pending[0].lastSeq <= seq {
				sh.rttSeconds.ObserveDuration(lastRecv.Sub(pending[0].sentAt))
				delete(firstSend, pending[0].lastSeq)
				pending = pending[1:]
			}
			sh.inflight.Set(int64(len(pending)))
		case FrameChunkAck:
			chunkID, round, status, keys, err := parseChunkAck(payload)
			if err != nil {
				return errReconnect
			}
			if pump != nil {
				pump.onAck(chunkID, round, status, keys, lastRecv)
			}
		case FrameHeartbeat:
			// Echo received: lastRecv already refreshed. It carries the
			// probe's timestamp exchange — another skew sample.
			ts, err := parseEcho(payload)
			if err != nil {
				return errReconnect
			}
			skew.Sample(ts.T0, ts.T1, ts.T2, lastRecv.UnixNano())
		case FrameBusy, FrameShutdown:
			return errReconnect
		default:
			return errReconnect
		}
	}
}
