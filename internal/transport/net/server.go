package netrepl

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"opdelta/internal/fault"
	"opdelta/internal/obs"
	"opdelta/internal/opdelta"
	"opdelta/internal/transport"
)

// ServerConfig configures the warehouse-side replication server.
type ServerConfig struct {
	// Dir is the root for per-source topic queues
	// (<dir>/<source>/queue.dat).
	Dir string
	// FS is the filesystem the topics live on; nil means the OS.
	FS fault.FS
	// Obs receives the server's metrics; nil keeps a private registry.
	Obs *obs.Registry
	// MaxConns bounds concurrently serviced connections; beyond it new
	// connections get a BUSY frame and are closed (load shedding, the
	// client backs off). Default 64.
	MaxConns int
	// Lease is the per-connection liveness window: a connection idle
	// longer than this (no DELTA, no heartbeat) is presumed dead and
	// closed, releasing its slot. Default 15s.
	Lease time.Duration
	// OnEnqueue, when set, is called after a batch is durably enqueued
	// on a topic (fresh ops only, dedup excluded). The server calls it
	// from the connection's goroutine.
	OnEnqueue func(source string, ops int)
	// Replica, when set, resolves a source's warehouse side, once per
	// source, when its topic opens. The server then runs the topic's
	// applier into it until Shutdown, and a HELLO whose source log base
	// has advanced past the topic's durable seq negotiates a snapshot
	// bootstrap instead of being stuck with an unreplayable gap. Nil
	// leaves applying to the caller and rejects such a HELLO.
	Replica func(source string) (*Replica, error)
	// Tracer, when set, traces each applied op's lifecycle (Applier.Tracer).
	Tracer *obs.Tracer
	// Spans, when set, continues wire-propagated traces: a traced DELTA
	// gets a "persist" span; its batch mark hands the context to the applier.
	// Nil disables tracing (trailers are still stripped and ignored).
	Spans *obs.SpanTracer
}

func (c ServerConfig) withDefaults() ServerConfig {
	c.FS = fault.OrOS(c.FS)
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.Lease <= 0 {
		c.Lease = 15 * time.Second
	}
	return c
}

// Server accepts N concurrent source shippers, writes their op batches
// into per-source durable queue topics, and acks the durable seq. With
// ServerConfig.Replica it also applies every topic into its replica.
// Replayed ops — redelivery after a reconnect or a duplicated frame —
// are deduplicated against the topic's high-water seq before they
// reach the queue, which is sound because ops arrive in seq order
// within a source: the queue is strictly ascending, so "seq ≤ lastSeq"
// is exactly "already durably enqueued".
type Server struct {
	cfg ServerConfig

	mu        sync.Mutex
	topics    map[string]*Topic
	conns     map[net.Conn]bool
	closed    bool
	recovered bool // topics under Dir opened (with Replica set)
	serveWG   sync.WaitGroup

	// Appliers run from their topic's opening until Shutdown, across
	// Serve calls. The first applier error closes failed.
	stopApply chan struct{}
	applyWG   sync.WaitGroup
	applyErr  error
	failed    chan struct{}

	connects       *obs.Counter
	busy           *obs.Counter
	rejects        *obs.Counter
	connsGauge     *obs.Gauge
	badFrames      *obs.Counter
	enqueuedOps    *obs.Counter
	redelivered    *obs.Counter
	outOfOrder     *obs.Counter
	handoffDropped *obs.Counter
}

// NewServer creates a replication server; call Serve with a listener
// to start accepting.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg, topics: make(map[string]*Topic), conns: make(map[net.Conn]bool),
		stopApply: make(chan struct{}), failed: make(chan struct{}),
	}
	reg := cfg.Obs
	s.connects = reg.Counter("netrepl_server_connects_total")
	s.busy = reg.Counter("netrepl_server_busy_total")
	s.rejects = reg.Counter("netrepl_server_rejects_total")
	s.connsGauge = reg.Gauge("netrepl_server_active_conns")
	s.badFrames = reg.Counter("netrepl_server_bad_frames_total")
	s.enqueuedOps = reg.Counter("netrepl_server_enqueued_ops_total")
	s.redelivered = reg.Counter("netrepl_server_redelivered_ops_total")
	s.outOfOrder = reg.Counter("netrepl_server_out_of_order_batches_total")
	s.handoffDropped = reg.Counter("netrepl_span_handoff_dropped_total")
	return s
}

// Topic is one source's durable op stream at the warehouse side: a
// persistent queue plus the dedup high-water mark. The queue is the
// durable record; lastSeq is recovered from it on open. Nothing acks
// the queue: the consumer position is the replica's AppliedLog, and a
// restarted applier reads the topic from its first message.
type Topic struct {
	Source string
	Q      *transport.Queue

	replica *Replica // nil unless the server has ServerConfig.Replica
	// wake holds one token while work has arrived that the applier has
	// not yet woken for (signal).
	wake chan struct{}

	mu      sync.Mutex
	lastSeq uint64

	// Clock-skew estimate for the topic's source, reported by the
	// shipper on HEARTBEAT probes: offset = our (server) clock − the
	// source's clock, as the shipper's NTP-style estimator computed
	// it. The applier subtracts it from raw capture-to-now lag.
	skewMu     sync.Mutex
	skewOffset int64
	skewRtt    int64
	skewOK     bool

	// Batch marks carry every fresh batch's enqueue time — and a traced
	// batch's wire context — from the connection goroutine that persisted
	// it to the applier that dequeues it. One mark per batch, in queue
	// order, so the applier consumes them from the head. Bounded: a mark
	// whose ops never dequeue (connection died mid-append) must not leak.
	markMu sync.Mutex
	marks  []*batchMark
}

// maxBatchMarks bounds a topic's pending marks; beyond it the oldest
// mark is evicted and counted as a dropped span handoff.
const maxBatchMarks = 1024

// batchMark is one fresh batch in flight between persist and apply: its
// op seq range, when its frame arrived, when its append became durable,
// and the wire trace context of a traced batch (zero otherwise).
type batchMark struct {
	first, last uint64
	recvNs      int64
	tc          obs.TraceContext

	persistEnd atomic.Int64 // set once the append is durable; 0 until then
}

// enqueuedNs is the enqueue stamp of the batch's ops: when the append
// became durable, or the frame's receive time if the applier won the
// race with the connection goroutine.
func (m *batchMark) enqueuedNs() int64 {
	if end := m.persistEnd.Load(); end != 0 {
		return end
	}
	return m.recvNs
}

// LastSeq returns the highest op seq durably enqueued on the topic.
func (t *Topic) LastSeq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastSeq
}

// signal wakes the topic's applier: a durable append, or a bootstrap
// frame buffered for its Bootstrapper. A token sent while the applier
// is busy stays buffered, so the applier's next empty read does not
// wait; it costs at most one extra pass.
func (t *Topic) signal() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// SetSkew records the shipper-reported clock offset for this source.
func (t *Topic) SetSkew(offsetNs, rttNs int64) {
	t.skewMu.Lock()
	t.skewOffset, t.skewRtt, t.skewOK = offsetNs, rttNs, true
	t.skewMu.Unlock()
}

// Skew returns the current offset estimate (server − source, ns) and
// the RTT bound of the sample it came from; ok is false before any
// probe reported one.
func (t *Topic) Skew() (offsetNs, rttNs int64, ok bool) {
	t.skewMu.Lock()
	defer t.skewMu.Unlock()
	return t.skewOffset, t.skewRtt, t.skewOK
}

// pushMark appends m to the FIFO, evicting the oldest marks when it
// is full. Returns the number of marks evicted.
func (t *Topic) pushMark(m *batchMark) int {
	t.markMu.Lock()
	defer t.markMu.Unlock()
	dropped := 0
	for len(t.marks) >= maxBatchMarks {
		t.marks = t.marks[1:]
		dropped++
	}
	t.marks = append(t.marks, m)
	return dropped
}

// unpushMark removes m, the mark of a batch that failed to persist,
// unless the applier has already consumed it.
func (t *Topic) unpushMark(m *batchMark) {
	t.markMu.Lock()
	defer t.markMu.Unlock()
	if n := len(t.marks); n > 0 && t.marks[n-1] == m {
		t.marks = t.marks[:n-1]
	}
}

// takeMark returns the mark of the batch that carried seq, and whether
// seq ends it — the mark is then removed. The applier calls it for
// every dequeued op, in seq order. Ops below the head mark's first seq
// have none: they were recovered from the queue file when the topic
// opened, or their mark was evicted.
func (t *Topic) takeMark(seq uint64) (m *batchMark, last bool) {
	t.markMu.Lock()
	defer t.markMu.Unlock()
	for len(t.marks) > 0 && t.marks[0].last < seq {
		t.marks = t.marks[1:]
	}
	if len(t.marks) == 0 || seq < t.marks[0].first {
		return nil, false
	}
	m = t.marks[0]
	if seq == m.last {
		t.marks = t.marks[1:]
	}
	return m, seq == m.last
}

// PendingSpanHandoffs counts batch marks pushed but not yet consumed —
// after a drained run it must be zero or marks have been orphaned.
func (t *Topic) PendingSpanHandoffs() int {
	t.markMu.Lock()
	defer t.markMu.Unlock()
	return len(t.marks)
}

// Topic opens (or creates) the source's topic. Safe for concurrent
// use; the applier obtains the same topic the connections feed.
func (s *Server) Topic(source string) (*Topic, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.topicLocked(source)
}

// topicLocked opens the source's topic under s.mu. A new topic resolves
// its Replica here — exactly once per source — and starts its applier.
func (s *Server) topicLocked(source string) (*Topic, error) {
	if t := s.topics[source]; t != nil {
		return t, nil
	}
	if s.closed {
		return nil, errors.New("netrepl: server shut down")
	}
	q, err := transport.OpenQueueObs(s.cfg.FS, filepath.Join(s.cfg.Dir, source), s.cfg.Obs, obs.L("source", source))
	if err != nil {
		return nil, err
	}
	t := &Topic{Source: source, Q: q, wake: make(chan struct{}, 1)}
	// Recover the dedup mark from the queue itself: every message is an
	// encoded op whose header carries its seq, and appends are in seq
	// order, so the maximum over the file is the high-water mark.
	if err := q.ForEach(func(msg []byte) error {
		seq, err := opdelta.PeekSeq(msg)
		if err != nil {
			return err
		}
		if seq > t.lastSeq {
			t.lastSeq = seq
		}
		return nil
	}); err != nil {
		q.Close()
		return nil, err
	}
	if s.cfg.Replica != nil {
		if t.replica, err = s.cfg.Replica(source); err != nil {
			q.Close()
			return nil, err
		}
		s.startApplier(t)
	}
	s.topics[source] = t
	s.cfg.Obs.GaugeFunc("netrepl_server_last_seq", func() float64 {
		return float64(t.LastSeq())
	}, obs.L("source", source))
	s.cfg.Obs.GaugeFunc("netrepl_span_handoff_pending", func() float64 {
		return float64(t.PendingSpanHandoffs())
	}, obs.L("source", source))
	return t, nil
}

// startApplier runs t's applier into its replica until Shutdown.
func (s *Server) startApplier(t *Topic) {
	ap := &Applier{
		Topic:      t,
		Integrator: t.replica.Integrator,
		SchemaOf:   t.replica.Integrator.W.DB.Schema,
		Bootstrap:  t.replica.Bootstrap,
		Tracer:     s.cfg.Tracer,
		Spans:      s.cfg.Spans,
		Obs:        s.cfg.Obs,
	}
	s.applyWG.Add(1)
	go func() {
		defer s.applyWG.Done()
		if err := ap.Run(s.stopApply); err != nil {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.applyErr == nil {
				s.applyErr = fmt.Errorf("applier %s: %w", t.Source, err)
				close(s.failed)
			}
		}
	}()
}

// Failed is closed when an applier fails; Shutdown returns the error.
func (s *Server) Failed() <-chan struct{} { return s.failed }

// recoverTopics opens, with Replica set, every topic a previous run
// left under Dir, so each backlog applies without its shipper. Once
// per server.
func (s *Server) recoverTopics() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Replica == nil || s.recovered {
		return nil
	}
	entries, err := s.cfg.FS.ReadDir(s.cfg.Dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			if _, err := s.topicLocked(e.Name()); err != nil {
				return err
			}
		}
	}
	s.recovered = true
	return nil
}

// Serve accepts connections on lis until the listener fails or the
// server shuts down. It returns nil after Shutdown/Close. The first
// call first recovers the topics under Dir (with Replica set).
func (s *Server) Serve(lis net.Listener) error {
	if err := s.recoverTopics(); err != nil {
		return err
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			// Shed load explicitly: the client reads BUSY and backs off
			// instead of diagnosing a silent close.
			s.busy.Inc()
			WriteFrame(conn, FrameBusy, 0, nil)
			conn.Close()
			continue
		}
		s.conns[conn] = true
		s.connsGauge.Set(int64(len(s.conns)))
		s.serveWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.serveWG.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.connsGauge.Set(int64(len(s.conns)))
			s.mu.Unlock()
		}()
	}
}

// handle services one shipper connection: HELLO/WELCOME handshake,
// then DELTA→ACK and heartbeat echo until the stream ends.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	// All writes go through one mutex-guarded sender: the handler loop
	// (acks, heartbeat echoes) and the bootstrapper (chunk verdicts,
	// pushed from the applier goroutine) share the connection, and each
	// frame must stay a single Write call.
	var sendMu sync.Mutex
	send := func(typ, flags byte, payload []byte) error {
		sendMu.Lock()
		defer sendMu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(s.cfg.Lease))
		return WriteFrame(conn, typ, flags, payload)
	}
	conn.SetReadDeadline(time.Now().Add(s.cfg.Lease))
	typ, _, payload, err := ReadFrame(conn)
	helloRecvNs := time.Now().UnixNano()
	if err != nil || typ != FrameHello {
		s.badFrames.Inc()
		return
	}
	base, helloSendNs, source, err := parseHello(payload)
	if err != nil {
		s.rejects.Inc()
		send(FrameReject, 0, []byte(err.Error()))
		return
	}
	topic, err := s.Topic(source)
	if err != nil {
		s.rejects.Inc()
		send(FrameReject, 0, []byte(err.Error()))
		return
	}
	mode := ModeStream
	var progress []BootstrapProgress
	var boot *Bootstrapper
	if topic.replica != nil {
		boot = topic.replica.Bootstrap
	}
	if boot != nil {
		mode, progress, err = boot.Handshake(base, topic.LastSeq(), send)
		if err != nil {
			s.rejects.Inc()
			send(FrameReject, 0, []byte(err.Error()))
			return
		}
	} else if base > topic.LastSeq() {
		// Ops (LastSeq, base] are gone from the source log and this
		// server cannot bootstrap: accepting the stream would leave a
		// silent gap in the replica.
		s.rejects.Inc()
		send(FrameReject, 0, []byte("snapshot bootstrap required but not enabled"))
		return
	}
	s.connects.Inc()
	// The HELLO's timestamp goes back with our receive/send pair — the
	// first skew exchange of the connection.
	wts := skewTimes{T0: helloSendNs, T1: helloRecvNs, T2: time.Now().UnixNano()}
	if err := send(FrameWelcome, 0, welcomePayload(topic.LastSeq(), mode, progress, wts)); err != nil {
		return
	}
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.Lease))
		typ, flags, payload, err := ReadFrame(conn)
		recvNs := time.Now().UnixNano()
		if err != nil {
			if errors.Is(err, ErrBadFrame) {
				// The framing is broken — resynchronizing mid-stream is
				// impossible, so force the client through reconnect+resume.
				s.badFrames.Inc()
			}
			return
		}
		switch typ {
		case FrameDelta:
			tc, body, err := splitTraceTrailer(flags, payload)
			if err != nil {
				s.badFrames.Inc()
				return
			}
			ack, err := s.enqueue(topic, body, tc, recvNs)
			if err != nil {
				s.badFrames.Inc()
				return
			}
			if err := send(FrameAck, 0, seqPayload(ack)); err != nil {
				return
			}
		case FrameWatermark, FrameSnapshotChunk:
			if boot == nil {
				s.badFrames.Inc()
				return
			}
			tc, body, err := splitTraceTrailer(flags, payload)
			if err != nil {
				s.badFrames.Inc()
				return
			}
			// Buffer only: reconciliation runs on the applier goroutine
			// (Observe), serialized against delta application, so wake it.
			// The verdict is pushed later through send as a CHUNK_ACK.
			if err := boot.Deliver(typ, body, tc, recvNs); err != nil {
				s.badFrames.Inc()
				return
			}
			topic.signal()
		case FrameHeartbeat:
			// A probe carries the shipper's send time and its current
			// offset estimate: store the estimate on the topic for the
			// applier's corrected lag, echo the exchange back.
			t0, off, rtt, has, err := parseProbe(payload)
			if err != nil {
				s.badFrames.Inc()
				return
			}
			if has {
				topic.SetSkew(off, rtt)
			}
			echo := echoPayload(skewTimes{T0: t0, T1: recvNs, T2: time.Now().UnixNano()})
			if err := send(FrameHeartbeat, FlagReply, echo); err != nil {
				return
			}
		case FrameShutdown:
			return
		default:
			s.badFrames.Inc()
			return
		}
	}
}

// enqueue appends a DELTA batch's fresh ops to the topic and returns
// the seq to ack. The topic mutex spans parse-filter-append so two
// connections for one source (an old half-dead one plus its
// replacement) cannot interleave appends out of seq order.
//
// Every batch with fresh ops pushes a batch mark (receive time, trace
// context) BEFORE the append — the applier reads the queue concurrently
// and could dequeue an op the instant the write lands, so pushing after
// would leave it without its mark.
func (s *Server) enqueue(topic *Topic, payload []byte, tc obs.TraceContext, recvNs int64) (uint64, error) {
	prevSeq, encOps, err := parseDelta(payload)
	if err != nil {
		return 0, err
	}
	topic.mu.Lock()
	defer topic.mu.Unlock()
	if prevSeq > topic.lastSeq {
		// The batch chains onto a seq we have not made durable: a
		// reordered segment jumped ahead of its predecessor. Accepting it
		// would advance the watermark past ops that never arrived — the
		// predecessor would then look like a replay and be dropped, a
		// silent loss under a clean ack. Ignore the batch and duplicate-ack
		// the current watermark; the shipper's ack timeout forces a
		// reconnect that resends everything from it in order.
		s.outOfOrder.Inc()
		return topic.lastSeq, nil
	}
	// Filter replays before touching the queue: the surviving ops go to
	// the topic as one batch — one write, one fsync per DELTA — and the
	// watermark is published only after that append is durable.
	fresh := encOps[:0]
	last := topic.lastSeq
	for _, enc := range encOps {
		seq, err := opdelta.PeekSeq(enc)
		if err != nil {
			return 0, err
		}
		if seq <= last {
			s.redelivered.Inc()
			continue
		}
		fresh = append(fresh, enc)
		last = seq
	}
	if len(fresh) == 0 {
		// A pure redelivery was marked on its first arrival (or predates
		// this process): nothing to persist, no mark to push.
		return topic.lastSeq, nil
	}
	first, _ := opdelta.PeekSeq(fresh[0]) // parsed in the loop above
	mark := &batchMark{first: first, last: last, recvNs: recvNs, tc: tc}
	if dropped := topic.pushMark(mark); dropped > 0 {
		s.handoffDropped.Add(uint64(dropped))
	}
	// Durable on return (group-synced fsync), so acking last acks only
	// durable ops. On failure nothing is published and the queue has cut
	// the write back: the shipper resends from the old watermark.
	if err := topic.Q.AppendBatch(fresh); err != nil {
		topic.unpushMark(mark)
		return 0, err
	}
	topic.lastSeq = last
	topic.signal()
	end := time.Now().UnixNano()
	mark.persistEnd.Store(end)
	if !tc.Zero() {
		s.cfg.Spans.Record(obs.SpanRecord{
			TraceID: tc.TraceID, SpanID: obs.SpanIDFor(tc.TraceID, "persist"), ParentID: tc.SpanID,
			Name: "persist", Source: topic.Source, Seq: last,
			StartUnixNs: recvNs, EndUnixNs: end,
		})
	}
	s.enqueuedOps.Add(uint64(len(fresh)))
	if s.cfg.OnEnqueue != nil {
		s.cfg.OnEnqueue(topic.Source, len(fresh))
	}
	return last, nil
}

// Shutdown stops accepting, announces SHUTDOWN on every active
// connection and severs it, waits for the handlers, stops the appliers
// — each drains its queue, so every op the server acked is applied —
// and closes the topics. It returns the first applier error. The
// listener passed to Serve is closed by the caller.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		// Best effort: tell the shipper this is a graceful close, not a
		// crash, then sever. The shipper backs off and resumes later.
		WriteFrame(c, FrameShutdown, 0, nil)
		c.Close()
	}
	s.serveWG.Wait()
	close(s.stopApply)
	s.applyWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	firstErr := s.applyErr
	for _, t := range s.topics {
		if err := t.Q.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
