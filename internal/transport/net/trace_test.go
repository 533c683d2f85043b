package netrepl

import (
	"errors"
	"testing"
	"time"

	"opdelta/internal/fault"
	"opdelta/internal/obs"
)

// TestTraceTrailerRoundTrip: the flag-gated trailer carries the trace
// context without disturbing the payload it rides on.
func TestTraceTrailerRoundTrip(t *testing.T) {
	body := deltaPayload(41, [][]byte{[]byte("op-42")})
	tc := obs.TraceContext{TraceID: 0xfeedface, SpanID: 0xdead, CaptureUnixNs: 123456789}
	traced := appendTraceTrailer(append([]byte(nil), body...), tc)

	got, rest, err := splitTraceTrailer(FlagTrace, traced)
	if err != nil {
		t.Fatal(err)
	}
	if got != tc {
		t.Fatalf("trailer round trip = %+v, want %+v", got, tc)
	}
	if string(rest) != string(body) {
		t.Fatalf("stripped payload differs from original")
	}
	prev, ops, err := parseDelta(rest)
	if err != nil || prev != 41 || len(ops) != 1 || string(ops[0]) != "op-42" {
		t.Fatalf("stripped payload no longer parses: prev=%d ops=%v err=%v", prev, ops, err)
	}

	// Without the flag the payload passes through untouched — a v2 frame
	// whose last 24 bytes merely look like a trailer is not misparsed.
	zero, rest, err := splitTraceTrailer(0, traced)
	if err != nil || !zero.Zero() || len(rest) != len(traced) {
		t.Fatalf("flagless split: tc=%+v len=%d err=%v, want passthrough", zero, len(rest), err)
	}

	// Flag set but payload shorter than a trailer: corrupt frame.
	if _, _, err := splitTraceTrailer(FlagTrace, make([]byte, traceTrailerLen-1)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated trailer err = %v, want ErrBadFrame", err)
	}
}

// TestTracedFrameTornByNet: the trailer sits inside the frame CRC, so a
// connection that tears a traced frame mid-flight surfaces a read error
// instead of a frame with a corrupt trace context.
func TestTracedFrameTornByNet(t *testing.T) {
	nw := fault.NewNet(fault.NetProfile{Seed: 7, TruncateProb: 1})
	defer nw.Close()
	client, err := nw.Dial()
	if err != nil {
		t.Fatal(err)
	}
	server, err := nw.Listener().Accept()
	if err != nil {
		t.Fatal(err)
	}
	body := appendTraceTrailer(deltaPayload(0, [][]byte{[]byte("op")}),
		obs.TraceContext{TraceID: 1, SpanID: 2, CaptureUnixNs: 3})
	WriteFrame(client, FrameDelta, FlagTrace, body) // torn: write reports the cut
	if _, _, _, err := ReadFrame(server); err == nil {
		t.Fatal("torn traced frame read back successfully")
	}
}

// TestProbeEchoRoundTrip covers the HEARTBEAT payloads: the probe's
// timestamps and current estimate, and the echo's three skew times.
// A payload of any other length, the empty one included, is a bad
// frame.
func TestProbeEchoRoundTrip(t *testing.T) {
	t0, off, rtt, has, err := parseProbe(probePayload(100, -7, 42, true))
	if err != nil || t0 != 100 || off != -7 || rtt != 42 || !has {
		t.Fatalf("probe round trip: t0=%d off=%d rtt=%d has=%v err=%v", t0, off, rtt, has, err)
	}
	if _, _, _, _, err := parseProbe(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty probe: err=%v, want ErrBadFrame", err)
	}
	ts, err := parseEcho(echoPayload(skewTimes{T0: 1, T1: 2, T2: 3}))
	if err != nil || ts != (skewTimes{T0: 1, T1: 2, T2: 3}) {
		t.Fatalf("echo round trip: %+v err=%v", ts, err)
	}
	if _, err := parseEcho(nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("empty echo: err=%v, want ErrBadFrame", err)
	}
}

// TestWelcomeSkewTimes: WELCOME carries the handshake timestamps after
// the structural payload, in either mode, and one without them is a
// bad frame.
func TestWelcomeSkewTimes(t *testing.T) {
	prog := []BootstrapProgress{{Table: "parts", LastKey: []byte("k"), Done: false}}
	wts := skewTimes{T0: 11, T1: 22, T2: 33}
	seq, mode, gotProg, gotTs, err := parseWelcome(welcomePayload(9, ModeBootstrap, prog, wts))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 9 || mode != ModeBootstrap || len(gotProg) != 1 || gotProg[0].Table != "parts" {
		t.Fatalf("welcome structural fields: seq=%d mode=%d prog=%v", seq, mode, gotProg)
	}
	if gotTs != wts {
		t.Fatalf("welcome skew times = %+v, want %+v", gotTs, wts)
	}
	seq, mode, _, gotTs, err = parseWelcome(welcomePayload(5, ModeStream, nil, wts))
	if err != nil || seq != 5 || mode != ModeStream || gotTs != wts {
		t.Fatalf("stream welcome: seq=%d mode=%d ts=%v err=%v", seq, mode, gotTs, err)
	}
	short := welcomePayload(5, ModeStream, nil, wts)
	if _, _, _, _, err := parseWelcome(short[:len(short)-skewTimesLen]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("welcome without timestamps: err=%v, want ErrBadFrame", err)
	}
}

// TestSkewEstimatorSymmetric: with equal forward and return delay the
// NTP offset formula recovers the clock offset exactly.
func TestSkewEstimatorSymmetric(t *testing.T) {
	const offset = int64(5_000_000) // server 5ms ahead
	const delay = int64(1_000_000)  // 1ms each way
	e := &SkewEstimator{}
	t0 := int64(1_000_000_000)
	t1 := t0 + delay + offset // server receive, server clock
	t2 := t1 + 100            // server processing
	t3 := t2 - offset + delay // client receive, client clock
	e.Sample(t0, t1, t2, t3)
	off, rtt, ok := e.Estimate()
	if !ok {
		t.Fatal("no estimate after sample")
	}
	if off != offset {
		t.Fatalf("symmetric offset = %d, want %d", off, offset)
	}
	if wantRTT := 2 * delay; rtt != wantRTT {
		t.Fatalf("rtt = %d, want %d", rtt, wantRTT)
	}
}

// TestSkewEstimatorAsymmetric: unequal path delays bias the estimate,
// but the error is bounded by half the measured RTT.
func TestSkewEstimatorAsymmetric(t *testing.T) {
	const offset = int64(-3_000_000) // server 3ms behind
	const fwd = int64(4_000_000)     // slow forward path
	const ret = int64(1_000_000)     // fast return path
	e := &SkewEstimator{}
	t0 := int64(2_000_000_000)
	t1 := t0 + fwd + offset
	t2 := t1 + 50
	t3 := t2 - offset + ret
	e.Sample(t0, t1, t2, t3)
	off, rtt, ok := e.Estimate()
	if !ok {
		t.Fatal("no estimate after sample")
	}
	errNs := off - offset
	if errNs < 0 {
		errNs = -errNs
	}
	if bound := rtt / 2; errNs > bound {
		t.Fatalf("asymmetric error %dns exceeds rtt/2 bound %dns", errNs, bound)
	}
}

// TestSkewEstimatorKeepsMinRTT: a later, slower sample must not evict a
// faster one — minimum-RTT filtering is what bounds the error.
func TestSkewEstimatorKeepsMinRTT(t *testing.T) {
	e := &SkewEstimator{}
	base := int64(3_000_000_000)
	sample := func(delay, offset int64) {
		t0 := base
		t1 := t0 + delay + offset
		t2 := t1 + 10
		t3 := t2 - offset + delay
		e.Sample(t0, t1, t2, t3)
		base += int64(time.Second)
	}
	sample(1_000_000, 500_000) // fast, offset 0.5ms
	fastOff, fastRTT, _ := e.Estimate()
	sample(50_000_000, 9_000_000) // slow, wildly different offset
	off, rtt, ok := e.Estimate()
	if !ok || off != fastOff || rtt != fastRTT {
		t.Fatalf("estimate after slow sample = (%d, %d), want fast sample kept (%d, %d)",
			off, rtt, fastOff, fastRTT)
	}
	sample(200_000, -250_000) // faster still: replaces
	off, rtt, _ = e.Estimate()
	if rtt != 400_000 || off != -250_000 {
		t.Fatalf("estimate after faster sample = (%d, %d), want (-250000, 400000)", off, rtt)
	}
}

// TestBatchMarksStampEnqueue: every fresh batch pushes a mark, and the
// applier stamps each op of the batch with that batch's persist time.
// Ops recovered from the queue file when the topic opened lie below the
// first mark's first seq and get no stamp; no mark is left behind.
func TestBatchMarksStampEnqueue(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 12, 0)
	encs, seqs := encodedOps(t, src)
	fs := fault.NewSimFS(1)

	// Batch A lands, then the server stops before anything applies it.
	srv := NewServer(ServerConfig{Dir: "/topics", FS: fs})
	topic, err := srv.Topic("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.enqueue(topic, deltaPayload(0, encs[:4]), obs.TraceContext{}, time.Now().UnixNano()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// The restarted server lands batches B and C; A is in its queue file.
	srv = NewServer(ServerConfig{Dir: "/topics", FS: fs})
	defer srv.Shutdown()
	if topic, err = srv.Topic("s"); err != nil {
		t.Fatal(err)
	}
	persisted := make(map[uint64]int64)
	for _, b := range [][2]int{{4, 8}, {8, 12}} {
		recv := time.Now().UnixNano()
		if _, err := srv.enqueue(topic, deltaPayload(seqs[b[0]-1], encs[b[0]:b[1]]), obs.TraceContext{}, recv); err != nil {
			t.Fatal(err)
		}
		m := topic.marks[len(topic.marks)-1]
		if m.first != seqs[b[0]] || m.last != seqs[b[1]-1] || m.recvNs != recv || m.persistEnd.Load() < recv {
			t.Fatalf("mark %+v for seqs %d..%d received at %d", m, seqs[b[0]], seqs[b[1]-1], recv)
		}
		for _, seq := range seqs[b[0]:b[1]] {
			persisted[seq] = m.persistEnd.Load()
		}
	}

	wh := newReplWarehouse(t, src.schema)
	tracer := obs.NewTracer(obs.NewRegistry(), len(encs))
	ap := &Applier{Topic: topic, Integrator: wh.integ, SchemaOf: src.schemaOf, Tracer: tracer}
	stop := make(chan struct{})
	close(stop) // Run drains the queue, then returns
	if err := ap.Run(stop); err != nil {
		t.Fatal(err)
	}
	recs := tracer.Recent(0)
	if len(recs) != len(encs) {
		t.Fatalf("%d lifecycles, want %d", len(recs), len(encs))
	}
	for _, rec := range recs {
		if rec.Enqueued != persisted[rec.Seq] {
			t.Errorf("seq %d enqueued at %d, want %d", rec.Seq, rec.Enqueued, persisted[rec.Seq])
		}
	}
	if n := topic.PendingSpanHandoffs(); n != 0 {
		t.Fatalf("%d batch marks left after the queue drained", n)
	}
}

// TestBatchMarkBounds: a batch whose append fails leaves no mark, and
// past 1024 pending marks the oldest is evicted and counted as dropped.
func TestBatchMarkBounds(t *testing.T) {
	op := func(seq uint64) []byte { return encodedInsert(t, seq) }
	fs := fault.NewSimFS(1)
	reg := obs.NewRegistry()
	srv := NewServer(ServerConfig{Dir: "/topics", FS: fs, Obs: reg})
	defer srv.Shutdown()
	topic, err := srv.Topic("s")
	if err != nil {
		t.Fatal(err)
	}

	fs.SetScript(&fault.Script{DiskLimit: 1})
	if _, err := srv.enqueue(topic, deltaPayload(0, [][]byte{op(1), op(2)}), obs.TraceContext{}, 0); err == nil {
		t.Fatal("enqueue past the disk limit succeeded")
	}
	if n := topic.PendingSpanHandoffs(); n != 0 || topic.LastSeq() != 0 {
		t.Fatalf("failed append left %d marks, watermark %d", n, topic.LastSeq())
	}
	fs.SetScript(nil)

	for seq := uint64(1); seq <= maxBatchMarks+1; seq++ {
		if _, err := srv.enqueue(topic, deltaPayload(seq-1, [][]byte{op(seq)}), obs.TraceContext{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := topic.PendingSpanHandoffs(); n != maxBatchMarks {
		t.Fatalf("%d marks pending, want the bound %d", n, maxBatchMarks)
	}
	if got := reg.Counter("netrepl_span_handoff_dropped_total").Value(); got != 1 {
		t.Fatalf("netrepl_span_handoff_dropped_total = %d, want 1", got)
	}
	if m, _ := topic.takeMark(1); m != nil {
		t.Fatalf("seq 1's evicted mark still found: %+v", m)
	}
}
