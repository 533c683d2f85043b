package netrepl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"opdelta/internal/fault"
	"opdelta/internal/obs"
)

// TestFrameRoundTrip: every type and assorted payload sizes survive
// write→read intact.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xA5}, 10_000)}
	types := []byte{FrameHello, FrameWelcome, FrameDelta, FrameAck, FrameBusy, FrameHeartbeat, FrameShutdown, FrameReject}
	var buf bytes.Buffer
	for _, typ := range types {
		for i, p := range payloads {
			buf.Reset()
			if err := WriteFrame(&buf, typ, FlagReply, p); err != nil {
				t.Fatalf("%s payload %d: write: %v", frameName(typ), i, err)
			}
			gt, gf, gp, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("%s payload %d: read: %v", frameName(typ), i, err)
			}
			if gt != typ || gf != FlagReply || !bytes.Equal(gp, p) {
				t.Fatalf("%s payload %d: round trip mismatch", frameName(typ), i)
			}
		}
	}
}

// TestFrameCorruptionDetected: flipping any single byte of an encoded
// frame must fail the read — the CRC covers header and payload both.
func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameDelta, 0, []byte("the quick brown fox")); err != nil {
		t.Fatal(err)
	}
	clean := append([]byte(nil), buf.Bytes()...)
	for i := range clean {
		for _, bit := range []byte{0x01, 0x80} {
			dirty := append([]byte(nil), clean...)
			dirty[i] ^= bit
			_, _, _, err := ReadFrame(bytes.NewReader(dirty))
			if err == nil {
				t.Fatalf("flipped bit %02x at byte %d went undetected", bit, i)
			}
		}
	}
	// A torn frame (prefix only) is a transport error, not silence.
	for _, cut := range []int{1, headerSize - 1, headerSize, len(clean) - 1} {
		_, _, _, err := ReadFrame(bytes.NewReader(clean[:cut]))
		if err == nil {
			t.Fatalf("torn frame (%d of %d bytes) read successfully", cut, len(clean))
		}
	}
	// Oversized declared length fails before allocation.
	huge := append([]byte(nil), clean...)
	huge[2], huge[3], huge[4], huge[5] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized length: err = %v, want ErrBadFrame", err)
	}
}

// TestDeltaPayloadRoundTrip: batch encode/parse preserves op frames and
// rejects truncation.
func TestDeltaPayloadRoundTrip(t *testing.T) {
	ops := [][]byte{
		append(seqPayload(7), []byte("op-seven")...),
		append(seqPayload(8), []byte("op-eight")...),
		seqPayload(9),
	}
	p := deltaPayload(6, ops)
	prev, got, err := parseDelta(p)
	if err != nil {
		t.Fatal(err)
	}
	if prev != 6 {
		t.Fatalf("prev seq = %d, want 6", prev)
	}
	if len(got) != len(ops) {
		t.Fatalf("parsed %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i], ops[i]) {
			t.Fatalf("op %d mismatch", i)
		}
		seq, err := opSeq(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(7 + i); seq != want {
			t.Fatalf("op %d seq = %d, want %d", i, seq, want)
		}
	}
	if _, _, err := parseDelta(p[:len(p)-2]); err == nil {
		t.Fatal("truncated DELTA parsed successfully")
	}
	if _, _, err := parseDelta(append(p, 0)); err == nil {
		t.Fatal("DELTA with trailing garbage parsed successfully")
	}
}

// TestHelloRoundTrip checks the handshake payload codec.
func TestHelloRoundTrip(t *testing.T) {
	base, sendNs, src, err := parseHello(helloPayload("src-a", 42, 777))
	if err != nil {
		t.Fatal(err)
	}
	if src != "src-a" || base != 42 || sendNs != 777 {
		t.Fatalf("parsed source %q base %d sendNs %d", src, base, sendNs)
	}
	if _, _, _, err := parseHello(helloPayload("", 42, 777)); err == nil {
		t.Fatal("empty source parsed successfully")
	}
	if _, _, _, err := parseHello([]byte{Version}); err == nil {
		t.Fatal("truncated HELLO parsed successfully")
	}
	seq, err := parseSeq(seqPayload(1 << 40))
	if err != nil || seq != 1<<40 {
		t.Fatalf("seq round trip: %d, %v", seq, err)
	}
	if _, err := parseSeq([]byte{1, 2, 3}); err == nil {
		t.Fatal("short seq payload parsed successfully")
	}
}

// io.Reader sanity: ReadFrame must work over a reader that returns one
// byte at a time (TCP segment boundaries are arbitrary).
func TestFrameReadByteAtATime(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameAck, 0, seqPayload(42)); err != nil {
		t.Fatal(err)
	}
	typ, _, payload, err := ReadFrame(iotest{r: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameAck {
		t.Fatalf("type = %s", frameName(typ))
	}
	if seq, _ := parseSeq(payload); seq != 42 {
		t.Fatalf("seq = %d", seq)
	}
}

type iotest struct{ r io.Reader }

func (o iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// deadlineReader delivers one byte per Read and fails every other Read
// with a timeout, as a connection does whose read deadline expires
// between every two bytes of a frame.
type deadlineReader struct {
	r        io.Reader
	timeouts int
	expire   bool
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	d.expire = !d.expire
	if d.expire {
		d.timeouts++
		return 0, os.ErrDeadlineExceeded
	}
	if len(p) > 1 {
		p = p[:1]
	}
	return d.r.Read(p)
}

// TestFrameReaderResumesAcrossDeadlines: frames delivered one byte at a
// time with the deadline expiring before every byte — inside the
// header, between header and payload, inside the payload — come out
// intact and in order. The one-shot ReadFrame loses the stream on the
// first such deadline, which is why the shipper keeps a FrameReader.
func TestFrameReaderResumesAcrossDeadlines(t *testing.T) {
	var stream bytes.Buffer
	want := [][]byte{seqPayload(42), nil, bytes.Repeat([]byte{0x5A}, 300)}
	for _, p := range want {
		if err := WriteFrame(&stream, FrameAck, FlagReply, p); err != nil {
			t.Fatal(err)
		}
	}
	raw := append([]byte(nil), stream.Bytes()...)

	src := &deadlineReader{r: bytes.NewReader(raw)}
	fr := NewFrameReader(src)
	for i, p := range want {
		for {
			typ, flags, payload, err := fr.ReadFrame()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if typ != FrameAck || flags != FlagReply || !bytes.Equal(payload, p) {
				t.Fatalf("frame %d: got %s flags %d, %d payload bytes", i, frameName(typ), flags, len(payload))
			}
			break
		}
	}
	if src.timeouts < len(raw) {
		t.Fatalf("only %d deadlines expired over %d bytes", src.timeouts, len(raw))
	}
	// The stream ends cleanly between frames...
	for {
		_, _, _, err := fr.ReadFrame()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		if err != io.EOF {
			t.Fatalf("end of stream: %v, want io.EOF", err)
		}
		break
	}
	// ...while a close in the middle of a frame stays an error, wherever
	// the cut falls and however many deadlines preceded it.
	for _, cut := range []int{1, headerSize - 1, headerSize, headerSize + 3} {
		fr := NewFrameReader(&deadlineReader{r: bytes.NewReader(raw[:cut])})
		for {
			_, _, _, err := fr.ReadFrame()
			if errors.Is(err, os.ErrDeadlineExceeded) {
				continue
			}
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("stream closed after %d bytes: %v, want io.ErrUnexpectedEOF", cut, err)
			}
			break
		}
	}
	// The pre-change behaviour, for contrast: a one-shot read that hits a
	// deadline mid-frame has consumed bytes it cannot give back.
	oneShot := &deadlineReader{r: bytes.NewReader(raw)}
	if _, _, _, err := ReadFrame(oneShot); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("one-shot read: %v", err)
	}
}

// slowConn makes every Read of a connection deliver at most one byte
// and fail with a timeout before each of them, from the first polling
// read on: the handshake runs under SetDeadline and is left alone, the
// shipper's reap loop announces itself with SetReadDeadline.
type slowConn struct {
	net.Conn
	d       *deadlineReader
	polling bool
}

func (c *slowConn) SetReadDeadline(t time.Time) error {
	c.polling = true
	return c.Conn.SetReadDeadline(t)
}

func (c *slowConn) Read(p []byte) (int, error) {
	if !c.polling {
		return c.Conn.Read(p)
	}
	return c.d.Read(p)
}

// TestShipperSurvivesDeadlineInsideEveryFrame: with the server's frames
// (ACKs, heartbeat echoes) arriving one byte per poll and a
// deadline expiring before each byte, the shipper still ships the whole
// log over its first and only connection.
func TestShipperSurvivesDeadlineInsideEveryFrame(t *testing.T) {
	src := newReplSource(t)
	src.workload(t, 40, 0)
	want := src.maxSeq(t)

	nw := fault.NewNet(fault.NetProfile{Seed: 11})
	reg := obs.NewRegistry()
	startServer(t, nw, ServerConfig{Dir: t.TempDir(), Obs: reg})
	sh := NewShipper(ShipperConfig{
		Source: "src-d",
		Dial: func() (net.Conn, error) {
			c, err := nw.Dial()
			if err != nil {
				return nil, err
			}
			return &slowConn{Conn: c, d: &deadlineReader{r: c}}, nil
		},
		Fetch: src.log.Read, SchemaOf: src.schemaOf, Obs: reg,
		BatchOps: 4, Retry: fastPolicy, PollEvery: time.Millisecond,
	})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- sh.Run(stop) }()
	waitFor(t, 20*time.Second, "full ack", func() bool { return sh.Acked() == want })
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	l := obs.L("source", "src-d")
	if n := reg.Counter("netrepl_shipper_reconnects_total", l).Value(); n != 1 {
		t.Fatalf("shipper connected %d times, want only the initial connection", n)
	}
	if n := reg.Counter("netrepl_shipper_retries_total", l).Value(); n != 0 {
		t.Fatalf("shipper retried %d times", n)
	}
	if n := reg.Counter("netrepl_server_bad_frames_total").Value(); n != 0 {
		t.Fatalf("server saw %d bad frames", n)
	}
}

// payloadCase is one payload decoder under test: an encoder's output,
// the values it must decode to, and payloads whose count or length
// field claims 1<<62 elements or bytes.
type payloadCase struct {
	name    string
	payload []byte
	want    []any
	decode  func([]byte) ([]any, error)
	hostile [][]byte
	// tail is how many bytes at the end are an unbounded field (HELLO's
	// source id): cutting into it or appending to it changes the value,
	// not the payload's validity.
	tail int
}

func payloadCases() []payloadCase {
	huge := func(prefix ...byte) []byte { return binary.AppendUvarint(prefix, 1<<62) }
	ts := skewTimes{T0: 1, T1: -2, T2: 3}
	tsBytes := appendSkewTimes(nil, ts)
	prog := []BootstrapProgress{{Table: "parts", Done: true}, {Table: "other", LastKey: []byte("k7")}}
	ops := [][]byte{append(seqPayload(7), "op-seven"...), seqPayload(8), {}}
	rows := [][]byte{[]byte("row-a"), {}, []byte("row-c")}
	keys := [][]byte{[]byte("k1"), []byte("k22")}
	return []payloadCase{
		{
			name: "HELLO", payload: helloPayload("src-a", 1<<40, -5), want: []any{uint64(1 << 40), int64(-5), "src-a"},
			decode: func(p []byte) ([]any, error) { b, n, s, err := parseHello(p); return []any{b, n, s}, err },
			tail:   len("src-a"),
		},
		{
			name: "WELCOME stream", payload: welcomePayload(9, ModeStream, nil, ts),
			want:   []any{uint64(9), ModeStream, []BootstrapProgress(nil), ts},
			decode: decodeWelcome,
		},
		{
			name: "WELCOME bootstrap", payload: welcomePayload(9, ModeBootstrap, prog, ts),
			want:   []any{uint64(9), ModeBootstrap, prog, ts},
			decode: decodeWelcome,
			hostile: [][]byte{
				append(huge(append(seqPayload(9), ModeBootstrap)...), tsBytes...),
				append(huge(append(seqPayload(9), ModeBootstrap, 1)...), tsBytes...),
			},
		},
		{
			name: "HEARTBEAT probe", payload: probePayload(100, -7, 42, true), want: []any{int64(100), int64(-7), int64(42), true},
			decode: func(p []byte) ([]any, error) { a, b, c, d, err := parseProbe(p); return []any{a, b, c, d}, err },
		},
		{
			name: "HEARTBEAT echo", payload: echoPayload(ts), want: []any{ts},
			decode: func(p []byte) ([]any, error) { ts, err := parseEcho(p); return []any{ts}, err },
		},
		{
			name: "WATERMARK", payload: watermarkPayload(wmHigh, 3, 2, 1<<50), want: []any{wmHigh, uint64(3), uint64(2), uint64(1 << 50)},
			decode: func(p []byte) ([]any, error) { k, c, r, s, err := parseWatermark(p); return []any{k, c, r, s}, err },
		},
		{
			name:    "SNAPSHOT_CHUNK",
			payload: chunkPayload(4, 1, chunkFinal|chunkChase, "parts", []byte("last"), rows),
			want:    []any{uint64(4), uint64(1), chunkFinal | chunkChase, "parts", []byte("last"), rows},
			decode: func(p []byte) ([]any, error) {
				c, r, f, tb, lk, rs, err := parseChunk(p)
				return []any{c, r, f, tb, lk, rs}, err
			},
			hostile: [][]byte{
				huge(4, 1, 0, 1, 't', 0),
				append(huge(4, 1, 0), 't'),
				append(huge(4, 1, 0, 1, 't', 0, 1), 'r'),
			},
		},
		{
			name: "CHUNK_ACK", payload: chunkAckPayload(4, 2, chunkResend, keys), want: []any{uint64(4), uint64(2), chunkResend, keys},
			decode:  func(p []byte) ([]any, error) { c, r, s, ks, err := parseChunkAck(p); return []any{c, r, s, ks}, err },
			hostile: [][]byte{huge(4, 2, chunkResend), append(huge(4, 2, chunkResend, 1), 'k')},
		},
		{
			name: "ACK", payload: seqPayload(1 << 40), want: []any{uint64(1 << 40)},
			decode: func(p []byte) ([]any, error) { s, err := parseSeq(p); return []any{s}, err },
		},
		{
			name: "DELTA", payload: deltaPayload(6, ops), want: []any{uint64(6), ops},
			decode:  func(p []byte) ([]any, error) { prev, ops, err := parseDelta(p); return []any{prev, ops}, err },
			hostile: [][]byte{huge(0), append(huge(0, 1), 'o'), append(huge(0, 2, 1, 'o'), 'p')},
		},
	}
}

func decodeWelcome(p []byte) ([]any, error) {
	seq, mode, prog, ts, err := parseWelcome(p)
	return []any{seq, mode, prog, ts}, err
}

// helloRejectReason reports whether err is one of the two HELLO errors
// the server sends back as its REJECT reason instead of counting a bad
// frame.
func helloRejectReason(err error) bool {
	return strings.HasPrefix(err.Error(), "unsupported version") || err.Error() == "missing source id"
}

// TestFramePayloadDecoders: every payload decoder round-trips its
// encoder's output, fails every truncation and a trailing byte with
// ErrBadFrame, and fails a count or length of 1<<62 with ErrBadFrame
// instead of sizing a slice by it.
func TestFramePayloadDecoders(t *testing.T) {
	for _, c := range payloadCases() {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.decode(c.payload)
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("round trip = %#v, want %#v", got, c.want)
			}
			for cut := 0; cut < len(c.payload)-c.tail; cut++ {
				if _, err := c.decode(c.payload[:cut]); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("cut to %d of %d bytes: err = %v, want ErrBadFrame", cut, len(c.payload), err)
				}
			}
			if c.tail == 0 {
				if _, err := c.decode(append(c.payload[:len(c.payload):len(c.payload)], 0)); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("one trailing byte: err = %v, want ErrBadFrame", err)
				}
			}
			for i, p := range c.hostile {
				if _, err := c.decode(p); !errors.Is(err, ErrBadFrame) {
					t.Fatalf("hostile payload %d (% x): err = %v, want ErrBadFrame", i, p, err)
				}
			}
		})
	}
	// HELLO's fixed fields end where its source id starts: a HELLO cut
	// there has no source, which is a REJECT reason, not a bad frame.
	if _, _, _, err := parseHello(helloPayload("", 1, 2)); err == nil || !helloRejectReason(err) {
		t.Fatalf("HELLO without source: err = %v, want the missing source id reason", err)
	}
}

// FuzzFramePayloads: no payload panics a decoder, and every error but
// HELLO's two REJECT reasons wraps ErrBadFrame. Its seed corpus is every
// encoder's output and the hostile counts, so plain `go test` runs them.
func FuzzFramePayloads(f *testing.F) {
	cases := payloadCases()
	for i, c := range cases {
		f.Add(uint8(i), c.payload)
		for _, p := range c.hostile {
			f.Add(uint8(i), p)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, p []byte) {
		c := cases[int(which)%len(cases)]
		_, err := c.decode(p)
		if err != nil && !errors.Is(err, ErrBadFrame) && !(c.name == "HELLO" && helloRejectReason(err)) {
			t.Fatalf("%s decoder: err = %v, want ErrBadFrame", c.name, err)
		}
	})
}

// TestServerSurvivesHostileCount: a CRC-valid DELTA whose op count is
// 1<<62 costs its connection and one bad-frame count, not the server:
// a fresh shipper still replicates through it afterwards.
func TestServerSurvivesHostileCount(t *testing.T) {
	nw := fault.NewNet(fault.NetProfile{Seed: 12})
	reg := obs.NewRegistry()
	startServer(t, nw, ServerConfig{Dir: t.TempDir(), Obs: reg, Lease: 5 * time.Second})

	conn, err := nw.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, FrameHello, 0, helloPayload("src-h", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := ReadFrame(conn); err != nil || typ != FrameWelcome {
		t.Fatalf("handshake: %s, %v", frameName(typ), err)
	}
	if err := WriteFrame(conn, FrameDelta, 0, binary.AppendUvarint([]byte{0}, 1<<62)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, _, err := ReadFrame(conn); err == nil {
		t.Fatalf("server answered the hostile DELTA with %s, want a closed connection", frameName(typ))
	}
	if n := reg.Counter("netrepl_server_bad_frames_total").Value(); n != 1 {
		t.Fatalf("bad frames = %d, want 1", n)
	}

	src := newReplSource(t)
	src.workload(t, 20, 0)
	want := src.maxSeq(t)
	sh := NewShipper(ShipperConfig{Source: "src-h", Dial: nw.Dial, Fetch: src.log.Read, SchemaOf: src.schemaOf,
		Obs: reg, Retry: fastPolicy})
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- sh.Run(stop) }()
	waitFor(t, 20*time.Second, "the fresh shipper's ack", func() bool { return sh.Acked() == want })
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("netrepl_server_bad_frames_total").Value(); n != 1 {
		t.Fatalf("bad frames after the fresh shipper = %d, want 1", n)
	}
}
