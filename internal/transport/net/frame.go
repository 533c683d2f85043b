// Package netrepl is the networked replication protocol between delta
// shippers at the sources and the warehouse-side replication server: a
// length-prefixed, CRC32C-framed wire format carrying Op-Delta batches
// with explicit acknowledgement of the durable LSN, plus the
// fault-tolerance machinery around it — handshake and resume,
// heartbeat liveness, bounded in-flight windows, exponential backoff
// on reconnect, and (source, seq) deduplication so at-least-once
// delivery stays exactly-once through the integrator.
//
// Frame layout (little-endian):
//
//	[0]    type
//	[1]    flags
//	[2:6]  payload length
//	[6:10] CRC32C over bytes [0:6] + payload
//	[10:]  payload
//
// The CRC covers the header's type/flags/length as well as the
// payload, so a flipped type bit or torn length is detected, not just
// payload corruption. Every frame is written with a single Write call:
// over the fault-injected test transport one Write is one fault
// segment, so frame faults are exactly segment faults.
package netrepl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"opdelta/internal/obs"
)

// Version is the protocol version, sent in HELLO; the server REJECTs
// any other. HELLO carries the source log's truncation base and the
// client's send timestamp; WELCOME carries a mode byte, per-table
// bootstrap progress and the server's receive/send pair (the first
// NTP-style clock-skew exchange); HEARTBEAT probes carry further
// exchanges plus the client's current offset estimate. The WATERMARK /
// SNAPSHOT_CHUNK / CHUNK_ACK frames bracket chunked state transfer
// with low/high watermarks (DBLog-style), and DELTA / SNAPSHOT_CHUNK
// frames may carry a FlagTrace span-context trailer.
const Version = 3

// Frame types.
const (
	// FrameHello opens a connection: client sends version + source id.
	FrameHello = byte(iota + 1)
	// FrameWelcome accepts a HELLO: payload is the server's durable seq
	// for the source — the resume point; the client re-sends everything
	// after it.
	FrameWelcome
	// FrameDelta carries a batch of encoded ops.
	FrameDelta
	// FrameAck acknowledges durability: payload is the highest seq
	// durably enqueued at the server.
	FrameAck
	// FrameBusy sheds load: the server refuses the connection (or stops
	// servicing it); the client backs off and redials.
	FrameBusy
	// FrameHeartbeat probes liveness; the server echoes it with
	// FlagReply set.
	FrameHeartbeat
	// FrameShutdown announces a graceful close from either side; the
	// stream ends after it.
	FrameShutdown
	// FrameReject refuses a HELLO permanently (version mismatch, bad
	// source id): payload is a human-readable reason. Unlike BUSY,
	// retrying cannot help.
	FrameReject
	// FrameWatermark brackets a snapshot chunk in the live stream: the
	// low watermark is sampled before the chunk read, the high one
	// after every op in flight at read time has resolved. The replica
	// uses the carried log seqs, not stream position, so watermarks
	// survive the same frame reordering the prevSeq chain defends
	// deltas against.
	FrameWatermark
	// FrameSnapshotChunk carries one PK-ordered chunk of snapshot rows
	// (or a chase: point re-reads of keys invalidated by concurrent
	// deltas).
	FrameSnapshotChunk
	// FrameChunkAck is the server's verdict on a chunk round: done, or
	// resend these keys with a fresh watermark window.
	FrameChunkAck
)

// FlagReply marks a frame as a response to a peer probe (heartbeat
// echo).
const FlagReply = byte(1)

// FlagTrace marks a DELTA or SNAPSHOT_CHUNK payload as ending in a
// trace-context trailer (see appendTraceTrailer). Flag-gated so a frame
// the sender did not sample carries no trailer at all.
const FlagTrace = byte(1 << 1)

const headerSize = 10

// MaxPayload bounds a frame's payload; larger lengths fail the read
// before allocating, so a corrupt length field cannot balloon memory.
const MaxPayload = 8 << 20

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame reports a CRC mismatch or malformed header: the stream
// can no longer be trusted and the connection must be dropped (recovery
// is reconnect + resume, never in-stream repair).
var ErrBadFrame = errors.New("netrepl: corrupt frame")

// frameName names a frame type for errors and metrics.
func frameName(typ byte) string {
	switch typ {
	case FrameHello:
		return "HELLO"
	case FrameWelcome:
		return "WELCOME"
	case FrameDelta:
		return "DELTA"
	case FrameAck:
		return "ACK"
	case FrameBusy:
		return "BUSY"
	case FrameHeartbeat:
		return "HEARTBEAT"
	case FrameShutdown:
		return "SHUTDOWN"
	case FrameReject:
		return "REJECT"
	case FrameWatermark:
		return "WATERMARK"
	case FrameSnapshotChunk:
		return "SNAPSHOT_CHUNK"
	case FrameChunkAck:
		return "CHUNK_ACK"
	default:
		return fmt.Sprintf("type%d", typ)
	}
}

// AppendFrame appends one encoded frame to dst.
func AppendFrame(dst []byte, typ, flags byte, payload []byte) []byte {
	var hdr [headerSize]byte
	hdr[0] = typ
	hdr[1] = flags
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(hdr[0:6], frameCRC), frameCRC, payload)
	binary.LittleEndian.PutUint32(hdr[6:10], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// WriteFrame writes one frame with a single Write call.
func WriteFrame(w io.Writer, typ, flags byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("netrepl: %s payload %d exceeds max %d", frameName(typ), len(payload), MaxPayload)
	}
	buf := AppendFrame(make([]byte, 0, headerSize+len(payload)), typ, flags, payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads and verifies one frame. A short read surfaces the
// transport error (io.EOF / io.ErrUnexpectedEOF on a torn frame); a
// CRC or header violation returns ErrBadFrame. It is a one-shot
// FrameReader: bytes consumed before an error are gone, so a caller
// that polls under short read deadlines keeps a FrameReader instead.
func ReadFrame(r io.Reader) (typ, flags byte, payload []byte, err error) {
	fr := FrameReader{r: r}
	return fr.ReadFrame()
}

// FrameReader reads frames off one stream and is resumable: when a read
// fails partway through a frame — a read deadline expiring between the
// header and the payload, or between any two bytes — the bytes already
// received stay buffered, and the next ReadFrame call continues the
// same frame where the last one stopped. A deadline can therefore never
// desynchronize the stream; the caller just calls again.
//
// The reader is a two-state machine. In the header state it fills
// hdr[:headerSize]; once complete it validates the length, allocates
// the payload and moves to the payload state, filling payload[:len].
// A completed payload is CRC-checked and handed to the caller, and the
// reader returns to an empty header state. Errors leave the state as it
// is; only a completed (or corrupt) frame resets it.
type FrameReader struct {
	r       io.Reader
	hdr     [headerSize]byte
	hdrN    int    // header bytes received
	payload []byte // non-nil once the header is complete
	payN    int    // payload bytes received
}

// NewFrameReader returns a resumable frame reader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// ReadFrame returns the next frame, resuming a partially received one.
// A timeout (or any other error) mid-frame is returned as is and keeps
// the partial frame; a stream that ends mid-frame is
// io.ErrUnexpectedEOF, between frames io.EOF.
func (fr *FrameReader) ReadFrame() (typ, flags byte, payload []byte, err error) {
	if fr.payload == nil {
		if err := fr.fill(fr.hdr[:], &fr.hdrN); err != nil {
			if errors.Is(err, io.EOF) && fr.hdrN > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, nil, err
		}
		n := binary.LittleEndian.Uint32(fr.hdr[2:6])
		if n > MaxPayload {
			fr.hdrN = 0
			return 0, 0, nil, fmt.Errorf("%w: length %d exceeds max %d", ErrBadFrame, n, MaxPayload)
		}
		fr.payload = make([]byte, n)
	}
	if err := fr.fill(fr.payload, &fr.payN); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	typ, flags, payload = fr.hdr[0], fr.hdr[1], fr.payload
	fr.hdrN, fr.payload, fr.payN = 0, nil, 0
	want := binary.LittleEndian.Uint32(fr.hdr[6:10])
	crc := crc32.Update(crc32.Checksum(fr.hdr[0:6], frameCRC), frameCRC, payload)
	if crc != want {
		return 0, 0, nil, fmt.Errorf("%w: %s crc %08x, want %08x", ErrBadFrame, frameName(typ), crc, want)
	}
	return typ, flags, payload, nil
}

// fill reads into buf[*got:] until buf is full, advancing *got past
// every byte received — including those that arrive with an error.
func (fr *FrameReader) fill(buf []byte, got *int) error {
	for *got < len(buf) {
		n, err := fr.r.Read(buf[*got:])
		*got += n
		if err != nil && *got < len(buf) {
			return err
		}
	}
	return nil
}

// Bootstrap modes negotiated in WELCOME.
const (
	// ModeStream: the replica can resume from the delta stream alone;
	// the shipper sends deltas after the WELCOME seq.
	ModeStream = byte(0)
	// ModeBootstrap: the replica needs (or is resuming) a snapshot
	// bootstrap; WELCOME carries per-table chunk progress and the
	// shipper interleaves watermark-bracketed chunks with live deltas.
	ModeBootstrap = byte(1)
)

// BootstrapProgress is one table's durable bootstrap position, sent in
// WELCOME so a resuming shipper skips finished chunks.
type BootstrapProgress struct {
	Table string
	Done  bool
	// LastKey is the encoded PK of the last chunk already applied;
	// empty means start from the beginning of the table.
	LastKey []byte
}

// helloPayload encodes HELLO: version byte, uvarint source-log
// truncation base, 8-byte client send timestamp (unix ns), source id
// (last, because it is the unbounded payload tail).
func helloPayload(source string, base uint64, sendUnixNs int64) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+8+len(source))
	out = append(out, Version)
	out = binary.AppendUvarint(out, base)
	out = binary.LittleEndian.AppendUint64(out, uint64(sendUnixNs))
	return append(out, source...)
}

// parseHello decodes a HELLO payload. A HELLO naming any version but
// Version fails with an error that names it, and one without a source
// id fails too; the server sends either error back as its REJECT.
func parseHello(p []byte) (base uint64, sendUnixNs int64, source string, err error) {
	r := fieldReader{frame: "HELLO", p: p}
	if v := r.u8(); r.err == nil && v != Version {
		return 0, 0, "", fmt.Errorf("unsupported version %d (want %d)", v, Version)
	}
	base, sendUnixNs, source = r.uvarint(), int64(r.u64()), string(r.rest())
	if err := r.end(); err != nil {
		return 0, 0, "", err
	}
	if source == "" {
		return 0, 0, "", errors.New("missing source id")
	}
	return base, sendUnixNs, source, nil
}

// appendBlob appends a uvarint-length-prefixed byte string.
func appendBlob(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// fieldReader reads a payload's fields in order; every payload decoder
// reads through one. The first field that does not fit sets a sticky
// error wrapping ErrBadFrame, and every later read returns zero, so a
// decoder reads all its fields and checks once, at end. Byte strings
// alias the payload.
type fieldReader struct {
	frame string // frame name, for errors
	p     []byte // unread bytes
	off   int    // bytes read, for errors
	err   error
}

// failf records the first failure and drops the unread bytes.
func (r *fieldReader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d: %s", ErrBadFrame, r.frame, r.off, fmt.Sprintf(format, args...))
	}
	r.p = nil
}

// take reads the next n bytes.
func (r *fieldReader) take(n int) []byte {
	if n > len(r.p) {
		r.failf("%d bytes wanted, %d left", n, len(r.p))
		return nil
	}
	b := r.p[:n]
	r.p, r.off = r.p[n:], r.off+n
	return b
}

func (r *fieldReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *fieldReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *fieldReader) uvarint() uint64 {
	v, k := binary.Uvarint(r.p)
	if k <= 0 {
		r.failf("bad uvarint")
		return 0
	}
	r.p, r.off = r.p[k:], r.off+k
	return v
}

// count reads a uvarint element count or byte length. Every element
// takes at least one byte, so a count above the bytes left is corrupt;
// only a count that passed this check may size a slice.
func (r *fieldReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.p)) {
		r.failf("count %d exceeds the %d bytes left", n, len(r.p))
		return 0
	}
	return int(n)
}

// blob reads a uvarint-length-prefixed byte string.
func (r *fieldReader) blob() []byte { return r.take(r.count()) }

// rest reads every byte left: a payload's unbounded tail.
func (r *fieldReader) rest() []byte { return r.take(len(r.p)) }

// end returns the first failure, or an error when bytes are left.
func (r *fieldReader) end() error {
	if len(r.p) > 0 {
		r.failf("%d trailing bytes", len(r.p))
	}
	return r.err
}

// skewTimes carries one NTP-style timestamp exchange: t0 the client's
// probe send, t1 the server's probe receive, t2 the server's reply
// send (all unix ns; t0 on the client clock, t1/t2 on the server's).
// The client adds t3 — its reply receive — and feeds a SkewEstimator.
type skewTimes struct {
	T0, T1, T2 int64
}

func appendSkewTimes(out []byte, ts skewTimes) []byte {
	out = binary.LittleEndian.AppendUint64(out, uint64(ts.T0))
	out = binary.LittleEndian.AppendUint64(out, uint64(ts.T1))
	return binary.LittleEndian.AppendUint64(out, uint64(ts.T2))
}

const skewTimesLen = 24

// welcomePayload encodes WELCOME: 8-byte resume seq, mode byte, in
// ModeBootstrap a uvarint table count followed by per-table progress
// (blob table name, state byte 0=in-progress 1=done, blob last key),
// and a fixed 24-byte timestamp exchange completing the HELLO's skew
// probe.
func welcomePayload(seq uint64, mode byte, progress []BootstrapProgress, ts skewTimes) []byte {
	out := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), seq)
	out = append(out, mode)
	if mode == ModeBootstrap {
		out = binary.AppendUvarint(out, uint64(len(progress)))
		for _, pr := range progress {
			out = appendBlob(out, []byte(pr.Table))
			if pr.Done {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
			out = appendBlob(out, pr.LastKey)
		}
	}
	return appendSkewTimes(out, ts)
}

// parseWelcome decodes a WELCOME payload.
func parseWelcome(p []byte) (seq uint64, mode byte, progress []BootstrapProgress, ts skewTimes, err error) {
	r := fieldReader{frame: "WELCOME", p: p}
	seq, mode = r.u64(), r.u8()
	if mode == ModeBootstrap {
		for n := r.count(); n > 0; n-- {
			pr := BootstrapProgress{Table: string(r.blob()), Done: r.u8() == 1}
			if key := r.blob(); len(key) > 0 {
				pr.LastKey = append([]byte(nil), key...)
			}
			progress = append(progress, pr)
		}
	}
	ts = skewTimes{T0: int64(r.u64()), T1: int64(r.u64()), T2: int64(r.u64())}
	if err := r.end(); err != nil {
		return 0, 0, nil, skewTimes{}, err
	}
	return seq, mode, progress, ts, nil
}

// Heartbeat payloads. A probe carries the client's send time plus its
// current skew estimate, so the server learns the offset the client
// computed from earlier exchanges; the echo carries the full
// three-timestamp exchange back.

// probePayload encodes a HEARTBEAT probe: 8-byte send time, 8-byte
// offset estimate (server−client ns), 8-byte RTT of that estimate's
// sample, 1-byte has-estimate.
func probePayload(sendUnixNs, offsetNs, rttNs int64, hasEstimate bool) []byte {
	out := make([]byte, 0, 25)
	out = binary.LittleEndian.AppendUint64(out, uint64(sendUnixNs))
	out = binary.LittleEndian.AppendUint64(out, uint64(offsetNs))
	out = binary.LittleEndian.AppendUint64(out, uint64(rttNs))
	if hasEstimate {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

// parseProbe decodes a HEARTBEAT probe.
func parseProbe(p []byte) (sendUnixNs, offsetNs, rttNs int64, hasEstimate bool, err error) {
	r := fieldReader{frame: "HEARTBEAT probe", p: p}
	sendUnixNs, offsetNs, rttNs = int64(r.u64()), int64(r.u64()), int64(r.u64())
	hasEstimate = r.u8() == 1
	if err := r.end(); err != nil {
		return 0, 0, 0, false, err
	}
	return sendUnixNs, offsetNs, rttNs, hasEstimate, nil
}

// echoPayload encodes a HEARTBEAT echo: the probe's timestamp
// exchange.
func echoPayload(ts skewTimes) []byte {
	return appendSkewTimes(make([]byte, 0, skewTimesLen), ts)
}

// parseEcho decodes a HEARTBEAT echo.
func parseEcho(p []byte) (skewTimes, error) {
	r := fieldReader{frame: "HEARTBEAT echo", p: p}
	ts := skewTimes{T0: int64(r.u64()), T1: int64(r.u64()), T2: int64(r.u64())}
	if err := r.end(); err != nil {
		return skewTimes{}, err
	}
	return ts, nil
}

// Watermark kinds.
const (
	wmLow  = byte(0)
	wmHigh = byte(1)
)

// watermarkPayload encodes WATERMARK: kind byte, uvarint chunk id,
// uvarint round, uvarint log seq. The round disambiguates chase rounds
// of the same chunk under frame duplication and reordering.
func watermarkPayload(kind byte, chunkID, round, seq uint64) []byte {
	out := make([]byte, 0, 1+3*binary.MaxVarintLen64)
	out = append(out, kind)
	out = binary.AppendUvarint(out, chunkID)
	out = binary.AppendUvarint(out, round)
	return binary.AppendUvarint(out, seq)
}

// parseWatermark decodes a WATERMARK payload.
func parseWatermark(p []byte) (kind byte, chunkID, round, seq uint64, err error) {
	r := fieldReader{frame: "WATERMARK", p: p}
	kind, chunkID, round, seq = r.u8(), r.uvarint(), r.uvarint(), r.uvarint()
	if err := r.end(); err != nil {
		return 0, 0, 0, 0, err
	}
	if kind != wmLow && kind != wmHigh {
		return 0, 0, 0, 0, fmt.Errorf("%w: WATERMARK kind %d", ErrBadFrame, kind)
	}
	return kind, chunkID, round, seq, nil
}

// Chunk flags.
const (
	chunkFinal   = byte(1 << 0) // last chunk of its table
	chunkChase   = byte(1 << 1) // point re-reads of invalidated keys
	chunkRunDone = byte(1 << 2) // last chunk of the whole run: applying it completes bootstrap
)

// chunkPayload encodes SNAPSHOT_CHUNK: uvarint chunk id, uvarint
// round, flags byte, blob table name, blob last key (the PK the next
// chunk resumes after; carried on every round so chase rounds stay
// self-contained), uvarint row count, then one blob per encoded row.
func chunkPayload(chunkID, round uint64, flags byte, table string, lastKey []byte, rows [][]byte) []byte {
	size := 3*binary.MaxVarintLen64 + 1 + len(table) + len(lastKey) + 2*binary.MaxVarintLen64
	for _, r := range rows {
		size += binary.MaxVarintLen64 + len(r)
	}
	out := make([]byte, 0, size)
	out = binary.AppendUvarint(out, chunkID)
	out = binary.AppendUvarint(out, round)
	out = append(out, flags)
	out = appendBlob(out, []byte(table))
	out = appendBlob(out, lastKey)
	out = binary.AppendUvarint(out, uint64(len(rows)))
	for _, r := range rows {
		out = appendBlob(out, r)
	}
	return out
}

// parseChunk decodes a SNAPSHOT_CHUNK payload. Row slices alias p.
func parseChunk(p []byte) (chunkID, round uint64, flags byte, table string, lastKey []byte, rows [][]byte, err error) {
	r := fieldReader{frame: "SNAPSHOT_CHUNK", p: p}
	chunkID, round, flags = r.uvarint(), r.uvarint(), r.u8()
	table, lastKey = string(r.blob()), r.blob()
	rows = make([][]byte, r.count())
	for i := range rows {
		rows[i] = r.blob()
	}
	if err := r.end(); err != nil {
		return 0, 0, 0, "", nil, nil, err
	}
	if len(lastKey) == 0 {
		lastKey = nil
	}
	return chunkID, round, flags, table, lastKey, rows, nil
}

// Chunk ack statuses.
const (
	chunkDone   = byte(0) // chunk applied durably; advance to the next
	chunkResend = byte(1) // re-read the listed keys under a new window
)

// chunkAckPayload encodes CHUNK_ACK: uvarint chunk id, uvarint round,
// status byte, uvarint key count, one blob per invalidated key.
func chunkAckPayload(chunkID, round uint64, status byte, keys [][]byte) []byte {
	size := 3*binary.MaxVarintLen64 + 1
	for _, k := range keys {
		size += binary.MaxVarintLen64 + len(k)
	}
	out := make([]byte, 0, size)
	out = binary.AppendUvarint(out, chunkID)
	out = binary.AppendUvarint(out, round)
	out = append(out, status)
	out = binary.AppendUvarint(out, uint64(len(keys)))
	for _, k := range keys {
		out = appendBlob(out, k)
	}
	return out
}

// parseChunkAck decodes a CHUNK_ACK payload. Key slices alias p.
func parseChunkAck(p []byte) (chunkID, round uint64, status byte, keys [][]byte, err error) {
	r := fieldReader{frame: "CHUNK_ACK", p: p}
	chunkID, round, status = r.uvarint(), r.uvarint(), r.u8()
	keys = make([][]byte, r.count())
	for i := range keys {
		keys[i] = r.blob()
	}
	if err := r.end(); err != nil {
		return 0, 0, 0, nil, err
	}
	return chunkID, round, status, keys, nil
}

// seqPayload encodes the 8-byte seq payload of an ACK frame.
func seqPayload(seq uint64) []byte {
	return binary.LittleEndian.AppendUint64(make([]byte, 0, 8), seq)
}

// parseSeq decodes an ACK payload.
func parseSeq(p []byte) (uint64, error) {
	r := fieldReader{frame: "ACK", p: p}
	seq := r.u64()
	if err := r.end(); err != nil {
		return 0, err
	}
	return seq, nil
}

// deltaPayload frames a batch of already-encoded ops: uvarint prevSeq
// (the sender's cursor immediately before this batch — the seq the
// batch chains onto), uvarint count, then one blob per op. Each op's
// own encoding carries its seq (bytes 0:8), so the batch needs no
// further seq fields.
//
// prevSeq is what makes delivery loss-proof under segment reordering:
// the server accepts a batch only when prevSeq matches its durable
// watermark, so a batch that jumped the queue cannot advance the
// watermark past ops that never arrived.
func deltaPayload(prevSeq uint64, encOps [][]byte) []byte {
	size := deltaHeaderMax
	for _, e := range encOps {
		size += binary.MaxVarintLen64 + len(e)
	}
	out := make([]byte, 0, size)
	out = binary.AppendUvarint(out, prevSeq)
	out = binary.AppendUvarint(out, uint64(len(encOps)))
	for _, e := range encOps {
		out = appendBlob(out, e)
	}
	return out
}

// deltaHeaderMax is the most bytes a DELTA's prevSeq and count take.
const deltaHeaderMax = 2 * binary.MaxVarintLen64

// parseDelta splits a DELTA payload back into its chain seq and the
// encoded ops. The returned slices alias p.
func parseDelta(p []byte) (prevSeq uint64, encOps [][]byte, err error) {
	r := fieldReader{frame: "DELTA", p: p}
	prevSeq = r.uvarint()
	encOps = make([][]byte, r.count())
	for i := range encOps {
		encOps[i] = r.blob()
	}
	if err := r.end(); err != nil {
		return 0, nil, err
	}
	return prevSeq, encOps, nil
}

// opSeq peeks the seq from an encoded op (bytes 0:8 of the op
// encoding) without a full decode.
func opSeq(enc []byte) (uint64, error) {
	if len(enc) < 8 {
		return 0, fmt.Errorf("%w: encoded op %d bytes", ErrBadFrame, len(enc))
	}
	return binary.LittleEndian.Uint64(enc[0:8]), nil
}

// Trace-context trailer. When a frame's FlagTrace bit is
// set, the last 24 bytes of its payload are the span context: 8-byte
// trace id, 8-byte sending span id, 8-byte capture timestamp (unix
// ns, sender's clock). The trailer sits outside the structural
// payload — the DELTA/CHUNK codecs never see it — and inside the
// frame CRC, so a torn trailer is a frame error, never a silently
// corrupt trace id.
const traceTrailerLen = 24

// appendTraceTrailer appends the span context to a payload; the
// frame's flags must carry FlagTrace.
func appendTraceTrailer(payload []byte, tc obs.TraceContext) []byte {
	payload = binary.LittleEndian.AppendUint64(payload, tc.TraceID)
	payload = binary.LittleEndian.AppendUint64(payload, tc.SpanID)
	return binary.LittleEndian.AppendUint64(payload, uint64(tc.CaptureUnixNs))
}

// splitTraceTrailer strips the trailer when flags carry FlagTrace,
// returning the context and the structural payload. Without the flag
// the payload passes through untouched with a zero context — unsampled
// frames take this path.
func splitTraceTrailer(flags byte, payload []byte) (obs.TraceContext, []byte, error) {
	if flags&FlagTrace == 0 {
		return obs.TraceContext{}, payload, nil
	}
	if len(payload) < traceTrailerLen {
		return obs.TraceContext{}, nil, fmt.Errorf("%w: trace trailer truncated (%d bytes)", ErrBadFrame, len(payload))
	}
	cut := len(payload) - traceTrailerLen
	tc := obs.TraceContext{
		TraceID:       binary.LittleEndian.Uint64(payload[cut : cut+8]),
		SpanID:        binary.LittleEndian.Uint64(payload[cut+8 : cut+16]),
		CaptureUnixNs: int64(binary.LittleEndian.Uint64(payload[cut+16 : cut+24])),
	}
	return tc, payload[:cut], nil
}
