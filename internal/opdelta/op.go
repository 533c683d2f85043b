// Package opdelta implements the paper's contribution: capturing deltas
// as the *operations* that caused them (§4) instead of value deltas.
//
// An Op-Delta is the SQL statement submitted to the DBMS, captured
// right before submission — the interception point of a COTS-software
// modification or a wrapper — together with the source transaction
// identity. The size of an update or delete Op-Delta is independent of
// how many rows the statement touches, it preserves source transaction
// boundaries, and (per the self-maintainability analysis in
// analyzer.go) it is sometimes augmented with the before images of the
// affected rows: the paper's "hybrid between a partial value delta (the
// before image portion only) and the Op-Delta".
package opdelta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"opdelta/internal/catalog"
	"opdelta/internal/obs"
	"opdelta/internal/sqlmini"
)

// OpKind is the statement kind of a captured operation.
type OpKind uint8

// Operation kinds.
const (
	OpInvalid OpKind = iota
	OpInsert
	OpUpdate
	OpDelete
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	default:
		return "?"
	}
}

// Op is one captured operation.
type Op struct {
	Seq   uint64 // log sequence, assigned at capture
	Txn   uint64 // source transaction
	Kind  OpKind
	Table string
	// Stmt is the SQL text as it was submitted — the Op-Delta proper.
	// For the paper's motivating example this is ~70 bytes regardless
	// of how many thousands of rows it touches.
	Stmt string
	// Hybrid records that the self-maintainability analysis demanded
	// before images for this op (even if the statement happened to
	// affect zero rows).
	Hybrid bool
	// Before holds the before images of the affected rows when Hybrid
	// is set; nil otherwise.
	Before []catalog.Tuple
	// Time is the capture timestamp at the source.
	Time time.Time

	// Trace is the op's delta-lifecycle trace, attached by the pipeline
	// driver (opdeltad) and stamped by the integrators. Runtime-only: it
	// does not survive Encode/DecodeOp, so a consumer on the far side of
	// a queue re-attaches by Seq. Nil means untraced; stamping a nil
	// trace is a no-op.
	Trace *obs.Trace
}

// CloneOps returns private copies of ops for a caller that needs to set
// Op fields (Trace, typically) on ops a Log.Read returned: those are
// shared with the log and every other reader. The copies share the
// immutable statement text and before images.
func CloneOps(ops []*Op) []*Op {
	out := make([]*Op, len(ops))
	for i, op := range ops {
		c := *op
		out[i] = &c
	}
	return out
}

// EncodedSize returns the length of the op's encoding (Encode): header,
// table, statement text and any hybrid before images. It does not grow
// with rows affected unless before images were captured. An image that
// does not encode against schema counts nothing.
func (o *Op) EncodedSize(schema *catalog.Schema) int {
	n := uvarintLen(o.Seq) + uvarintLen(o.Txn) + 1 + 1 + 8 +
		blobLen(len(o.Table)) + blobLen(len(o.Stmt)) + uvarintLen(uint64(len(o.Before)))
	for _, img := range o.Before {
		if sz, err := catalog.EncodedSize(schema, img); err == nil {
			n += blobLen(sz)
		}
	}
	return n
}

// Statement parses the op's SQL text.
func (o *Op) Statement() (sqlmini.Statement, error) {
	return sqlmini.Parse(o.Stmt)
}

// Encode serializes the op. Its bytes are the op's one persistent form:
// the op-log table, the file log, op files and the wire all carry them.
// The layout: seq and txn as minimal uvarints, the kind byte, the flags
// byte (bit 0: hybrid), the capture time as 8 little-endian bytes of
// unix nanoseconds, the table and the statement as blobs (a uvarint
// length, then the bytes), the before-image count as a uvarint and one
// blob of catalog.EncodeTuple bytes per image. Before images are
// encoded against schema (which may be nil when Before is empty).
func (o *Op) Encode(dst []byte, schema *catalog.Schema) ([]byte, error) {
	dst = binary.AppendUvarint(dst, o.Seq)
	dst = binary.AppendUvarint(dst, o.Txn)
	dst = append(dst, byte(o.Kind))
	var flags byte
	if o.Hybrid {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.Time.UnixNano()))
	dst = appendBlob(dst, []byte(o.Table))
	dst = appendBlob(dst, []byte(o.Stmt))
	dst = binary.AppendUvarint(dst, uint64(len(o.Before)))
	for _, img := range o.Before {
		enc, err := catalog.EncodeTuple(nil, schema, img)
		if err != nil {
			return nil, err
		}
		dst = appendBlob(dst, enc)
	}
	return dst, nil
}

// ErrFixedWidthOp reports op bytes in the layout builds before the
// uvarint header wrote, seq and txn as 8-byte little-endian words. No
// reader misreads them as an op of the current layout: the store that
// holds them has to be replayed by the build that wrote it.
var ErrFixedWidthOp = errors.New("opdelta: op bytes in the fixed-width seq/txn layout of an earlier build: replay them with the build that wrote them")

// readHeader reads an op's header into o — seq, txn, kind, flags and
// capture time — and returns its table name and the offset past it.
// It accepts only what Encode emits: minimal varints, a known kind, no
// flag but the hybrid bit, and a table name, which no captured op
// lacks. Bytes it refuses that read as the fixed-width layout fail with
// ErrFixedWidthOp.
func readHeader(data []byte, o *Op) (table []byte, pos int, err error) {
	table, pos, err = readHeaderFields(data, o)
	if err != nil && fixedWidthLayout(data) {
		return nil, 0, ErrFixedWidthOp
	}
	return table, pos, err
}

func readHeaderFields(data []byte, o *Op) (table []byte, pos int, err error) {
	if o.Seq, pos, err = readUvarint(data, 0); err != nil {
		return nil, 0, err
	}
	if o.Txn, pos, err = readUvarint(data, pos); err != nil {
		return nil, 0, err
	}
	if len(data)-pos < 1+1+8 {
		return nil, 0, errors.New("opdelta: op truncated")
	}
	kind, flags := data[pos], data[pos+1]
	if kind < byte(OpInsert) || kind > byte(OpDelete) {
		return nil, 0, fmt.Errorf("opdelta: bad op kind %d", kind)
	}
	if flags > 1 {
		return nil, 0, fmt.Errorf("opdelta: bad op flags %#x", flags)
	}
	o.Kind, o.Hybrid = OpKind(kind), flags == 1
	o.Time = time.Unix(0, int64(binary.LittleEndian.Uint64(data[pos+2:])))
	if table, pos, err = readBlob(data, pos+10); err != nil {
		return nil, 0, err
	}
	if len(table) == 0 {
		return nil, 0, errors.New("opdelta: op names no table")
	}
	return table, pos, nil
}

// fixedWidthLayout reports whether data reads as an op of the
// fixed-width layout: 8-byte seq and txn, a known kind, a flags byte,
// the 8-byte time, a table name and a statement blob. Only bytes the
// current layout refused are asked: an op of that layout with seq and
// txn below 1<<32 always is, as the zero high bytes of its txn word
// fall where the current layout reads the table name's length.
func fixedWidthLayout(data []byte) bool {
	const kindAt, tableAt = 8 + 8, 8 + 8 + 1 + 1 + 8
	if len(data) < tableAt || data[kindAt] < byte(OpInsert) || data[kindAt] > byte(OpDelete) || data[kindAt+1] > 1 {
		return false
	}
	table, pos, err := readBlob(data, tableAt)
	if err != nil || len(table) == 0 {
		return false
	}
	_, _, err = readBlob(data, pos)
	return err == nil
}

// PeekSeq returns the seq of an encoded op without decoding the rest of
// it. It checks the header as DecodeOpResolve does, so bytes that are
// not an op of this layout fail here too, with ErrFixedWidthOp when
// they are one of the fixed-width layout. The transport's dedup and
// chain checks, topic recovery and the applier's resume read seqs
// through it.
func PeekSeq(enc []byte) (uint64, error) {
	var o Op
	if _, _, err := readHeader(enc, &o); err != nil {
		return 0, err
	}
	return o.Seq, nil
}

// DecodeOp deserializes one op from data, returning bytes consumed.
// Before images are decoded against schema, which may be nil for an op
// that carries none.
func DecodeOp(data []byte, schema *catalog.Schema) (*Op, int, error) {
	return DecodeOpResolve(data, func(string) (*catalog.Schema, error) { return schema, nil })
}

// DecodeOpResolve deserializes one op from data, returning bytes
// consumed. It asks schemaOf for the op's table schema only when the op
// carries before images, so plain ops decode without one (schemaOf may
// be nil). It is the one op decoder: the file and table logs, the
// wire-protocol applier and the op-file readers all decode with it.
//
// It accepts only what Encode emits — a known kind, no flag but the
// hybrid bit, minimal varints, a named table — so any op it returns
// re-encodes to the bytes it consumed. Bytes of the fixed-width layout
// fail with ErrFixedWidthOp.
func DecodeOpResolve(data []byte, schemaOf func(table string) (*catalog.Schema, error)) (*Op, int, error) {
	o := &Op{}
	tbl, pos, err := readHeader(data, o)
	if err != nil {
		return nil, 0, err
	}
	o.Table = string(tbl)
	stmt, pos, err := readBlob(data, pos)
	if err != nil {
		return nil, 0, err
	}
	o.Stmt = string(stmt)
	nimg, pos, err := readUvarint(data, pos)
	if err != nil {
		return nil, 0, err
	}
	if nimg == 0 {
		return o, pos, nil
	}
	if nimg > uint64(len(data)-pos) { // every image takes a length byte at least
		return nil, 0, fmt.Errorf("opdelta: %d before images in %d bytes", nimg, len(data)-pos)
	}
	var schema *catalog.Schema
	if schemaOf != nil {
		if schema, err = schemaOf(o.Table); err != nil {
			return nil, 0, err
		}
	}
	if schema == nil {
		return nil, 0, fmt.Errorf("opdelta: op has before images but no schema to decode them")
	}
	o.Before = make([]catalog.Tuple, 0, nimg)
	for i := uint64(0); i < nimg; i++ {
		var enc []byte
		if enc, pos, err = readBlob(data, pos); err != nil {
			return nil, 0, err
		}
		img, err := catalog.DecodeTuple(schema, enc)
		if err != nil {
			return nil, 0, err
		}
		o.Before = append(o.Before, img)
	}
	return o, pos, nil
}

// AppendOpFrame appends op to dst as one op-file frame: the 4-byte
// little-endian length of the encoded op, then Encode's bytes. FileLog
// and the op files `opdeltad -method opdelta` writes use this framing.
func AppendOpFrame(dst []byte, op *Op, schema *catalog.Schema) ([]byte, error) {
	start := len(dst)
	dst, err := op.Encode(append(dst, 0, 0, 0, 0), schema)
	if err != nil {
		return dst[:start], err
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// SplitOpFrames splits op-file data into its frames' encoded ops, in
// file order. end is the offset just past the last whole frame; a file
// that ends inside a frame (a torn or truncated tail) has end < len(data).
func SplitOpFrames(data []byte) (frames [][]byte, end int) {
	for end+4 <= len(data) {
		sz := int(binary.LittleEndian.Uint32(data[end:]))
		if sz > len(data)-end-4 {
			break
		}
		frames = append(frames, data[end+4:end+4+sz])
		end += 4 + sz
	}
	return frames, end
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func blobLen(n int) int { return uvarintLen(uint64(n)) + n }

func appendBlob(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

var (
	errBadVarint = errors.New("opdelta: bad varint")
	errBadBlob   = errors.New("opdelta: blob truncated")
)

// readUvarint reads the minimal uvarint at pos: a longer form of the
// same value (a zero final byte) is refused, as Encode never writes one.
func readUvarint(data []byte, pos int) (uint64, int, error) {
	v, k := binary.Uvarint(data[pos:])
	if k <= 0 || (k > 1 && data[pos+k-1] == 0) {
		return 0, 0, errBadVarint
	}
	return v, pos + k, nil
}

func readBlob(data []byte, pos int) ([]byte, int, error) {
	l, pos, err := readUvarint(data, pos)
	if err != nil || uint64(len(data)-pos) < l {
		return nil, 0, errBadBlob
	}
	return data[pos : pos+int(l)], pos + int(l), nil
}
