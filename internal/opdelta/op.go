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
	"fmt"
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
	// Stmt is the canonical SQL text — the Op-Delta proper. For the
	// paper's motivating example this is ~70 bytes regardless of how
	// many thousands of rows it touches.
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

// EncodedSize returns the op's transport size in bytes: statement text,
// header, and any hybrid before images. Volume comparisons (E10) use
// this; note it does not grow with rows affected unless before images
// were captured.
func (o *Op) EncodedSize(schema *catalog.Schema) int {
	n := 32 + len(o.Stmt) + len(o.Table)
	for _, img := range o.Before {
		if sz, err := catalog.EncodedSize(schema, img); err == nil {
			n += sz
		}
	}
	return n
}

// Statement parses the op's SQL text.
func (o *Op) Statement() (sqlmini.Statement, error) {
	return sqlmini.Parse(o.Stmt)
}

// Encode serializes the op for file logs and transport. Before images
// are encoded against schema (which may be nil when Before is empty).
func (o *Op) Encode(dst []byte, schema *catalog.Schema) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, o.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, o.Txn)
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

// DecodeOp deserializes one op from data, returning bytes consumed.
func DecodeOp(data []byte, schema *catalog.Schema) (*Op, int, error) {
	if len(data) < 8+8+1+1+8 {
		return nil, 0, fmt.Errorf("opdelta: op truncated")
	}
	o := &Op{}
	o.Seq = binary.LittleEndian.Uint64(data[0:8])
	o.Txn = binary.LittleEndian.Uint64(data[8:16])
	o.Kind = OpKind(data[16])
	o.Hybrid = data[17]&1 != 0
	o.Time = time.Unix(0, int64(binary.LittleEndian.Uint64(data[18:26])))
	pos := 26
	tbl, pos, err := readBlob(data, pos)
	if err != nil {
		return nil, 0, err
	}
	o.Table = string(tbl)
	stmt, pos, err := readBlob(data, pos)
	if err != nil {
		return nil, 0, err
	}
	o.Stmt = string(stmt)
	nimg, k := binary.Uvarint(data[pos:])
	if k <= 0 {
		return nil, 0, fmt.Errorf("opdelta: bad image count")
	}
	pos += k
	for i := uint64(0); i < nimg; i++ {
		var enc []byte
		enc, pos, err = readBlob(data, pos)
		if err != nil {
			return nil, 0, err
		}
		if schema == nil {
			return nil, 0, fmt.Errorf("opdelta: op has before images but no schema to decode them")
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

func appendBlob(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func readBlob(data []byte, pos int) ([]byte, int, error) {
	l, k := binary.Uvarint(data[pos:])
	if k <= 0 || uint64(len(data)-pos-k) < l {
		return nil, 0, fmt.Errorf("opdelta: blob truncated")
	}
	pos += k
	out := data[pos : pos+int(l)]
	return out, pos + int(l), nil
}
