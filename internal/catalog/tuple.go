package catalog

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Tuple is one row: a slice of values, positionally matching a schema.
type Tuple []Value

// Clone returns a deep-enough copy of the tuple: Bytes payloads are
// copied, so the clone shares no slice with its caller.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	for i, v := range t {
		if v.typ == TypeBytes && !v.IsNull() {
			out[i] = NewBytes([]byte(v.s))
		} else {
			out[i] = v
		}
	}
	return out
}

// Equal reports deep equality between two tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		a, b := t[i], o[i]
		if a.IsNull() != b.IsNull() {
			return false
		}
		if a.IsNull() {
			if a.typ != b.typ {
				return false
			}
			continue
		}
		if !Equal(a, b) {
			return false
		}
	}
	return true
}

// String renders the tuple as a parenthesized value list.
func (t Tuple) String() string {
	out := "("
	for i, v := range t {
		if i > 0 {
			out += ", "
		}
		out += v.String()
	}
	return out + ")"
}

// Binary tuple encoding
//
// A tuple is encoded against its schema as:
//
//	null bitmap: ceil(ncols/8) bytes, bit i set => column i is NULL
//	per non-NULL column, by type:
//	  INT64/TIME: 8-byte little-endian two's complement
//	  FLOAT64:    8-byte little-endian IEEE-754 bits
//	  BOOL:       1 byte
//	  STRING/BYTES: uvarint length + payload
//
// The encoding is self-delimiting given the schema, which is how slotted
// pages, WAL records, export files and snapshots all store rows. It is
// also canonical: the decoder refuses what EncodeTuple never writes —
// set bitmap padding bits, a NULL in a NOT NULL column, a bool byte
// other than 0 or 1, an overlong length — so a tuple that decodes
// re-encodes to the same bytes.

// EncodeTuple appends the binary encoding of t (validated against s)
// to dst and returns the extended slice.
func EncodeTuple(dst []byte, s *Schema, t Tuple) ([]byte, error) {
	if err := s.Validate(t); err != nil {
		return nil, err
	}
	nb := (s.NumColumns() + 7) / 8
	bitmapAt := len(dst)
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	var scratch [binary.MaxVarintLen64]byte
	for i, v := range t {
		if v.IsNull() {
			dst[bitmapAt+i/8] |= 1 << (i % 8)
			continue
		}
		switch v.typ {
		case TypeInt64, TypeTime:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
		case TypeFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
		case TypeBool:
			dst = append(dst, byte(v.i))
		case TypeString, TypeBytes:
			n := binary.PutUvarint(scratch[:], uint64(len(v.s)))
			dst = append(dst, scratch[:n]...)
			dst = append(dst, v.s...)
		default:
			return nil, fmt.Errorf("catalog: cannot encode type %s", v.typ)
		}
	}
	return dst, nil
}

// DecodeTuple decodes one tuple of schema s from data, which must
// contain exactly one encoded tuple (trailing bytes are an error, since
// every container stores tuples length-prefixed).
func DecodeTuple(s *Schema, data []byte) (Tuple, error) {
	t, n, err := DecodeTuplePrefix(s, data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("catalog: %d trailing bytes after tuple", len(data)-n)
	}
	return t, nil
}

// DecodeTuplePrefix decodes one tuple from the front of data and returns
// it along with the number of bytes consumed. The tuple's String and
// Bytes values are copies: data may be reused afterwards.
func DecodeTuplePrefix(s *Schema, data []byte) (Tuple, int, error) {
	t := make(Tuple, s.NumColumns())
	n, err := decodeInto(s, data, t, false)
	if err != nil {
		return nil, 0, err
	}
	return t, n, nil
}

// DecodeTupleShared decodes the one tuple of schema s in data into dst,
// which must hold s.NumColumns() values, as DecodeTuple does, except
// that its String and Bytes values share data's bytes instead of
// copying them. data must therefore be a record copy that nobody writes
// again for as long as the values live — never a page buffer.
func DecodeTupleShared(s *Schema, data []byte, dst Tuple) error {
	if len(dst) != s.NumColumns() {
		return fmt.Errorf("catalog: decoding %d columns into %d values", s.NumColumns(), len(dst))
	}
	n, err := decodeInto(s, data, dst, true)
	if err == nil && n != len(data) {
		err = fmt.Errorf("catalog: %d trailing bytes after tuple", len(data)-n)
	}
	return err
}

// decodeInto decodes one tuple from the front of data into t and
// returns the number of bytes consumed. With share set, String and
// Bytes values alias data; otherwise they are copied.
func decodeInto(s *Schema, data []byte, t Tuple, share bool) (int, error) {
	ncols := s.NumColumns()
	nb := (ncols + 7) / 8
	if len(data) < nb {
		return 0, fmt.Errorf("catalog: tuple data truncated in null bitmap")
	}
	bitmap := data[:nb]
	if ncols%8 != 0 && bitmap[nb-1]>>(ncols%8) != 0 {
		return 0, fmt.Errorf("catalog: null bitmap marks columns past the last")
	}
	pos := nb
	for i := 0; i < ncols; i++ {
		c := s.Column(i)
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			if c.NotNull {
				return 0, fmt.Errorf("catalog: NULL in NOT NULL column %q", c.Name)
			}
			t[i] = NewNull(c.Type)
			continue
		}
		switch c.Type {
		case TypeInt64, TypeTime, TypeFloat64:
			if len(data)-pos < 8 {
				return 0, truncErr(c)
			}
			t[i] = Value{typ: c.Type, i: int64(binary.LittleEndian.Uint64(data[pos:])), valid: true}
			pos += 8
		case TypeBool:
			if len(data)-pos < 1 {
				return 0, truncErr(c)
			}
			if data[pos] > 1 {
				return 0, fmt.Errorf("catalog: bool byte %#x in column %q", data[pos], c.Name)
			}
			t[i] = NewBool(data[pos] == 1)
			pos++
		case TypeString, TypeBytes:
			l, n := binary.Uvarint(data[pos:])
			if n <= 0 || uint64(len(data)-pos-n) < l {
				return 0, truncErr(c)
			}
			if n > 1 && data[pos+n-1] == 0 {
				return 0, fmt.Errorf("catalog: overlong length in column %q", c.Name)
			}
			pos += n
			payload := data[pos : pos+int(l)]
			v := Value{typ: c.Type, valid: true}
			if share {
				v.s = unsafe.String(unsafe.SliceData(payload), len(payload))
			} else {
				v.s = string(payload)
			}
			t[i] = v
			pos += int(l)
		default:
			return 0, fmt.Errorf("catalog: cannot decode type %s", c.Type)
		}
	}
	return pos, nil
}

func truncErr(c Column) error {
	return fmt.Errorf("catalog: tuple data truncated in column %q", c.Name)
}

// EncodedSize returns the number of bytes EncodeTuple would emit for t,
// and the error it would return, without encoding: a batch sizes one
// buffer for all its images this way.
func EncodedSize(s *Schema, t Tuple) (int, error) {
	if err := s.Validate(t); err != nil {
		return 0, err
	}
	n := (s.NumColumns() + 7) / 8
	for _, v := range t {
		if v.IsNull() {
			continue
		}
		switch v.typ {
		case TypeInt64, TypeTime, TypeFloat64:
			n += 8
		case TypeBool:
			n++
		case TypeString, TypeBytes:
			n += uvarintLen(uint64(len(v.s))) + len(v.s)
		default:
			return 0, fmt.Errorf("catalog: cannot encode type %s", v.typ)
		}
	}
	return n, nil
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
