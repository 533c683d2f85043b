package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"opdelta/internal/catalog"
	"opdelta/internal/keyset"
	"opdelta/internal/storage"
)

// Order-preserving key encoding for secondary indexes.
//
// A secondary index must admit duplicate column values, so entries are
// keyed by the composite (column value, RID): the value is encoded into
// bytes whose lexicographic order equals catalog.Compare's order, and
// the RID is appended as a unique tiebreak. The composite keys are then
// unique, so the same B+-tree used for primary keys serves unchanged.
//
// Layout: [tag][value bytes][page:4][slot:2]
//
//	tag 0x00 = NULL (sorts first, matching catalog.Compare)
//	tag 0x01 = non-NULL, followed by the type's encoding below
//
// Value encodings (all big-endian so byte order equals numeric order):
//
//	INT64/TIMESTAMP: uint64(v) XOR sign bit
//	DOUBLE:          IEEE bits, sign-flipped negatives (total order; -0 as 0,
//	                 every NaN as 0, below -Inf)
//	BOOLEAN:         one byte 0/1
//	VARCHAR/VARBINARY: payload with 0x00 escaped as 0x00 0xFF,
//	                 terminated by 0x00 0x01 (so prefixes sort before
//	                 extensions and the terminator never collides with
//	                 escaped content)

// encodeIndexValue appends the order-preserving encoding of v to dst.
func encodeIndexValue(dst []byte, v catalog.Value) ([]byte, error) {
	if v.IsNull() {
		return append(dst, 0x00), nil
	}
	dst = append(dst, 0x01)
	switch v.Type() {
	case catalog.TypeInt64:
		return appendOrderedUint64(dst, uint64(v.Int())^(1<<63)), nil
	case catalog.TypeTime:
		return appendOrderedUint64(dst, uint64(v.Time().UnixNano())^(1<<63)), nil
	case catalog.TypeFloat64:
		// catalog.Compare calls -0 equal to 0 and every NaN equal, below
		// every number: encode them so.
		f := v.Float()
		if math.IsNaN(f) {
			return appendOrderedUint64(dst, 0), nil
		}
		if f == 0 {
			f = 0
		}
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip everything
		} else {
			bits ^= 1 << 63 // positive: flip sign bit
		}
		return appendOrderedUint64(dst, bits), nil
	case catalog.TypeBool:
		if v.Bool() {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case catalog.TypeString:
		return appendEscapedBytes(dst, []byte(v.Str())), nil
	case catalog.TypeBytes:
		return appendEscapedBytes(dst, v.BytesVal()), nil
	default:
		return nil, fmt.Errorf("engine: cannot index type %s", v.Type())
	}
}

func appendOrderedUint64(dst []byte, u uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], u)
	return append(dst, b[:]...)
}

func appendEscapedBytes(dst, payload []byte) []byte {
	for _, c := range payload {
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

// indexEntryKey builds the composite (value, rid) key as a catalog
// Bytes value, whose catalog.Compare order is lexicographic.
func indexEntryKey(v catalog.Value, rid storage.RID) (catalog.Value, error) {
	enc, err := appendIndexEntry(nil, v, rid)
	if err != nil {
		return catalog.Value{}, err
	}
	return catalog.NewBytes(enc), nil
}

// appendIndexEntry appends the composite (value, rid) key's bytes to
// dst.
func appendIndexEntry(dst []byte, v catalog.Value, rid storage.RID) ([]byte, error) {
	dst, err := encodeIndexValue(dst, v)
	if err != nil {
		return nil, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(rid.Page))
	return binary.BigEndian.AppendUint16(dst, rid.Slot), nil
}

// indexRangeBounds returns composite-key bounds covering every entry
// whose column value lies in r (exclusivity is handled by nudging with
// minimal/maximal RID suffixes). No comparison matches NULL, so an
// unbounded low end still starts above the NULL entries: at the bare
// non-NULL tag, below every non-NULL encoding.
func indexRangeBounds(r keyset.KeyRange) (loKey, hiKey *catalog.Value, err error) {
	if !r.HasLo {
		v := catalog.NewBytes([]byte{0x01})
		loKey = &v
	} else {
		enc, err := encodeIndexValue(nil, r.Lo)
		if err != nil {
			return nil, nil, err
		}
		if r.LoOpen {
			// Everything strictly greater than any (lo, rid): append max
			// RID suffix.
			enc = append(enc, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00)
		}
		v := catalog.NewBytes(enc)
		loKey = &v
	}
	if r.HasHi {
		enc, err := encodeIndexValue(nil, r.Hi)
		if err != nil {
			return nil, nil, err
		}
		if !r.HiOpen {
			// Inclusive: include every RID suffix for hi. Open: stop just
			// before the value's smallest composite (empty RID suffix
			// sorts first).
			enc = append(enc, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00)
		}
		v := catalog.NewBytes(enc)
		hiKey = &v
	}
	return loKey, hiKey, nil
}

// decodeEntryRID extracts the RID suffix from a composite key.
func decodeEntryRID(key catalog.Value) storage.RID {
	b := key.BytesVal()
	n := len(b)
	return storage.RID{
		Page: storage.PageID(binary.BigEndian.Uint32(b[n-6 : n-2])),
		Slot: binary.BigEndian.Uint16(b[n-2:]),
	}
}
