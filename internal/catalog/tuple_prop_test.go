package catalog

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// propSchema covers every column type, with one NOT NULL column so the
// validation path is exercised too.
func propSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Type: TypeInt64, NotNull: true},
		Column{Name: "f", Type: TypeFloat64},
		Column{Name: "s", Type: TypeString},
		Column{Name: "b", Type: TypeBytes},
		Column{Name: "ts", Type: TypeTime},
		Column{Name: "ok", Type: TypeBool},
	)
}

// randString mixes plain text with the bytes the ASCII dump escaping
// cares about, plus multi-byte runes.
func randString(r *rand.Rand, n int) string {
	alphabet := []rune("abc \t\n\r\\'\"\x00é世")
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

func randValue(r *rand.Rand, typ Type, notNull bool) Value {
	if !notNull && r.Intn(4) == 0 {
		return NewNull(typ)
	}
	switch typ {
	case TypeInt64:
		return NewInt(int64(r.Uint64()))
	case TypeFloat64:
		switch r.Intn(8) {
		case 0:
			return NewFloat(math.NaN())
		case 1:
			return NewFloat(math.Inf(1))
		case 2:
			return NewFloat(math.Copysign(0, -1))
		default:
			return NewFloat(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
		}
	case TypeString:
		return NewString(randString(r, r.Intn(200)))
	case TypeBytes:
		b := make([]byte, r.Intn(200))
		r.Read(b)
		return NewBytes(b)
	case TypeTime:
		return NewTime(time.Unix(0, r.Int63n(4e18)))
	case TypeBool:
		return NewBool(r.Intn(2) == 1)
	default:
		panic("unreachable")
	}
}

func randTuple(r *rand.Rand, s *Schema) Tuple {
	t := make(Tuple, s.NumColumns())
	for i := range t {
		c := s.Column(i)
		t[i] = randValue(r, c.Type, c.NotNull)
	}
	return t
}

// TestTupleRoundTripProperty is the seeded encode/decode property: for
// any schema-valid tuple, DecodeTuple(EncodeTuple(t)) == t, EncodedSize
// matches the actual encoding, and DecodeTupleShared decodes the very
// same values (payload bits included) as views of the encoding.
func TestTupleRoundTripProperty(t *testing.T) {
	s := propSchema()
	r := rand.New(rand.NewSource(20260805))
	for i := 0; i < 1000; i++ {
		in := randTuple(r, s)
		enc, err := EncodeTuple(nil, s, in)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", i, err)
		}
		if sz, err := EncodedSize(s, in); err != nil || sz != len(enc) {
			t.Fatalf("iter %d: EncodedSize=%d err=%v, want %d", i, sz, err, len(enc))
		}
		out, err := DecodeTuple(s, enc)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if !in.Equal(out) {
			t.Fatalf("iter %d: round trip mismatch:\n in: %v\nout: %v", i, in, out)
		}
		shared := make(Tuple, s.NumColumns())
		if err := DecodeTupleShared(s, enc, shared); err != nil {
			t.Fatalf("iter %d: shared decode: %v", i, err)
		}
		if !reflect.DeepEqual(shared, out) {
			t.Fatalf("iter %d: shared decode differs:\n   copied: %v\n   shared: %v", i, out, shared)
		}
		for c, v := range shared {
			if len(v.s) > 0 && !sharesBytes(v.s, enc) {
				t.Fatalf("iter %d: column %d was copied, not shared", i, c)
			}
		}
	}
}

// sharesBytes reports whether s's bytes lie inside buf.
func sharesBytes(s string, buf []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(buf))
}

// TestTuplePrefixDecodeConcatenated checks the self-delimiting property
// containers rely on: several tuples encoded back-to-back decode one at
// a time via DecodeTuplePrefix with exact byte accounting.
func TestTuplePrefixDecodeConcatenated(t *testing.T) {
	s := propSchema()
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		var ins []Tuple
		var buf []byte
		for k := 0; k < 5; k++ {
			in := randTuple(r, s)
			ins = append(ins, in)
			var err error
			if buf, err = EncodeTuple(buf, s, in); err != nil {
				t.Fatal(err)
			}
		}
		pos := 0
		for k, in := range ins {
			out, n, err := DecodeTuplePrefix(s, buf[pos:])
			if err != nil {
				t.Fatalf("tuple %d: %v", k, err)
			}
			if !in.Equal(out) {
				t.Fatalf("tuple %d mismatch", k)
			}
			pos += n
		}
		if pos != len(buf) {
			t.Fatalf("prefix decodes consumed %d of %d bytes", pos, len(buf))
		}
	}
}

// TestTupleMaxLengthPayloads round-trips 64 KiB string and bytes
// payloads — far beyond any page-sized container limit, exercising the
// multi-byte uvarint length headers.
func TestTupleMaxLengthPayloads(t *testing.T) {
	s := propSchema()
	big := strings.Repeat("payload-\t\\\n", 6000) // ~66 KB with escapes-in-waiting
	raw := make([]byte, 1<<16)
	for i := range raw {
		raw[i] = byte(i)
	}
	in := Tuple{
		NewInt(math.MaxInt64),
		NewFloat(math.SmallestNonzeroFloat64),
		NewString(big),
		NewBytes(raw),
		NewNull(TypeTime),
		NewBool(true),
	}
	enc, err := EncodeTuple(nil, s, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeTuple(s, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Equal(out) {
		t.Fatal("max-length payload round trip mismatch")
	}
}

// TestTupleAllNullsAndEmptyDistinct: a tuple of NULLs in every nullable
// column round-trips, and empty string/bytes stay distinct from NULL.
func TestTupleAllNullsAndEmptyDistinct(t *testing.T) {
	s := propSchema()
	nulls := Tuple{NewInt(0), NewNull(TypeFloat64), NewNull(TypeString),
		NewNull(TypeBytes), NewNull(TypeTime), NewNull(TypeBool)}
	empties := Tuple{NewInt(0), NewNull(TypeFloat64), NewString(""),
		NewBytes(nil), NewNull(TypeTime), NewNull(TypeBool)}
	nonNil := Tuple{NewInt(0), NewNull(TypeFloat64), NewString(""),
		NewBytes([]byte{}), NewNull(TypeTime), NewNull(TypeBool)}
	if !empties.Equal(nonNil) {
		t.Fatal("nil and empty Bytes must compare equal")
	}
	for _, in := range []Tuple{nulls, empties, nonNil} {
		enc, err := EncodeTuple(nil, s, in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeTuple(s, enc)
		if err != nil {
			t.Fatal(err)
		}
		if !in.Equal(out) {
			t.Fatalf("round trip mismatch: %v vs %v", in, out)
		}
	}
	if nulls.Equal(empties) {
		t.Fatal("NULL and empty string/bytes must not compare equal")
	}
}

// TestTupleTruncationAlwaysErrors: no proper prefix of an encoded tuple
// may decode successfully, and trailing bytes are rejected — together
// these are what make torn container tails detectable.
func TestTupleTruncationAlwaysErrors(t *testing.T) {
	s := propSchema()
	r := rand.New(rand.NewSource(99))
	in := randTuple(r, s)
	in[2] = NewString("hello\tworld") // ensure a varint-length column is populated
	enc, err := EncodeTuple(nil, s, in)
	if err != nil {
		t.Fatal(err)
	}
	dst := make(Tuple, s.NumColumns())
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeTuple(s, enc[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", cut, len(enc))
		}
		if err := DecodeTupleShared(s, enc[:cut], dst); err == nil {
			t.Fatalf("shared: truncation to %d/%d bytes decoded successfully", cut, len(enc))
		}
	}
	if _, err := DecodeTuple(s, append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if err := DecodeTupleShared(s, append(append([]byte(nil), enc...), 0), dst); err == nil {
		t.Fatal("shared: trailing byte accepted")
	}
	if err := DecodeTupleShared(s, enc, dst[1:]); err == nil {
		t.Fatal("shared: decoded into too few values")
	}
}

// TestEncodeRejectsNullInNotNull: schema validation guards the encoder.
func TestEncodeRejectsNullInNotNull(t *testing.T) {
	s := propSchema()
	bad := Tuple{NewNull(TypeInt64), NewNull(TypeFloat64), NewNull(TypeString),
		NewNull(TypeBytes), NewNull(TypeTime), NewNull(TypeBool)}
	if _, err := EncodeTuple(nil, s, bad); err == nil {
		t.Fatal("NULL in NOT NULL column encoded without error")
	}
}
