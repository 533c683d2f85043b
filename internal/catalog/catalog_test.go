package catalog

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Type: TypeInt64, NotNull: true},
		Column{Name: "name", Type: TypeString},
		Column{Name: "weight", Type: TypeFloat64},
		Column{Name: "blob", Type: TypeBytes},
		Column{Name: "ts", Type: TypeTime},
		Column{Name: "ok", Type: TypeBool},
	)
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	now := time.Unix(12345, 67890)
	cases := []struct {
		v    Value
		typ  Type
		want string
	}{
		{NewInt(-42), TypeInt64, "-42"},
		{NewFloat(2.5), TypeFloat64, "2.5"},
		{NewString("hello"), TypeString, "hello"},
		{NewBytes([]byte{0xde, 0xad}), TypeBytes, "dead"},
		{NewBool(true), TypeBool, "true"},
		{NewBool(false), TypeBool, "false"},
	}
	for _, c := range cases {
		if c.v.Type() != c.typ {
			t.Errorf("type = %v, want %v", c.v.Type(), c.typ)
		}
		if c.v.IsNull() {
			t.Errorf("%v unexpectedly NULL", c.v)
		}
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if NewTime(now).Time() != now {
		t.Errorf("Time roundtrip failed")
	}
	if NewInt(7).Int() != 7 || NewFloat(1.5).Float() != 1.5 || NewString("x").Str() != "x" {
		t.Errorf("accessor mismatch")
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if NewNull(TypeInt64).String() != `\N` {
		t.Fatal("NULL must render as \\N")
	}
}

func TestValueAccessorPanicsOnWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong-type accessor")
		}
	}()
	_ = NewInt(1).Str()
}

func TestValueAccessorPanicsOnNull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on NULL dereference")
		}
	}()
	_ = NewNull(TypeInt64).Int()
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewFloat(1.5), NewFloat(1.5), 0},
		{NewInt(1), NewFloat(1.5), -1},      // int/float promotion
		{NewFloat(2.5), NewInt(2), 1},       // float/int promotion
		{NewNull(TypeInt64), NewInt(0), -1}, // NULL sorts first
		{NewInt(0), NewNull(TypeInt64), 1},
		{NewNull(TypeInt64), NewNull(TypeInt64), 0},
		{NewBytes([]byte{1}), NewBytes([]byte{1, 0}), -1},
		{NewBytes([]byte{2}), NewBytes([]byte{1, 9}), 1},
		{NewBytes([]byte{0xff}), NewBytes([]byte{0x00, 0xff}), 1}, // bytes are unsigned
		{NewBytes(nil), NewBytes([]byte{}), 0},
		{NewBytes(nil), NewBytes([]byte{0}), -1},
		{NewFloat(math.Copysign(0, -1)), NewFloat(0), 0},
		{NewFloat(math.Inf(-1)), NewFloat(-math.MaxFloat64), -1},
		{NewFloat(-1), NewFloat(math.Copysign(0, -1)), -1},
		{NewBool(false), NewBool(true), -1},
		{NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Compare(NewInt(1), NewString("x")); err == nil {
		t.Error("expected type-mismatch error")
	}
}

// TestValueLayout pins a Value at 32 bytes, and the payloads that live
// in its shared fields: a Float64 keeps its exact bits (−0, NaN) and a
// Bytes value shares, not copies, its slice.
func TestValueLayout(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("Value is %d bytes, want 32", n)
	}
	s := NewSchema(Column{Name: "f", Type: TypeFloat64})
	for _, f := range []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(-1)} {
		v := NewFloat(f)
		if math.Float64bits(v.Float()) != math.Float64bits(f) {
			t.Fatalf("NewFloat(%v) holds bits %#x", f, math.Float64bits(v.Float()))
		}
		enc, err := EncodeTuple(nil, s, Tuple{v})
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeTuple(s, enc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out[0].Float()) != math.Float64bits(f) {
			t.Fatalf("%v round-tripped to bits %#x", f, math.Float64bits(out[0].Float()))
		}
	}
	raw := []byte{1, 2, 3}
	if b := NewBytes(raw).BytesVal(); &b[0] != &raw[0] || len(b) != 3 {
		t.Fatal("NewBytes copied its slice")
	}
	if NewBytes(nil).BytesVal() != nil {
		t.Fatal("NewBytes(nil) no longer reads back nil")
	}
}

func TestCompareNaNTotalOrder(t *testing.T) {
	nan := NewFloat(math.NaN())
	if c, _ := Compare(nan, NewFloat(0)); c != -1 {
		t.Errorf("NaN must sort before numbers, got %d", c)
	}
	if c, _ := Compare(NewFloat(0), nan); c != 1 {
		t.Errorf("numbers must sort after NaN, got %d", c)
	}
	if c, _ := Compare(nan, nan); c != 0 {
		t.Errorf("NaN == NaN for sort purposes, got %d", c)
	}
}

func TestSQLLiteralQuoting(t *testing.T) {
	if got := NewString("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := NewNull(TypeString).SQLLiteral(); got != "NULL" {
		t.Errorf("SQLLiteral(NULL) = %q", got)
	}
	if got := NewInt(-5).SQLLiteral(); got != "-5" {
		t.Errorf("SQLLiteral(-5) = %q", got)
	}
}

func TestSchemaLookupAndProject(t *testing.T) {
	s := testSchema()
	if s.NumColumns() != 6 {
		t.Fatalf("NumColumns = %d", s.NumColumns())
	}
	i, ok := s.ColIndex("NAME") // case-insensitive
	if !ok || i != 1 {
		t.Fatalf("ColIndex(NAME) = %d,%v", i, ok)
	}
	if _, ok := s.ColIndex("nope"); ok {
		t.Fatal("ColIndex(nope) should miss")
	}
	p, err := s.Project([]string{"ts", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumColumns() != 2 || p.Column(0).Name != "ts" || p.Column(1).Name != "id" {
		t.Fatalf("Project = %v", p)
	}
	if _, err := s.Project([]string{"ghost"}); err == nil {
		t.Fatal("Project(ghost) should fail")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := testSchema()
	b := testSchema()
	if !a.Equal(b) {
		t.Fatal("identical schemas must be Equal")
	}
	c := NewSchema(Column{Name: "id", Type: TypeInt64})
	if a.Equal(c) {
		t.Fatal("different schemas must not be Equal")
	}
	d := NewSchema(
		Column{Name: "id", Type: TypeInt64}, // NotNull differs
		Column{Name: "name", Type: TypeString},
		Column{Name: "weight", Type: TypeFloat64},
		Column{Name: "blob", Type: TypeBytes},
		Column{Name: "ts", Type: TypeTime},
		Column{Name: "ok", Type: TypeBool},
	)
	if a.Equal(d) {
		t.Fatal("NotNull constraint must participate in Equal")
	}
}

func TestSchemaDuplicateColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate column")
		}
	}()
	NewSchema(Column{Name: "a", Type: TypeInt64}, Column{Name: "A", Type: TypeString})
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema()
	good := Tuple{NewInt(1), NewString("n"), NewFloat(1), NewBytes(nil), NewTime(time.Unix(0, 0)), NewBool(true)}
	if err := s.Validate(good); err != nil {
		t.Fatalf("Validate(good): %v", err)
	}
	if err := s.Validate(good[:2]); err == nil {
		t.Error("arity mismatch must fail")
	}
	bad := good.Clone()
	bad[0] = NewString("not-an-int")
	if err := s.Validate(bad); err == nil {
		t.Error("type mismatch must fail")
	}
	nullPK := good.Clone()
	nullPK[0] = NewNull(TypeInt64)
	if err := s.Validate(nullPK); err == nil {
		t.Error("NULL in NOT NULL column must fail")
	}
	nullable := good.Clone()
	nullable[1] = NewNull(TypeString)
	if err := s.Validate(nullable); err != nil {
		t.Errorf("NULL in nullable column: %v", err)
	}
}

func TestTypeNames(t *testing.T) {
	for _, typ := range []Type{TypeInt64, TypeFloat64, TypeString, TypeBytes, TypeTime, TypeBool} {
		back, err := TypeFromName(typ.String())
		if err != nil || back != typ {
			t.Errorf("TypeFromName(%s) = %v, %v", typ, back, err)
		}
	}
	if _, err := TypeFromName("WIDGET"); err == nil {
		t.Error("unknown type name must error")
	}
	for name, want := range map[string]Type{"INT": TypeInt64, "TEXT": TypeString, "BOOL": TypeBool, "FLOAT": TypeFloat64} {
		got, err := TypeFromName(name)
		if err != nil || got != want {
			t.Errorf("alias %q -> %v, %v", name, got, err)
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	s := testSchema()
	tuples := []Tuple{
		{NewInt(1), NewString("widget"), NewFloat(3.14), NewBytes([]byte{1, 2, 3}), NewTime(time.Unix(99, 5)), NewBool(true)},
		{NewInt(-9), NewNull(TypeString), NewNull(TypeFloat64), NewNull(TypeBytes), NewNull(TypeTime), NewNull(TypeBool)},
		{NewInt(0), NewString(""), NewFloat(0), NewBytes([]byte{}), NewTime(time.Unix(0, 0)), NewBool(false)},
		{NewInt(1 << 62), NewString(strings.Repeat("x", 300)), NewFloat(math.Inf(1)), NewBytes(make([]byte, 1000)), NewTime(time.Now()), NewBool(true)},
	}
	for _, in := range tuples {
		enc, err := EncodeTuple(nil, s, in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		out, err := DecodeTuple(s, enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !in.Equal(out) {
			t.Fatalf("roundtrip mismatch:\n in=%v\nout=%v", in, out)
		}
	}
}

func TestDecodeRejectsTrailingAndTruncated(t *testing.T) {
	s := testSchema()
	in := Tuple{NewInt(1), NewString("w"), NewFloat(1), NewBytes([]byte{9}), NewTime(time.Unix(1, 0)), NewBool(true)}
	enc, err := EncodeTuple(nil, s, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTuple(s, append(enc, 0xff)); err == nil {
		t.Error("trailing bytes must be rejected")
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeTuple(s, enc[:cut]); err == nil {
			t.Errorf("truncation at %d must be rejected", cut)
		}
	}
	// What EncodeTuple never writes is refused, so a tuple that decodes
	// re-encodes to the same bytes. enc is: bitmap [0], id [1:9], name's
	// length and byte [9:11], weight [11:19], blob [19:21], ts [21:29],
	// ok [29].
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), enc...)) }
	for name, bad := range map[string][]byte{
		"padding bit":          edit(func(b []byte) []byte { b[0] |= 1 << 6; return b }),
		"NULL in NOT NULL":     edit(func(b []byte) []byte { b[0] |= 1; return append(b[:1], b[9:]...) }),
		"bool byte 2":          edit(func(b []byte) []byte { b[29] = 2; return b }),
		"overlong length of 1": edit(func(b []byte) []byte { return append(append(b[:9:9], 0x81, 0x00), b[10:]...) }),
	} {
		if got, err := DecodeTuple(s, bad); err == nil {
			t.Errorf("%s: decoded to %v", name, got)
		}
	}
}

func TestDecodeTuplePrefixConsumesExactly(t *testing.T) {
	s := testSchema()
	a := Tuple{NewInt(1), NewString("a"), NewFloat(1), NewBytes(nil), NewTime(time.Unix(1, 0)), NewBool(false)}
	b := Tuple{NewInt(2), NewString("bb"), NewFloat(2), NewBytes([]byte{7}), NewTime(time.Unix(2, 0)), NewBool(true)}
	buf, err := EncodeTuple(nil, s, a)
	if err != nil {
		t.Fatal(err)
	}
	la := len(buf)
	buf, err = EncodeTuple(buf, s, b)
	if err != nil {
		t.Fatal(err)
	}
	gotA, n, err := DecodeTuplePrefix(s, buf)
	if err != nil || n != la || !gotA.Equal(a) {
		t.Fatalf("first decode: n=%d err=%v", n, err)
	}
	gotB, n2, err := DecodeTuplePrefix(s, buf[n:])
	if err != nil || n+n2 != len(buf) || !gotB.Equal(b) {
		t.Fatalf("second decode: n2=%d err=%v", n2, err)
	}
}

func TestTupleCloneIsolation(t *testing.T) {
	raw := []byte{1, 2, 3}
	in := Tuple{NewBytes(raw)}
	cl := in.Clone()
	raw[0] = 99
	if cl[0].BytesVal()[0] == 99 {
		t.Fatal("Clone must deep-copy Bytes payloads")
	}
}

// randomTuple builds an arbitrary valid tuple for the test schema.
func randomTuple(r *rand.Rand) Tuple {
	strVal := func() Value {
		n := r.Intn(40)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return NewString(string(b))
	}
	maybeNull := func(t Type, v Value) Value {
		if r.Intn(4) == 0 {
			return NewNull(t)
		}
		return v
	}
	return Tuple{
		NewInt(r.Int63() - r.Int63()),
		maybeNull(TypeString, strVal()),
		maybeNull(TypeFloat64, NewFloat(r.NormFloat64())),
		maybeNull(TypeBytes, NewBytes([]byte(strVal().Str()))),
		maybeNull(TypeTime, NewTime(time.Unix(r.Int63n(1e9), r.Int63n(1e9)))),
		maybeNull(TypeBool, NewBool(r.Intn(2) == 0)),
	}
}

func TestQuickEncodeDecodeRoundtrip(t *testing.T) {
	s := testSchema()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomTuple(r)
		enc, err := EncodeTuple(nil, s, in)
		if err != nil {
			return false
		}
		out, err := DecodeTuple(s, enc)
		return err == nil && in.Equal(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareIsTotalOrder(t *testing.T) {
	// Antisymmetry and transitivity over random int/float/string values.
	gen := func(r *rand.Rand) Value {
		switch r.Intn(4) {
		case 0:
			return NewInt(r.Int63n(100) - 50)
		case 1:
			return NewFloat(float64(r.Intn(100)-50) / 4)
		case 2:
			return NewInt(r.Int63n(100) - 50)
		default:
			return NewNull(TypeInt64)
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := gen(r), gen(r), gen(r)
		ab, err1 := Compare(a, b)
		ba, err2 := Compare(b, a)
		if err1 != nil || err2 != nil || ab != -ba {
			return false
		}
		bc, _ := Compare(b, c)
		ac, _ := Compare(a, c)
		if ab <= 0 && bc <= 0 && ac > 0 {
			return false // transitivity violated
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSize(t *testing.T) {
	s := testSchema()
	in := Tuple{NewInt(1), NewString("abc"), NewFloat(1), NewBytes([]byte{1}), NewTime(time.Unix(0, 0)), NewBool(true)}
	n, err := EncodedSize(s, in)
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := EncodeTuple(nil, s, in)
	if n != len(enc) {
		t.Fatalf("EncodedSize=%d, len(enc)=%d", n, len(enc))
	}
}

func TestTupleEqualShapes(t *testing.T) {
	a := Tuple{NewInt(1), NewNull(TypeString)}
	b := Tuple{NewInt(1), NewNull(TypeString)}
	c := Tuple{NewInt(1), NewString("")}
	d := Tuple{NewInt(1)}
	if !a.Equal(b) {
		t.Error("equal tuples reported unequal")
	}
	if a.Equal(c) {
		t.Error("NULL != empty string")
	}
	if a.Equal(d) {
		t.Error("different arity must be unequal")
	}
	if !reflect.DeepEqual(a.String(), b.String()) {
		t.Error("String() should match for equal tuples")
	}
}
