// Package catalog defines the data model shared by every layer of the
// engine: column types, runtime values, tuples, schemas and their binary
// encodings. It has no dependencies on storage or execution so that
// extraction utilities, snapshot differencing and the warehouse can all
// speak the same tuple language.
package catalog

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unsafe"
)

// Type identifies the storage type of a column.
type Type uint8

// Column types supported by the engine.
const (
	TypeInvalid Type = iota
	TypeInt64        // 64-bit signed integer
	TypeFloat64      // IEEE-754 double
	TypeString       // UTF-8 string
	TypeBytes        // raw byte string
	TypeTime         // instant, nanosecond precision
	TypeBool         // boolean
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt64:
		return "BIGINT"
	case TypeFloat64:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeBytes:
		return "VARBINARY"
	case TypeTime:
		return "TIMESTAMP"
	case TypeBool:
		return "BOOLEAN"
	default:
		return "INVALID"
	}
}

// TypeFromName parses a type name as produced by Type.String. It accepts
// a few common aliases so hand-written CREATE TABLE statements read
// naturally.
func TypeFromName(name string) (Type, error) {
	switch name {
	case "BIGINT", "INT", "INTEGER", "INT64":
		return TypeInt64, nil
	case "DOUBLE", "FLOAT", "FLOAT64", "REAL":
		return TypeFloat64, nil
	case "VARCHAR", "STRING", "TEXT", "CHAR":
		return TypeString, nil
	case "VARBINARY", "BYTES", "BLOB":
		return TypeBytes, nil
	case "TIMESTAMP", "DATETIME", "TIME":
		return TypeTime, nil
	case "BOOLEAN", "BOOL":
		return TypeBool, nil
	default:
		return TypeInvalid, fmt.Errorf("catalog: unknown type name %q", name)
	}
}

// Value is a dynamically typed runtime value. The zero Value is NULL of
// invalid type; use the New* constructors.
//
// A Value is 32 bytes: one int64 holds the Int64, Time (unix nanos),
// Bool (0/1) and Float64 (IEEE-754 bits) payloads, and one string holds
// the String and Bytes payloads. A Bytes value's string shares the
// caller's slice rather than copying it, so Values are immutable by
// contract: neither the slice passed to NewBytes nor the record a value
// was decoded from with DecodeTupleShared may be written afterwards.
type Value struct {
	typ   Type
	null  bool
	valid bool   // distinguishes zero Value from explicit NULL
	i     int64  // Int64, Time, Bool, Float64 bits
	s     string // String, Bytes
}

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{typ: TypeInt64, i: v, valid: true} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value {
	return Value{typ: TypeFloat64, i: int64(math.Float64bits(v)), valid: true}
}

// NewString returns a String value.
func NewString(v string) Value { return Value{typ: TypeString, s: v, valid: true} }

// NewBytes returns a Bytes value. The slice is not copied, and must not
// be written afterwards.
func NewBytes(v []byte) Value {
	return Value{typ: TypeBytes, s: unsafe.String(unsafe.SliceData(v), len(v)), valid: true}
}

// NewStringShared returns a String value whose payload shares b, as
// NewBytes does: b must not be written afterwards.
func NewStringShared(b []byte) Value {
	return Value{typ: TypeString, s: unsafe.String(unsafe.SliceData(b), len(b)), valid: true}
}

// NewTime returns a Time value with nanosecond precision.
func NewTime(v time.Time) Value { return Value{typ: TypeTime, i: v.UnixNano(), valid: true} }

// NewBool returns a Bool value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{typ: TypeBool, i: i, valid: true}
}

// NewNull returns a NULL of the given type.
func NewNull(t Type) Value { return Value{typ: t, null: true, valid: true} }

// Type reports the declared type of the value.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.null || !v.valid }

// Int returns the Int64 payload. It panics if the value is not an Int64.
func (v Value) Int() int64 {
	v.mustBe(TypeInt64)
	return v.i
}

// Float returns the Float64 payload.
func (v Value) Float() float64 {
	v.mustBe(TypeFloat64)
	return v.float()
}

// Str returns the String payload.
func (v Value) Str() string {
	v.mustBe(TypeString)
	return v.s
}

// BytesVal returns the Bytes payload without copying. The slice must
// not be written: it may be a string's bytes.
func (v Value) BytesVal() []byte {
	v.mustBe(TypeBytes)
	return unsafe.Slice(unsafe.StringData(v.s), len(v.s))
}

// float is the Float64 payload, unchecked.
func (v *Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// Time returns the Time payload.
func (v Value) Time() time.Time {
	v.mustBe(TypeTime)
	return time.Unix(0, v.i)
}

// Bool returns the Bool payload.
func (v Value) Bool() bool {
	v.mustBe(TypeBool)
	return v.i != 0
}

func (v Value) mustBe(t Type) {
	if v.typ != t {
		panic(fmt.Sprintf("catalog: value is %s, not %s", v.typ, t))
	}
	if v.IsNull() {
		panic(fmt.Sprintf("catalog: NULL %s value dereferenced", t))
	}
}

// String renders the value for display and ASCII dumps. NULL renders as
// \N (the conventional dump escape), strings are returned verbatim.
func (v Value) String() string {
	if v.IsNull() {
		return `\N`
	}
	switch v.typ {
	case TypeInt64:
		return strconv.FormatInt(v.i, 10)
	case TypeFloat64:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case TypeString:
		return v.s
	case TypeBytes:
		return fmt.Sprintf("%x", v.s)
	case TypeTime:
		return time.Unix(0, v.i).UTC().Format(time.RFC3339Nano)
	case TypeBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "<invalid>"
	}
}

// SQLLiteral renders the value as a literal the sqlmini parser accepts,
// used when synthesizing statements (e.g. Op-Delta hybrid re-emission).
func (v Value) SQLLiteral() string {
	if v.IsNull() {
		return "NULL"
	}
	switch v.typ {
	case TypeString:
		return quoteSQLString(v.s)
	case TypeTime:
		return "TIMESTAMP " + quoteSQLString(time.Unix(0, v.i).UTC().Format(time.RFC3339Nano))
	case TypeBytes:
		return fmt.Sprintf("X'%x'", v.s)
	default:
		return v.String()
	}
}

func quoteSQLString(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, s[i])
		}
	}
	out = append(out, '\'')
	return string(out)
}

// Compare orders two values of the same type. NULL sorts before all
// non-NULL values. It returns -1, 0 or +1, and an error on type mismatch.
func Compare(a, b Value) (int, error) { return ComparePtr(&a, &b) }

// ComparePtr is Compare on values it reads in place, for callers that
// compare values held in slices (index probes) and would otherwise copy
// both on every call.
func ComparePtr(a, b *Value) (int, error) {
	// NULL ordering is decided before any numeric promotion so that a
	// NULL Int64 and a NULL Float64 behave identically.
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0, nil
	case an:
		return -1, nil
	case bn:
		return 1, nil
	}
	if a.typ != b.typ {
		// Permit int/float comparison, promoting int to float.
		if a.typ == TypeInt64 && b.typ == TypeFloat64 {
			p := NewFloat(float64(a.i))
			a = &p
		} else if a.typ == TypeFloat64 && b.typ == TypeInt64 {
			p := NewFloat(float64(b.i))
			b = &p
		} else {
			return 0, fmt.Errorf("catalog: cannot compare %s with %s", a.typ, b.typ)
		}
	}
	switch a.typ {
	case TypeInt64, TypeTime, TypeBool:
		return cmpOrdered(a.i, b.i), nil
	case TypeFloat64:
		af, bf := a.float(), b.float()
		if math.IsNaN(af) || math.IsNaN(bf) {
			// Order NaN before every number so sorts are total.
			switch {
			case math.IsNaN(af) && math.IsNaN(bf):
				return 0, nil
			case math.IsNaN(af):
				return -1, nil
			default:
				return 1, nil
			}
		}
		return cmpOrdered(af, bf), nil
	case TypeString, TypeBytes:
		return cmpOrdered(a.s, b.s), nil
	default:
		return 0, fmt.Errorf("catalog: cannot compare invalid values")
	}
}

// Equal reports whether two values are equal under Compare semantics.
// Values of incomparable types are unequal.
func Equal(a, b Value) bool {
	c, err := ComparePtr(&a, &b)
	return err == nil && c == 0
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
