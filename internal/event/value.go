// Package event defines the property-set event model used throughout the
// system: typed attribute values, named attributes, and events.
//
// An Event in this package is the low-level "name-value tuple" view from
// Section 3.1 of the paper. The high-level object view (encapsulated,
// application-defined types) lives in internal/object and is transformed
// into this representation for routing, preserving encapsulation: brokers
// only ever see the attributes a publisher chose to expose as meta-data.
package event

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the attribute value kinds understood by the filtering
// machinery. Kinds start at 1 so the zero Value is distinguishable from a
// deliberate one.
type Kind int

// Supported value kinds.
const (
	KindInvalid Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a dynamically typed attribute value. The zero Value has
// KindInvalid and matches nothing.
//
// Numeric values (KindInt, KindFloat) form one comparable family: an int
// attribute can be compared against a float constraint and vice versa.
// Comparison across any other kind pair is undefined and reported through
// the ok result of Compare.
type Value struct {
	kind Kind
	str  string
	num  float64 // used by KindInt, KindFloat and KindBool (0/1)
}

// String constructs a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Int constructs an integer value. The numeric family is backed by
// float64 so integer and floating-point attributes compare directly
// (price < 10 matches both Int(9) and Float(9.5)); integers are
// therefore exact within ±2⁵³ and lose low-order bits beyond that, the
// standard IEEE-754 double tradeoff.
func Int(i int64) Value { return Value{kind: KindInt, num: float64(i)} }

// Float constructs a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, num: f} }

// Bool constructs a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.num = 1
	}
	return v
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value carries a usable kind.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// IsNumeric reports whether the value belongs to the numeric family.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.str }

// Num returns the numeric payload as float64. Meaningful for numeric and
// boolean values.
func (v Value) Num() float64 { return v.num }

// IntVal returns the numeric payload truncated to int64.
func (v Value) IntVal() int64 { return int64(v.num) }

// BoolVal returns the boolean payload.
func (v Value) BoolVal() bool { return v.kind == KindBool && v.num != 0 }

// Comparable reports whether two values can be ordered/compared.
func (v Value) Comparable(o Value) bool {
	if v.IsNumeric() && o.IsNumeric() {
		return true
	}
	return v.kind == o.kind && v.kind != KindInvalid
}

// Compare orders v against o. It returns -1, 0 or +1 and ok=true when the
// two values are comparable; ok=false otherwise. Booleans order false<true.
// NaN is incomparable (IEEE semantics): every ordered comparison and
// equality test against it reports ok=false, so no relational constraint
// is ever satisfied by a NaN value.
func (v Value) Compare(o Value) (cmp int, ok bool) {
	if !v.Comparable(o) {
		return 0, false
	}
	if v.kind == KindString {
		return strings.Compare(v.str, o.str), true
	}
	if v.kind != KindBool && (math.IsNaN(v.num) || math.IsNaN(o.num)) {
		return 0, false
	}
	switch {
	case v.num < o.num:
		return -1, true
	case v.num > o.num:
		return 1, true
	default:
		return 0, true
	}
}

// Equal reports value equality. Values of incomparable kinds are unequal.
func (v Value) Equal(o Value) bool {
	c, ok := v.Compare(o)
	return ok && c == 0
}

// String renders the value in the literal syntax accepted by the filter
// parser: quoted strings, bare numbers, true/false.
func (v Value) String() string {
	var buf [64]byte
	return string(v.AppendTo(buf[:0]))
}

// AppendTo appends the String rendering of v to b.
func (v Value) AppendTo(b []byte) []byte {
	switch v.kind {
	case KindString:
		return strconv.AppendQuote(b, v.str)
	case KindInt:
		return strconv.AppendInt(b, int64(v.num), 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.num, 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(b, v.num != 0)
	default:
		return append(b, "<invalid>"...)
	}
}

// ParseValue parses a literal in the syntax produced by Value.String:
// double-quoted strings, integers, floats, and the booleans true/false.
func ParseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return Value{}, fmt.Errorf("event: empty value literal")
	case s[0] == '"':
		u, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("event: bad string literal %s: %w", s, err)
		}
		return String(u), nil
	case s == "true":
		return Bool(true), nil
	case s == "false":
		return Bool(false), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Value{}, fmt.Errorf("event: non-finite literal %q", s)
		}
		return Float(f), nil
	}
	return Value{}, fmt.Errorf("event: cannot parse value literal %q", s)
}
