// Package event defines the SMC event model: events carrying typed,
// named attributes, and content-based filters over those attributes.
//
// The model follows Siena's attribute/constraint scheme (the paper bases
// both its matchers on Siena, §II-D and §IV): an event is a set of typed
// attributes; a filter is a conjunction of constraints, each naming an
// attribute, an operator and a comparison value.
package event

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Type identifies the dynamic type of an attribute Value.
type Type int

// Attribute value types. typeInvalid is the zero value so that an unset
// Value is detectably invalid.
const (
	typeInvalid Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBool
	TypeBytes
)

// String returns a human-readable type name.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeBool:
		return "bool"
	case TypeBytes:
		return "bytes"
	default:
		return "invalid"
	}
}

// errTypeMismatch reports an operation across incomparable value types.
var errTypeMismatch = errors.New("event: type mismatch")

// Value is a typed attribute value: one of int64, float64, string, bool
// or a byte slice. The zero Value is invalid.
type Value struct {
	typ Type
	num uint64 // int64 bits, float64 bits, or 0/1 for bool
	str string // string payload
	raw []byte // bytes payload
}

// Int builds an integer Value.
func Int(v int64) Value { return Value{typ: TypeInt, num: uint64(v)} }

// Float builds a floating-point Value.
func Float(v float64) Value { return Value{typ: TypeFloat, num: math.Float64bits(v)} }

// String builds a string Value.
func Str(v string) Value { return Value{typ: TypeString, str: v} }

// Bool builds a boolean Value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{typ: TypeBool, num: n}
}

// Bytes builds a byte-slice Value. The slice is copied so that later
// mutation by the caller cannot change the event (copy at boundaries).
func Bytes(v []byte) Value {
	cp := make([]byte, len(v))
	copy(cp, v)
	return Value{typ: TypeBytes, raw: cp}
}

// BytesAlias builds a byte-slice Value that aliases v without copying.
// The caller guarantees v stays immutable and alive for as long as the
// value is used; the borrowing wire decoder pairs it with the packet
// backing held by Event.Borrow, and Clone promotes it to an owned
// copy. Everyone else should use Bytes.
func BytesAlias(v []byte) Value { return Value{typ: TypeBytes, raw: v} }

// Type reports the dynamic type of the value.
func (v Value) Type() Type { return v.typ }

// isValid reports whether the value carries a type.
func (v Value) isValid() bool { return v.typ != typeInvalid }

// Int returns the integer payload; ok is false for other types.
func (v Value) Int() (int64, bool) {
	if v.typ != TypeInt {
		return 0, false
	}
	return int64(v.num), true
}

// Float returns the float payload; ok is false for other types.
func (v Value) Float() (float64, bool) {
	if v.typ != TypeFloat {
		return 0, false
	}
	return math.Float64frombits(v.num), true
}

// Str returns the string payload; ok is false for other types.
func (v Value) Str() (string, bool) {
	if v.typ != TypeString {
		return "", false
	}
	return v.str, true
}

// Bool returns the boolean payload; ok is false for other types.
func (v Value) Bool() (bool, bool) {
	if v.typ != TypeBool {
		return false, false
	}
	return v.num == 1, true
}

// Bytes returns a copy of the byte payload; ok is false for other types.
func (v Value) Bytes() ([]byte, bool) {
	if v.typ != TypeBytes {
		return nil, false
	}
	cp := make([]byte, len(v.raw))
	copy(cp, v.raw)
	return cp, true
}

// BytesRef returns the byte payload without copying; ok is false for
// other types. The slice aliases the value's backing array and MUST be
// treated as read-only — it exists so that encoding and sizing at
// trusted boundaries avoid the defensive copy Bytes makes.
func (v Value) BytesRef() ([]byte, bool) {
	if v.typ != TypeBytes {
		return nil, false
	}
	return v.raw, true
}

// bytesRef returns the byte payload without copying, for internal
// read-only use (matching, encoding).
func (v Value) bytesRef() []byte { return v.raw }

// numeric reports whether the value is an int or float, and its value as
// a float64 for cross-type numeric comparison.
func (v Value) numeric() (float64, bool) {
	switch v.typ {
	case TypeInt:
		return float64(int64(v.num)), true
	case TypeFloat:
		return math.Float64frombits(v.num), true
	default:
		return 0, false
	}
}

// Equal reports deep equality of two values. Int and float values are
// equal only if both type and numeric value agree (Int(1) != Float(1)).
func (v Value) Equal(o Value) bool {
	if v.typ != o.typ {
		return false
	}
	switch v.typ {
	case TypeBytes:
		return bytes.Equal(v.raw, o.raw)
	case TypeString:
		return v.str == o.str
	default:
		return v.num == o.num
	}
}

// compare orders two values. Numeric values (int/float) compare across
// types by magnitude; strings and bytes compare lexicographically; bools
// compare false < true. Comparing across incompatible kinds returns
// errTypeMismatch.
func (v Value) compare(o Value) (int, error) {
	if vn, ok := v.numeric(); ok {
		on, ok2 := o.numeric()
		if !ok2 {
			return 0, fmt.Errorf("%w: %s vs %s", errTypeMismatch, v.typ, o.typ)
		}
		switch {
		case vn < on:
			return -1, nil
		case vn > on:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.typ != o.typ {
		return 0, fmt.Errorf("%w: %s vs %s", errTypeMismatch, v.typ, o.typ)
	}
	switch v.typ {
	case TypeString:
		switch {
		case v.str < o.str:
			return -1, nil
		case v.str > o.str:
			return 1, nil
		default:
			return 0, nil
		}
	case TypeBytes:
		return bytes.Compare(v.raw, o.raw), nil
	case TypeBool:
		switch {
		case v.num < o.num:
			return -1, nil
		case v.num > o.num:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("%w: invalid value", errTypeMismatch)
	}
}

// String renders the value for logs and debugging.
func (v Value) String() string {
	switch v.typ {
	case TypeInt:
		return strconv.FormatInt(int64(v.num), 10)
	case TypeFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case TypeString:
		return strconv.Quote(v.str)
	case TypeBool:
		if v.num == 1 {
			return "true"
		}
		return "false"
	case TypeBytes:
		return fmt.Sprintf("bytes[%d]", len(v.raw))
	default:
		return "<invalid>"
	}
}
