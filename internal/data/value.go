// Package data provides the typed value, schema, and table primitives that
// the rest of the engine operates on. Tables are row-oriented with compact
// Value cells; all synthetic data generation is deterministic given a seed so
// that experiments are reproducible.
package data

import (
	"fmt"
	"strconv"
	"time"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindTime:
		return "TIME"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union holding one scalar cell. The zero Value is
// NULL. Times are stored as Unix nanoseconds in I. The two one-byte fields sit
// together at the end so a cell is 40 bytes, not 48 (TestValueSize): every
// table, slab chunk and extracted column is an array of these.
type Value struct {
	S    string
	I    int64
	F    float64
	Kind Kind
	B    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// String_ wraps a string. (Named with a trailing underscore to avoid clashing
// with the fmt.Stringer method.)
func String_(v string) Value { return Value{Kind: KindString, S: v} }

// Bool wraps a bool.
func Bool(v bool) Value { return Value{Kind: KindBool, B: v} }

// Time wraps a time.Time (stored as Unix nanoseconds).
func Time(t time.Time) Value { return Value{Kind: KindTime, I: t.UnixNano()} }

// Str returns a string cell's text. Code outside this package reads S only
// through it, so a string cell's representation can change behind it.
func (v Value) Str() string { return v.S }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsInt returns the integer interpretation of the value.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt, KindTime:
		return v.I
	case KindFloat:
		return int64(v.F)
	case KindBool:
		if v.B {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// AsFloat returns the floating-point interpretation of the value.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt, KindTime:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindBool:
		if v.B {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// AsTime returns the time interpretation of the value.
func (v Value) AsTime() time.Time { return time.Unix(0, v.I) }

// String renders the value for debugging and golden tests.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindTime:
		// Nanosecond precision, as Equal and Compare have it: this rendering
		// is what signatures and join keys tell two instants apart by. A whole
		// second renders as it would under RFC3339. AppendValue renders the
		// same bytes.
		return v.AsTime().UTC().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// AppendValue appends v.String()'s bytes to dst without building the string:
// the rendering signatures hash and join and group keys encode.
func AppendValue(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindString:
		return append(dst, v.S...)
	case KindBool:
		return strconv.AppendBool(dst, v.B)
	case KindTime:
		return v.AsTime().UTC().AppendFormat(dst, time.RFC3339Nano)
	default:
		return append(dst, '?')
	}
}

// Equal reports deep equality of two values. NULL equals NULL here (this is
// grouping semantics, not SQL ternary logic; predicates handle NULL
// separately).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		// Allow numeric cross-kind equality so INT 3 == FLOAT 3.0 in joins.
		if isNumeric(v.Kind) && isNumeric(o.Kind) {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindInt, KindTime:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	case KindString:
		return v.S == o.S
	case KindBool:
		return v.B == o.B
	default:
		return false
	}
}

// Compare orders two values: -1 if v<o, 0 if equal, 1 if v>o. NULL sorts
// before everything.
func (v Value) Compare(o Value) int {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == o.Kind:
			return 0
		case v.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if isNumeric(v.Kind) && isNumeric(o.Kind) {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Kind == KindString && o.Kind == KindString {
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		default:
			return 0
		}
	}
	if v.Kind == KindBool && o.Kind == KindBool {
		switch {
		case !v.B && o.B:
			return -1
		case v.B && !o.B:
			return 1
		default:
			return 0
		}
	}
	// Incomparable kinds: order by kind tag for stability.
	if v.Kind < o.Kind {
		return -1
	}
	if v.Kind > o.Kind {
		return 1
	}
	return 0
}

func isNumeric(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindTime || k == KindBool
}

// ByteSize estimates the in-memory/serialized footprint of the value, used
// for IO accounting in the simulator.
func (v Value) ByteSize() int64 {
	switch v.Kind {
	case KindNull:
		return 1
	case KindString:
		return int64(len(v.S)) + 4
	default:
		return 8
	}
}
