// Package types provides the core data representation shared by every layer
// of the system: typed attribute values, tuples (relation instances with a
// location specifier), and the SHA-1 content identifiers (VIDs, RIDs, EVIDs)
// that the provenance tables of the paper are keyed by.
//
// Everything in this package is deterministic: two tuples with the same
// relation name and attribute values always produce the same canonical
// encoding and therefore the same ID, regardless of the node or process that
// computes it. This property is what lets distributed nodes agree on
// provenance references without coordination.
package types

import (
	"fmt"
	"strconv"
)

// Kind enumerates the attribute types supported by the NDlog dialect.
type Kind uint8

// Supported value kinds.
const (
	KindInvalid Kind = iota
	KindInt          // 64-bit signed integer
	KindString       // UTF-8 string (also used for node addresses)
	KindBool         // boolean, the result type of predicate UDFs
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is an immutable typed attribute value. The zero Value is invalid;
// construct values with Int, String, or Bool.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Int returns a Value holding the integer v.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// String returns a Value holding the string s.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Bool returns a Value holding the boolean b.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload. It panics if the value is not an int.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsString returns the string payload. It panics if the value is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: AsString on %s value", v.kind))
	}
	return v.s
}

// AsBool returns the boolean payload. It panics if the value is not a bool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: AsBool on %s value", v.kind))
	}
	return v.i != 0
}

// Equal reports whether v and w have the same kind and payload.
func (v Value) Equal(w Value) bool { return v == w }

// Compare orders values: first by kind, then by payload. It returns a
// negative number, zero, or a positive number as v is less than, equal to,
// or greater than w.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		return int(v.kind) - int(w.kind)
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < w.s:
			return -1
		case v.s > w.s:
			return 1
		}
		return 0
	default:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
		return 0
	}
}

// String renders the value in NDlog literal syntax: integers bare, strings
// quoted, booleans as true/false.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "<invalid>"
	}
}

// Display renders the value without quoting strings; used for locations and
// human-readable tree dumps (e.g. "n1" rather than "\"n1\"").
func (v Value) Display() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// EncodedSize returns the number of bytes AppendEncode will write for v.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KindInt:
		return 1 + uvarintLen(zigzag(v.i))
	case KindString:
		return 1 + uvarintLen(uint64(len(v.s))) + len(v.s)
	case KindBool:
		return 2
	default:
		return 1
	}
}

// AppendEncode appends the canonical binary encoding of v to dst and returns
// the extended slice. The encoding is self-delimiting: a kind byte followed
// by a kind-specific payload.
func (v Value) AppendEncode(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInt:
		dst = appendUvarint(dst, zigzag(v.i))
	case KindString:
		dst = appendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindBool:
		dst = append(dst, byte(v.i))
	}
	return dst
}

// DecodeValue decodes a value from the front of b, returning the value and
// the number of bytes consumed. A string resolves through names (nil for
// none), as in DecodeTuple.
func DecodeValue(b []byte, names *Names) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("types: decode value: empty input")
	}
	k := Kind(b[0])
	switch k {
	case KindInt:
		u, n := decodeUvarint(b[1:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("types: decode int: truncated varint")
		}
		return Int(unzigzag(u)), 1 + n, nil
	case KindString:
		u, n := decodeUvarint(b[1:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("types: decode string: truncated varint")
		}
		// Compare in uint64 before converting: a huge length must not wrap
		// into a negative int and slip past the bounds check.
		if u > uint64(len(b)-1-n) {
			return Value{}, 0, fmt.Errorf("types: decode string: truncated payload")
		}
		end := 1 + n + int(u)
		return String(names.Intern(b[1+n : end])), end, nil
	case KindBool:
		if len(b) < 2 {
			return Value{}, 0, fmt.Errorf("types: decode bool: truncated")
		}
		if b[1] > 1 {
			// Only 0 and 1 are canonical; anything else would give the
			// same value a second encoding and break content hashing.
			return Value{}, 0, fmt.Errorf("types: decode bool: non-canonical payload %d", b[1])
		}
		return Bool(b[1] != 0), 2, nil
	default:
		return Value{}, 0, fmt.Errorf("types: decode value: bad kind %d", b[0])
	}
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

func appendUvarint(dst []byte, u uint64) []byte {
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}

// decodeUvarint decodes a canonical (minimal-length) varint. Non-minimal
// encodings are rejected so that every value has exactly one encoding —
// the property the content hashing (VIDs) relies on.
func decodeUvarint(b []byte) (uint64, int) {
	var u uint64
	var shift uint
	for i, c := range b {
		if c < 0x80 {
			if i > 9 || i == 9 && c > 1 {
				return 0, -(i + 1) // overflow
			}
			if c == 0 && i > 0 {
				return 0, -(i + 1) // non-minimal encoding
			}
			return u | uint64(c)<<shift, i + 1
		}
		u |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}
