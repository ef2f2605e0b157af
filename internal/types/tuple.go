package types

import (
	"fmt"
	"strings"
)

// NodeAddr identifies a node in the distributed system. The paper writes
// node addresses as n1, n2, ...; we keep them as strings so topologies can
// use meaningful names ("transit0", "ns.com").
type NodeAddr string

// Tuple is an instance of a relation. By NDlog convention the first
// attribute carries the location specifier ("@" attribute): the node at
// which the tuple resides.
type Tuple struct {
	Rel  string  // relation name, e.g. "packet"
	Args []Value // attribute values; Args[0] is the location specifier
}

// NewTuple builds a tuple from a relation name and attribute values.
func NewTuple(rel string, args ...Value) Tuple {
	return Tuple{Rel: rel, Args: args}
}

// Loc returns the node address of the tuple, i.e. the value of the location
// specifier attribute. It panics if the tuple has no attributes or the first
// attribute is not a string.
func (t Tuple) Loc() NodeAddr {
	if len(t.Args) == 0 {
		panic(fmt.Sprintf("types: tuple %s has no location specifier", t.Rel))
	}
	return NodeAddr(t.Args[0].AsString())
}

// Arity returns the number of attributes.
func (t Tuple) Arity() int { return len(t.Args) }

// Equal reports whether t and u are the same relation instance.
func (t Tuple) Equal(u Tuple) bool {
	if t.Rel != u.Rel || len(t.Args) != len(u.Args) {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(u.Args[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the tuple (the attribute slice is copied).
func (t Tuple) Clone() Tuple {
	args := make([]Value, len(t.Args))
	copy(args, t.Args)
	return Tuple{Rel: t.Rel, Args: args}
}

// String renders the tuple in NDlog syntax: rel(@loc, a1, a2, ...).
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteString(t.Rel)
	b.WriteByte('(')
	for i, a := range t.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		if i == 0 {
			b.WriteByte('@')
			b.WriteString(a.Display())
		} else {
			b.WriteString(a.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}

// EncodedSize returns the number of bytes AppendEncode will write for t.
func (t Tuple) EncodedSize() int {
	n := uvarintLen(uint64(len(t.Rel))) + len(t.Rel)
	n += uvarintLen(uint64(len(t.Args)))
	for _, a := range t.Args {
		n += a.EncodedSize()
	}
	return n
}

// AppendEncode appends the canonical binary encoding of the tuple to dst.
// The encoding is: relation name (length-prefixed), attribute count, then
// each attribute value.
func (t Tuple) AppendEncode(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(len(t.Rel)))
	dst = append(dst, t.Rel...)
	dst = appendUvarint(dst, uint64(len(t.Args)))
	for _, a := range t.Args {
		dst = a.AppendEncode(dst)
	}
	return dst
}

// Encode returns the canonical binary encoding of the tuple.
func (t Tuple) Encode() []byte {
	return t.AppendEncode(make([]byte, 0, t.EncodedSize()))
}

// DecodeTuple decodes a tuple from the front of b, returning the tuple and
// the number of bytes consumed. The relation name and every string
// argument resolve through names (nil for none): a name it holds is
// shared, not copied.
func DecodeTuple(b []byte, names *Names) (Tuple, int, error) {
	relLen, n := decodeUvarint(b)
	if n <= 0 {
		return Tuple{}, 0, fmt.Errorf("types: decode tuple: truncated relation length")
	}
	off := n
	// Compare in uint64 before converting: a huge length must not wrap
	// into a negative int and slip past the bounds check.
	if relLen > uint64(len(b)-off) {
		return Tuple{}, 0, fmt.Errorf("types: decode tuple: truncated relation name")
	}
	rel := names.Intern(b[off : off+int(relLen)])
	off += int(relLen)
	argc, n := decodeUvarint(b[off:])
	if n <= 0 {
		return Tuple{}, 0, fmt.Errorf("types: decode tuple: truncated arity")
	}
	off += n
	// Every encoded value takes at least one byte, so an arity exceeding
	// the remaining input is corrupt; checking it first keeps untrusted
	// input from driving a huge allocation.
	if argc > uint64(len(b)-off) {
		return Tuple{}, 0, fmt.Errorf("types: decode tuple: arity %d exceeds input", argc)
	}
	args := make([]Value, 0, argc)
	for i := uint64(0); i < argc; i++ {
		v, n, err := DecodeValue(b[off:], names)
		if err != nil {
			return Tuple{}, 0, fmt.Errorf("types: decode tuple %s arg %d: %w", rel, i, err)
		}
		args = append(args, v)
		off += n
	}
	return Tuple{Rel: rel, Args: args}, off, nil
}
