package types

import (
	"crypto/sha1"
	"encoding/hex"
)

// ID is a 160-bit content identifier, the "sha1(...)" values of the paper's
// provenance tables. VIDs identify tuples, RIDs identify rule executions,
// and EVIDs identify input event tuples; all three are IDs computed over
// different canonical encodings.
type ID [sha1.Size]byte

// ZeroID is the invalid/absent identifier, rendered as NULL in tables.
var ZeroID ID

// IsZero reports whether the ID is the absent value (NULL in the paper).
func (id ID) IsZero() bool { return id == ZeroID }

// String returns a short hex prefix for logs and table dumps, or "NULL" for
// the zero ID.
func (id ID) String() string {
	if id.IsZero() {
		return "NULL"
	}
	return hex.EncodeToString(id[:8])
}

// Hex returns the full 40-character hex form of the ID.
func (id ID) Hex() string { return hex.EncodeToString(id[:]) }

// HashTuple computes the VID of a tuple: sha1 over its canonical encoding,
// matching the sha1(recv(@n3, n1, n3, "data")) entries of Table 1. Every
// hop hashes its arriving tuple, so the encoding is staged in a stack
// buffer; only a tuple too large for it pays for a heap one.
func HashTuple(t Tuple) ID {
	var stack [256]byte
	buf := stack[:0]
	if n := t.EncodedSize(); n > len(stack) {
		buf = make([]byte, 0, n)
	}
	return sha1.Sum(t.AppendEncode(buf))
}

// HashBytes computes the ID of an arbitrary byte string.
func HashBytes(b []byte) ID { return sha1.Sum(b) }

// RuleExecID computes the RID of a rule execution from the rule name, the
// executing node, and the VIDs of the body tuples recorded for it, matching
// the sha1(r1+n1+vid1+vid2) entries of Table 1. Advanced compression calls
// it without the location (loc == "") and with only the slow-changing VIDs,
// matching the sha1(r1, vid1) entries of Table 3, so that equivalent rule
// executions at the same node collapse to one RID; its chained mode passes
// the next execution's RID as next, which hashes as one more VID after
// vids. Every firing that stores a row computes one, so the input is staged
// in a stack buffer; only a rule with more VIDs than it holds pays for a
// heap one.
func RuleExecID(rule string, loc NodeAddr, vids []ID, next ...ID) ID {
	var stack [512]byte
	buf := stack[:0]
	if n := len(rule) + 1 + len(loc) + 1 + (len(vids)+len(next))*len(ID{}); n > len(stack) {
		buf = make([]byte, 0, n)
	}
	buf = append(buf, rule...)
	buf = append(buf, 0)
	buf = append(buf, loc...)
	buf = append(buf, 0)
	for _, v := range vids {
		buf = append(buf, v[:]...)
	}
	for _, v := range next {
		buf = append(buf, v[:]...)
	}
	return sha1.Sum(buf)
}

// HashValues computes the hash of an ordered list of attribute values; the
// Advanced scheme uses it to key the htequi and hmap hash tables by the
// valuation of the equivalence keys.
func HashValues(vals []Value) ID {
	buf := make([]byte, 0, 64)
	for _, v := range vals {
		buf = v.AppendEncode(buf)
	}
	return sha1.Sum(buf)
}
