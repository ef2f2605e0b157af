package engine

import (
	"sort"

	"provcompress/internal/types"
)

// maxIndexedPos bounds the attribute positions a secondary index may cover:
// position sets are encoded as uint64 bitmasks. Relations in practice have
// single-digit arities; a rule joining on a position beyond the mask simply
// falls back to a scan for that atom.
const maxIndexedPos = 64

// hashIndex is one secondary index of a relation: rows grouped by the
// canonical encoding of their values at a fixed set of attribute positions.
// Each join step of a compiled rule plan probes exactly one bucket instead
// of scanning the relation.
type hashIndex struct {
	positions []int // sorted attribute indexes the key covers
	// buckets hold their rows behind a pointer so growing or shrinking one
	// never re-assigns the map entry: only a new bucket pays for turning
	// the key bytes into a string.
	buckets map[string]*[]types.Tuple
}

func newHashIndex(positions []int) *hashIndex {
	return &hashIndex{
		positions: append([]int(nil), positions...),
		buckets:   make(map[string]*[]types.Tuple),
	}
}

// appendIndexKey appends the canonical encoding of args at the given
// positions to dst. The per-value encoding is self-delimiting (kind byte +
// payload), so concatenation cannot collide across position sets of equal
// length.
func appendIndexKey(dst []byte, args []types.Value, positions []int) []byte {
	for _, p := range positions {
		dst = args[p].AppendEncode(dst)
	}
	return dst
}

// covers reports whether the tuple has every indexed position. The store is
// schema-free, so a relation may hold tuples of mixed arity; a tuple too
// short for the index key can never unify with the atom probing it and is
// simply left out of the buckets.
func (ix *hashIndex) covers(t types.Tuple) bool {
	return len(ix.positions) == 0 || ix.positions[len(ix.positions)-1] < len(t.Args)
}

// add appends a tuple to its bucket.
func (ix *hashIndex) add(t types.Tuple) {
	if !ix.covers(t) {
		return
	}
	var kb [64]byte
	key := appendIndexKey(kb[:0], t.Args, ix.positions)
	bucket := ix.buckets[string(key)]
	if bucket == nil {
		bucket = new([]types.Tuple)
		ix.buckets[string(key)] = bucket
	}
	*bucket = append(*bucket, t)
}

// remove deletes a tuple from its bucket (swap-remove; buckets are sets
// because the relation store has set semantics). Empty buckets are dropped
// so churn does not leak map entries.
func (ix *hashIndex) remove(t types.Tuple) {
	if !ix.covers(t) {
		return
	}
	var kb [64]byte
	key := appendIndexKey(kb[:0], t.Args, ix.positions)
	slot := ix.buckets[string(key)]
	if slot == nil {
		return
	}
	bucket := *slot
	for i := range bucket {
		if bucket[i].Equal(t) {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			bucket[last] = types.Tuple{}
			*slot = bucket[:last]
			if last == 0 {
				delete(ix.buckets, string(key))
			}
			return
		}
	}
}

// probe returns the bucket for the key encoding, without copying. The
// string conversion in the map lookup does not allocate.
func (ix *hashIndex) probe(key []byte) []types.Tuple {
	if bucket := ix.buckets[string(key)]; bucket != nil {
		return *bucket
	}
	return nil
}

// posMask encodes a sorted position set as a bitmask, the identity of a
// secondary index. ok is false when a position does not fit the mask.
func posMask(positions []int) (uint64, bool) {
	var m uint64
	for _, p := range positions {
		if p < 0 || p >= maxIndexedPos {
			return 0, false
		}
		m |= 1 << uint(p)
	}
	return m, true
}

// sortedPositions returns a sorted copy of positions with duplicates
// removed.
func sortedPositions(positions []int) []int {
	out := append([]int(nil), positions...)
	sort.Ints(out)
	n := 0
	for i, p := range out {
		if i == 0 || p != out[i-1] {
			out[n] = p
			n++
		}
	}
	return out[:n]
}
