package engine

import (
	"hash/maphash"
	"sort"

	"provcompress/internal/types"
)

// maxIndexedPos bounds the attribute positions a secondary index may cover:
// position sets are encoded as uint64 bitmasks. Relations in practice have
// single-digit arities; a rule joining on a position beyond the mask simply
// falls back to a scan for that atom.
const maxIndexedPos = 64

// noRow ends a bucket chain.
const noRow = ^uint32(0)

// indexSeed keys the bucket hash. A collision only merges two keys'
// buckets, and every candidate is re-checked, so the seed need not be
// stable across processes.
var indexSeed = maphash.MakeSeed()

// hashIndex is one secondary index of a relation: rows grouped by the
// canonical encoding of their values at a fixed set of attribute positions.
// Each join step of a compiled rule plan probes exactly one bucket instead
// of scanning the relation.
//
// Neither the bucket map nor the chains hold a pointer, so the collector
// never scans them. A bucket is keyed by a 64-bit hash of its key bytes
// and chains row positions (indexes into relation.rows) through next and
// prev, which run parallel to the rows. The chain keeps the order a slice
// bucket with swap-remove deletes would have: a row joins at the tail,
// and a removed row's place goes to the bucket's tail. Keys whose hashes
// collide share one chain, so a probe may return rows of another key; the
// join's match re-checks every candidate, so a collision only adds
// candidates (and, after a delete, may reorder the colliding keys' rows).
type hashIndex struct {
	positions []int // sorted attribute indexes the key covers
	buckets   map[uint64]bucket
	// next and prev link each covered row to its neighbours in its bucket
	// (noRow at either end). A row too short for the key is in no bucket
	// and its entries are unused.
	next, prev []uint32
}

// bucket is the head and tail row of one chain.
type bucket struct {
	head, tail uint32
}

func newHashIndex(positions []int, rows int) *hashIndex {
	return &hashIndex{
		positions: append([]int(nil), positions...),
		buckets:   make(map[uint64]bucket),
		next:      make([]uint32, 0, rows),
		prev:      make([]uint32, 0, rows),
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

// hashOf returns the bucket hash of t's key; t must be covered.
func (ix *hashIndex) hashOf(t types.Tuple) uint64 {
	var kb [64]byte
	return maphash.Bytes(indexSeed, appendIndexKey(kb[:0], t.Args, ix.positions))
}

// add appends the row at position p — the relation's new last row — to
// the tail of its bucket.
func (ix *hashIndex) add(t types.Tuple, p uint32) {
	ix.next = append(ix.next, noRow)
	ix.prev = append(ix.prev, noRow)
	if !ix.covers(t) {
		return
	}
	h := ix.hashOf(t)
	b, ok := ix.buckets[h]
	if !ok {
		ix.buckets[h] = bucket{head: p, tail: p}
		return
	}
	ix.next[b.tail] = p
	ix.prev[p] = b.tail
	b.tail = p
	ix.buckets[h] = b
}

// remove takes the row at position i out of its bucket, then follows the
// relation's swap-remove: the last row, at position last, moves to i.
// rows is the relation's row slice before the move. A bucket left empty
// is dropped so churn does not leak map entries.
func (ix *hashIndex) remove(rows []types.Tuple, i, last uint32) {
	if t := rows[i]; ix.covers(t) {
		h := ix.hashOf(t)
		if b := ix.buckets[h]; b.head == b.tail { // i is the bucket's one row
			delete(ix.buckets, h)
		} else {
			// Unlink the tail; unless it is i, it takes i's place, as the
			// last element of a slice bucket would.
			tail := b.tail
			b.tail = ix.prev[tail]
			ix.next[b.tail] = noRow
			if tail != i {
				ix.prev[tail], ix.next[tail] = ix.prev[i], ix.next[i]
				ix.relink(&b, tail)
			}
			ix.buckets[h] = b
		}
	}
	if i != last {
		if t := rows[last]; ix.covers(t) {
			h := ix.hashOf(t)
			b := ix.buckets[h]
			ix.prev[i], ix.next[i] = ix.prev[last], ix.next[last]
			ix.relink(&b, i)
			ix.buckets[h] = b
		}
	}
	ix.next = ix.next[:last]
	ix.prev = ix.prev[:last]
}

// relink points the chain neighbours of row to — which has just taken
// over another row's prev and next — and, at either end, the bucket at it.
func (ix *hashIndex) relink(b *bucket, to uint32) {
	if p := ix.prev[to]; p != noRow {
		ix.next[p] = to
	} else {
		b.head = to
	}
	if n := ix.next[to]; n != noRow {
		ix.prev[n] = to
	} else {
		b.tail = to
	}
}

// probe returns the first row of the bucket for the key encoding, or noRow.
func (ix *hashIndex) probe(key []byte) uint32 {
	if b, ok := ix.buckets[maphash.Bytes(indexSeed, key)]; ok {
		return b.head
	}
	return noRow
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
