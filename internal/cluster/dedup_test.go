package cluster

import (
	"math"
	"math/rand"
	"testing"

	"provcompress/internal/raceflag"
	"provcompress/internal/types"
)

// mapTracker is the receive dedup filter as a seen-set of seqs in a map,
// pruned of entries older than the window once it holds twice the window.
// It is the reference the bitmap ring (seqTracker) must agree with.
type mapTracker struct {
	inc    uint64
	maxSeq uint64
	seen   map[uint64]struct{}
}

func (m *mapTracker) seenDuplicate(inc, seq uint64) bool {
	if m.seen == nil || inc > m.inc {
		*m = mapTracker{inc: inc, seen: make(map[uint64]struct{})}
	} else if inc < m.inc {
		return true
	}
	if seq+dedupWindow <= m.maxSeq {
		return true
	}
	if _, ok := m.seen[seq]; ok {
		return true
	}
	m.seen[seq] = struct{}{}
	if seq > m.maxSeq {
		m.maxSeq = seq
	}
	if len(m.seen) > 2*dedupWindow {
		for s := range m.seen {
			if s+dedupWindow <= m.maxSeq {
				delete(m.seen, s)
			}
		}
	}
	return false
}

// inWindow counts the map's seqs the window still judges. Every seq in
// the map is at most maxSeq, so the difference cannot wrap.
func (m *mapTracker) inWindow() int {
	n := 0
	for s := range m.seen {
		if m.maxSeq-s < dedupWindow {
			n++
		}
	}
	return n
}

// TestSeenDuplicateMatchesMapTracker drives the ring and the map through
// generated streams — in-order runs, redeliveries, reorders inside the
// window, seqs older than it, jumps longer than it, incarnation bumps and
// frames from an older incarnation — and requires the same decision on
// every frame and the same number of seqs remembered in the window.
func TestSeenDuplicateMatchesMapTracker(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := &Node{lastSeq: make(map[types.NodeAddr]*seqTracker)}
		var ref mapTracker
		inc, seq := uint64(0), uint64(0)
		for i := 0; i < 60000; i++ {
			var fin, fseq uint64 = inc, seq
			switch k := r.Intn(100); {
			case k < 55: // the next seq in order
				seq++
				fseq = seq
			case k < 70: // a redelivery of a recent seq
				fseq = seq - min(seq, uint64(r.Intn(64)))
			case k < 85: // a reorder inside the window
				fseq = seq - min(seq, uint64(r.Intn(dedupWindow)))
			case k < 90: // older than the window
				fseq = seq - min(seq, dedupWindow+uint64(r.Intn(3*dedupWindow)))
			case k < 94: // a jump ahead, sometimes past the whole window
				seq += 1 + uint64(r.Intn(3*dedupWindow))
				fseq = seq
			case k < 96: // the sender restarted
				inc++
				seq = uint64(r.Intn(4))
				fseq = seq
			case k < 98: // a frame of the sender's previous incarnation
				fin = inc - min(inc, 1)
			default: // the window's edges
				edge := seq - min(seq, dedupWindow)
				fseq = edge + uint64(r.Intn(2))
			}
			want := ref.seenDuplicate(fin, fseq)
			if got := n.seenDuplicate("peer", fin, fseq); got != want {
				t.Fatalf("seed %d frame %d (inc %d seq %d, max %d): dup=%v, map says %v",
					seed, i, fin, fseq, ref.maxSeq, got, want)
			}
			if i%997 == 0 {
				if got, want := n.lastSeq["peer"].count(), ref.inWindow(); got != want {
					t.Fatalf("seed %d frame %d: ring holds %d seqs, map %d", seed, i, got, want)
				}
			}
		}
	}
}

// TestSeenDuplicateAllocs requires the dedup filter to allocate nothing for
// a sender it already tracks, incarnation bumps included.
func TestSeenDuplicateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := &Node{lastSeq: make(map[types.NodeAddr]*seqTracker)}
	n.seenDuplicate("peer", 0, 1)
	var seq, inc uint64
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		n.seenDuplicate("peer", inc, seq)
		n.seenDuplicate("peer", inc, seq) // a redelivery
		if seq%300 == 0 {
			inc++
		}
	})
	if allocs != 0 {
		t.Errorf("seenDuplicate allocates %.1f times per frame, want 0", allocs)
	}
}

// TestSeenDuplicateNearSeqLimit feeds the ring and the map seqs at the top
// of the uint64 range, where seq+dedupWindow wraps and an advance of
// maxSeq ends at the largest seq, and requires every call to return with
// the map's decision and the map's in-window count.
func TestSeenDuplicateNearSeqLimit(t *testing.T) {
	const top = math.MaxUint64
	for _, seqs := range [][]uint64{
		{top - 1, top},
		{top - 1, top, top, top - 1},
		{0, top, top - 1, top},
		{top - dedupWindow, top - 1, top},
		{top - dedupWindow - 1, top - dedupWindow, top - dedupWindow + 1, top},
		{top - 2*dedupWindow, top - dedupWindow, top},
		{dedupWindow - 2, top - 1, top},
		{dedupWindow - 1, top - dedupWindow + 1, top},
		{top, top, top - dedupWindow, top - dedupWindow + 1, 0},
	} {
		n := &Node{lastSeq: make(map[types.NodeAddr]*seqTracker)}
		var ref mapTracker
		for i, seq := range seqs {
			want := ref.seenDuplicate(0, seq)
			if got := n.seenDuplicate("peer", 0, seq); got != want {
				t.Fatalf("stream %v frame %d (seq %d): dup=%v, map says %v", seqs, i, seq, got, want)
			}
			if got, want := n.lastSeq["peer"].count(), ref.inWindow(); got != want {
				t.Fatalf("stream %v frame %d: ring holds %d seqs, map %d", seqs, i, got, want)
			}
		}
	}
}
