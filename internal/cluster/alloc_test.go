package cluster

import (
	"fmt"
	"testing"

	"provcompress/internal/raceflag"
	"provcompress/internal/wire"
)

// applyHopBudget is the allocation budget of one untraced applyTuple hop
// on Forwarding under the default scheme, for an event of a class the
// node has seen (the existFlag=true path): materializing the arriving
// tuple (its byVID entry and row, amortized table growth), the firing's
// slice, head Args and Slow copy, and the scheme's maintenance. Decoding
// the arriving frame and the transport are not part of the hop. The origin
// hop measures 4 today and the relay hop 3; the headroom is for table
// growth landing inside the measured window, not for new per-hop garbage.
const applyHopBudget = 6

// TestApplyTupleAllocs runs the pipeline step directly — the origin hop at
// n1 (a fresh event: Stage 1 plus r1) and the relay hop at n2 (the frame
// n1 shipped) — and holds each to applyHopBudget, so a regression in the
// join, the hashing, the span plumbing or the shipment encoding fails here
// rather than waiting for the benchmark.
func TestApplyTupleAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := fig2Cluster(t)
	n1, n2 := c.node("n1"), c.node("n2")
	const warm, runs = 50, 200
	var shipBuf [4]outShip

	// hop applies one frame at a node and hands back the single frame it
	// must ship to want.
	hop := func(n *Node, f *tupleFrame, want string) []byte {
		ships := n.applyTuple(f, shipBuf[:0])
		if len(ships) != 1 || string(ships[0].to) != want {
			t.Fatalf("hop at %s shipped %v, want one frame to %s", n.addr, ships, want)
		}
		return ships[0].frame
	}
	// measure warms a hop up, then counts allocations per hop over
	// distinct events; each shipped frame is recycled as the transport
	// would.
	measure := func(n *Node, frames []*tupleFrame, want string) float64 {
		next := 0
		step := func() {
			wire.PutBuf(hop(n, frames[next], want))
			next++
		}
		for i := 0; i < warm; i++ {
			step()
		}
		return testing.AllocsPerRun(runs, step)
	}

	// AllocsPerRun calls its function runs+1 times.
	fresh := make([]*tupleFrame, warm+runs+1)
	relayed := make([]*tupleFrame, len(fresh))
	for i := range fresh {
		seed := &tupleFrame{Tuple: pkt("n1", "n1", "n3", fmt.Sprintf("s%d", i)), Fresh: true}
		f, err := decodeTupleFrame(wire.NewDecoder(hop(n1, seed, "n2")[1:]))
		if err != nil {
			t.Fatal(err)
		}
		relayed[i] = f
		fresh[i] = &tupleFrame{Tuple: pkt("n1", "n1", "n3", fmt.Sprintf("p%d", i)), Fresh: true}
	}
	if got := measure(n1, fresh, "n2"); got > applyHopBudget {
		t.Errorf("origin hop: %.1f allocs, budget %d", got, applyHopBudget)
	}
	if got := measure(n2, relayed, "n3"); got > applyHopBudget {
		t.Errorf("relay hop: %.1f allocs, budget %d", got, applyHopBudget)
	}
}
