package cluster

import (
	"fmt"
	"testing"

	"provcompress/internal/raceflag"
	"provcompress/internal/wire"
)

// applyHopBudget is the allocation budget of one untraced pipeline step
// (partition.step) on Forwarding under the default scheme, for an event of
// a class the node has seen (the existFlag=true path): materializing the arriving
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
// rather than waiting for the benchmark. The relay hop with ship=false —
// what WAL replay and a shadow apply run — encodes no head: replay has no
// transport to recycle a frame buffer, so it must allocate strictly less
// than a live hop whose frame is dropped, and no more than the recycled
// one.
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
		ships := n.self.step(n, f, true, shipBuf[:0])
		if len(ships) != 1 || string(ships[0].to) != want {
			t.Fatalf("hop at %s shipped %v, want one frame to %s", n.addr, ships, want)
		}
		return ships[0].frame
	}
	// measure warms a hop up, then counts allocations per hop over
	// distinct events.
	measure := func(frames []*tupleFrame, hop func(*tupleFrame)) float64 {
		next := 0
		step := func() {
			hop(frames[next])
			next++
		}
		for i := 0; i < warm; i++ {
			step()
		}
		return testing.AllocsPerRun(runs, step)
	}
	// live recycles each shipped frame as the transport would.
	live := func(n *Node, want string) func(*tupleFrame) {
		return func(f *tupleFrame) { wire.PutBuf(hop(n, f, want)) }
	}

	// AllocsPerRun calls its function runs+1 times.
	fresh := make([]*tupleFrame, warm+runs+1)
	relayed := [3][]*tupleFrame{}
	for i := range fresh {
		fresh[i] = &tupleFrame{Tuple: pkt("n1", "n1", "n3", fmt.Sprintf("p%d", i)), Fresh: true}
		for j := range relayed {
			seed := &tupleFrame{Tuple: pkt("n1", "n1", "n3", fmt.Sprintf("s%d.%d", j, i)), Fresh: true}
			f, err := decodeTupleFrame(wire.NewDecoder(hop(n1, seed, "n2")[1:]))
			if err != nil {
				t.Fatal(err)
			}
			relayed[j] = append(relayed[j], f)
		}
	}
	origin := measure(fresh, live(n1, "n2"))
	if origin > applyHopBudget {
		t.Errorf("origin hop: %.1f allocs, budget %d", origin, applyHopBudget)
	}
	relay := measure(relayed[0], live(n2, "n3"))
	if relay > applyHopBudget {
		t.Errorf("relay hop: %.1f allocs, budget %d", relay, applyHopBudget)
	}
	dropped := measure(relayed[1], func(f *tupleFrame) { hop(n2, f, "n3") })
	replay := measure(relayed[2], func(f *tupleFrame) {
		if ships := n2.self.step(n2, f, false, nil); len(ships) != 0 {
			t.Fatalf("ship=false hop shipped %v", ships)
		}
	})
	t.Logf("allocs per hop: origin %.1f, relay %.1f, relay with the frame dropped %.1f, ship=false relay %.1f", origin, relay, dropped, replay)
	if replay >= dropped || replay > relay {
		t.Errorf("ship=false relay hop: %.1f allocs, want fewer than %.1f (live, frame dropped) and at most %.1f (live, frame recycled)", replay, dropped, relay)
	}
}
