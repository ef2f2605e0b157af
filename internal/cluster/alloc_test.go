package cluster

import (
	"fmt"
	"testing"

	"provcompress/internal/apps"
	"provcompress/internal/raceflag"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// applyHopBudget is the allocation budget of one untraced pipeline step
// (partition.step, driven with a shard worker's evalBuf) on Forwarding
// under the default scheme, for an event of a class the node has seen
// (the existFlag=true path): materializing the arriving tuple (its byVID
// entry and row, amortized table growth), the firing's head Args, and the
// scheme's maintenance. Decoding the arriving frame and the transport are
// not part of the hop. The origin hop and the relay hop measure 1 today;
// the headroom is for table growth landing inside the measured window,
// not for new per-hop garbage.
const applyHopBudget = 2

// bgpHopBudget is the same budget on BGP for an advert of a prefix of its
// own (the existFlag=false path, the bench's distinct workload): each hop
// also stores a ruleExec row, whose RID, slow VIDs and slab slot cost no
// allocation of their own. The origin hop and the relay hop measure 1
// today, the head's Args.
const bgpHopBudget = 2

// TestApplyTupleAllocs runs the owner write path — the origin hop at n1 (a
// fresh event: Stage 1 plus its rules) and the relay hop at n2 (the frame
// n1 shipped), each everything processBatch does but ship, plus the
// encoding sendTuple gives a head bound for another member — on Forwarding
// and on BGP, on volatile members with no replicas, and holds each to its
// program's budget, so a regression in the join, the hashing, the row
// storage, the span plumbing, the shipment encoding or a record encoded
// where no log or replica reads it fails here rather than waiting for the
// benchmark. The relay hop with ship=false — what WAL replay and a shadow
// apply run — encodes no head: replay has no transport to recycle a frame
// buffer, so it must allocate strictly less than a live hop whose frame is
// dropped, and no more than the recycled one.
func TestApplyTupleAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const warm, runs = 50, 200
	// AllocsPerRun calls its function runs+1 times.
	const events = warm + runs + 1
	prefix := func(i int) types.Value { return types.String(fmt.Sprintf("pfx%d", i)) }
	bgp, err := New(Config{Prog: apps.BGP(), Funcs: apps.Funcs(), Nodes: []types.NodeAddr{"n1", "n2", "n3"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bgp.Close)
	var routes []types.Tuple
	for i := 0; i < 5*events; i++ {
		for _, hop := range [][2]string{{"n1", "n2"}, {"n2", "n3"}} {
			routes = append(routes, types.NewTuple("bgpRoute", types.String(hop[0]), prefix(i), types.String(hop[1])))
		}
	}
	if err := bgp.LoadBase(routes); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		c      *Cluster
		budget int
		exist  bool // the relayed frames' existFlag, past the first
		event  func(i int) types.Tuple
	}{
		{"forwarding", fig2Cluster(t), applyHopBudget, true, func(i int) types.Tuple {
			return pkt("n1", "n1", "n3", fmt.Sprintf("p%d", i))
		}},
		{"bgp", bgp, bgpHopBudget, false, func(i int) types.Tuple {
			return types.NewTuple("advert", types.String("n1"), prefix(i), types.String("as-origin"), types.Int(int64(i)))
		}},
	}
	for _, tc := range cases {
		c := tc.c
		n1, n2 := c.node("n1"), c.node("n2")
		var shipBuf [4]tupleFrame
		var buf evalBuf
		var rec walBatch

		// hop applies one frame at a node with a worker's buffer and hands
		// back the single frame it must ship to want, encoded for its link.
		hop := func(n *Node, f *tupleFrame, want string) []byte {
			ships := n.ownSteps([]*tupleFrame{f}, shipBuf[:0], &buf, &rec)
			if len(ships) != 1 || string(ships[0].Tuple.Loc()) != want {
				t.Fatalf("%s: hop at %s shipped %v, want one frame to %s", tc.name, n.addr, ships, want)
			}
			return ships[0].outFrame().payload
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

		// Each relayed frame is the origin hop's shipment of an event of
		// its own; under BGP each set of events also has prefixes of its
		// own, so every hop it measures opens a new class.
		fresh := make([]*tupleFrame, events)
		bare := make([]*tupleFrame, events)
		relayed := [3][]*tupleFrame{}
		for i := range fresh {
			fresh[i] = &tupleFrame{Tuple: tc.event(5 * i), Fresh: true}
			bare[i] = &tupleFrame{Tuple: tc.event(5*i + 4), Fresh: true}
			for j := range relayed {
				seed := &tupleFrame{Tuple: tc.event(5*i + 1 + j), Fresh: true}
				f, err := decodeTupleFrame(wire.NewDecoder(hop(n1, seed, "n2")[1:]))
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 && f.Meta.Exist != tc.exist {
					t.Fatalf("%s: relayed frame has existFlag %v, want %v", tc.name, f.Meta.Exist, tc.exist)
				}
				relayed[j] = append(relayed[j], f)
			}
		}
		origin := measure(fresh, live(n1, "n2"))
		if origin > float64(tc.budget) {
			t.Errorf("%s origin hop: %.1f allocs, budget %d", tc.name, origin, tc.budget)
		}
		// The write path around the step adds nothing on this member: no
		// lock, and no record for a log or replica it does not have.
		stepOnly := measure(bare, func(f *tupleFrame) {
			wire.PutBuf(n1.self.step(n1, f, true, shipBuf[:0], &buf)[0].outFrame().payload)
		})
		if origin > stepOnly {
			t.Errorf("%s origin hop: %.1f allocs through the write path, %.1f for the step alone", tc.name, origin, stepOnly)
		}
		relay := measure(relayed[0], live(n2, "n3"))
		if relay > float64(tc.budget) {
			t.Errorf("%s relay hop: %.1f allocs, budget %d", tc.name, relay, tc.budget)
		}
		dropped := measure(relayed[1], func(f *tupleFrame) { hop(n2, f, "n3") })
		replay := measure(relayed[2], func(f *tupleFrame) {
			if ships := n2.self.step(n2, f, false, nil, &buf); len(ships) != 0 {
				t.Fatalf("%s: ship=false hop shipped %v", tc.name, ships)
			}
		})
		t.Logf("%s allocs per hop: origin %.1f (step alone %.1f), relay %.1f, relay with the frame dropped %.1f, ship=false relay %.1f", tc.name, origin, stepOnly, relay, dropped, replay)
		if replay >= dropped || replay > relay {
			t.Errorf("%s ship=false relay hop: %.1f allocs, want fewer than %.1f (live, frame dropped) and at most %.1f (live, frame recycled)", tc.name, replay, dropped, relay)
		}
	}
}
