package main

import (
	"fmt"
	"math/rand"

	"provcompress/internal/apps"
	"provcompress/internal/ndlog"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// lineNodes is the deployment every workload runs on: an 8-node chain.
const lineNodes = 8

// workload is one set of inputs: a DELP, a seeded event generator and the
// base tuples and outputs that go with the events. Only generated tuples
// reach the program; nothing in it can tell which workload it is running.
type workload struct {
	name string
	why  string
	prog func() *ndlog.Program
	// window is the number of events injected between two Quiesce calls;
	// memWindows and durWindows are the measured windows of one in-memory
	// and one durable round.
	window, memWindows, durWindows int
	// events returns the n events of one round. The same (seed, round)
	// gives the same list; the class structure (which events share an
	// equivalence class) does not depend on the seed.
	events func(seed int64, round, n int) []types.Tuple
	// base returns the slow-changing tuples evs need to derive outputs.
	base func(evs []types.Tuple) []types.Tuple
	// output returns the one output tuple ev must derive.
	output func(ev types.Tuple) types.Tuple
	// class names ev's equivalence class (§5.2 key attributes).
	class func(ev types.Tuple) string
}

var line = topo.Line(lineNodes, "n")

func roundRand(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
}

// orderedPairs lists the 56 (src,dst) pairs of the line in an order drawn
// from the seed; events cycle through it round-robin.
func orderedPairs(seed int64) [][2]types.NodeAddr {
	nodes := line.Nodes()
	var pairs [][2]types.NodeAddr
	for _, s := range nodes {
		for _, d := range nodes {
			if s != d {
				pairs = append(pairs, [2]types.NodeAddr{s, d})
			}
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

// sharedWorkload is the paper's steady state (Fig. 1 packet forwarding):
// after the first 56 events every event joins an existing equivalence
// class, so provenance maintenance finds existFlag = true.
var sharedWorkload = workload{
	name:   "shared",
	why:    "Forwarding DELP, 56 classes reused by every event: existFlag=true path, cache invalidated by class on every write",
	prog:   apps.Forwarding,
	window: 10_000, memWindows: 6, durWindows: 2,
	events: func(seed int64, round, n int) []types.Tuple {
		pairs := orderedPairs(seed)
		r := roundRand(seed, round)
		evs := make([]types.Tuple, n)
		for i := range evs {
			p := pairs[i%len(pairs)]
			// 40-character payload, unique per event.
			payload := fmt.Sprintf("%08x%016x%016x", i, r.Uint64(), r.Uint64())
			evs[i] = types.NewTuple("packet", types.String(string(p[0])),
				types.String(string(p[0])), types.String(string(p[1])), types.String(payload))
		}
		return evs
	},
	base: func([]types.Tuple) []types.Tuple { return line.ShortestPaths().RouteTuples() },
	output: func(ev types.Tuple) types.Tuple {
		return types.NewTuple("recv", ev.Args[2], ev.Args[1], ev.Args[2], ev.Args[3])
	},
	class: func(ev types.Tuple) string { return ev.Args[1].AsString() + ">" + ev.Args[2].AsString() },
}

// distinctWorkload shares nothing: every advert announces a prefix of its
// own, so every event opens a new equivalence class, walks the whole
// chain on the existFlag = false path and stores full provenance rows.
var distinctWorkload = workload{
	name:   "distinct",
	why:    "BGP DELP, one new class per event over 7 hops: existFlag=false path, large relations, writes that invalidate nothing",
	prog:   apps.BGP,
	window: 5_000, memWindows: 4, durWindows: 2,
	events: func(seed int64, round, n int) []types.Tuple {
		nodes := line.Nodes()
		tag := fmt.Sprintf("p%06x-", roundRand(seed, round).Uint32()&0xffffff)
		evs := make([]types.Tuple, n)
		for i := range evs {
			evs[i] = types.NewTuple("advert", types.String(string(nodes[0])),
				types.String(tag+fmt.Sprint(i)), types.String("as-origin"), types.Int(int64(i)))
		}
		return evs
	},
	base: func(evs []types.Tuple) []types.Tuple {
		nodes := line.Nodes()
		last := types.String(string(nodes[len(nodes)-1]))
		out := make([]types.Tuple, 0, len(evs)*len(nodes))
		for _, ev := range evs {
			prefix := ev.Args[1]
			for i := 0; i+1 < len(nodes); i++ {
				out = append(out, types.NewTuple("bgpRoute",
					types.String(string(nodes[i])), prefix, types.String(string(nodes[i+1]))))
			}
			out = append(out, types.NewTuple("bgpOwner", last, prefix))
		}
		return out
	},
	output: func(ev types.Tuple) types.Tuple {
		nodes := line.Nodes()
		return types.NewTuple("rib", types.String(string(nodes[len(nodes)-1])), ev.Args[1], ev.Args[2], ev.Args[3])
	},
	class: func(ev types.Tuple) string { return ev.Args[1].AsString() },
}

var workloads = []*workload{&sharedWorkload, &distinctWorkload}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
