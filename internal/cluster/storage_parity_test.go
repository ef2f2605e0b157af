package cluster

import (
	"fmt"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/core"
	"provcompress/internal/engine"
	"provcompress/internal/ndlog"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// storageHistory is one scripted history on an 8-node line: base tuples,
// then the first half of the events, one slow insert (a sig broadcast
// under the Advanced schemes), then the second half.
type storageHistory struct {
	prog   *ndlog.Program
	base   []types.Tuple
	events []types.Tuple
	slow   types.Tuple
}

// storageHistories returns n events per DELP: forwarding cycles through
// the line's 56 (src,dst) pairs, so classes are reused, and BGP announces
// one prefix per advert, so every event opens a class of its own.
func storageHistories(n int) map[string]storageHistory {
	g := topo.Line(8, "n")
	nodes := g.Nodes()
	s := func(a types.NodeAddr) types.Value { return types.String(string(a)) }
	fwd := storageHistory{prog: apps.Forwarding(), base: g.ShortestPaths().RouteTuples(),
		slow: types.NewTuple("route", s(nodes[0]), types.String("ghost"), s(nodes[1]))}
	var pairs [][2]types.NodeAddr
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				pairs = append(pairs, [2]types.NodeAddr{a, b})
			}
		}
	}
	bgp := storageHistory{prog: apps.BGP(),
		slow: types.NewTuple("bgpRoute", s(nodes[0]), types.String("withdrawn"), s(nodes[1]))}
	for i := 0; i < n; i++ {
		p := pairs[i%len(pairs)]
		fwd.events = append(fwd.events, types.NewTuple("packet", s(p[0]), s(p[0]), s(p[1]), types.String(fmt.Sprintf("payload-%d", i))))
		prefix := types.String(fmt.Sprintf("p%d", i))
		for j := 0; j+1 < len(nodes); j++ {
			bgp.base = append(bgp.base, types.NewTuple("bgpRoute", s(nodes[j]), prefix, s(nodes[j+1])))
		}
		bgp.base = append(bgp.base, types.NewTuple("bgpOwner", s(nodes[len(nodes)-1]), prefix))
		bgp.events = append(bgp.events, types.NewTuple("advert", s(nodes[0]), prefix, types.String("as-origin"), types.Int(int64(i))))
	}
	return map[string]storageHistory{"forwarding": fwd, "bgp": bgp}
}

// simulatedStorage runs the history in the simulator under scheme and
// returns its provenance storage.
func (h storageHistory) simulatedStorage(t *testing.T, scheme string) int64 {
	t.Helper()
	maint, err := core.NewScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	var sched sim.Scheduler
	rt := engine.NewRuntime(netsim.New(&sched, topo.Line(8, "n")), h.prog, apps.Funcs(), maint)
	if err := rt.LoadBase(h.base); err != nil {
		t.Fatal(err)
	}
	half := len(h.events) / 2
	for i, ev := range h.events {
		if i == half {
			rt.Run()
			rt.InsertSlow(h.slow)
			rt.Run()
		}
		rt.Inject(ev)
	}
	rt.Run()
	if errs := rt.Errors(); len(errs) > 0 {
		t.Fatal(errs)
	}
	return maint.TotalStorageBytes()
}

// clusterStorage runs the history on a cluster under scheme and returns
// its provenance storage.
func (h storageHistory) clusterStorage(t *testing.T, scheme string) int64 {
	t.Helper()
	c, err := New(Config{Prog: h.prog, Funcs: apps.Funcs(), Nodes: topo.Line(8, "n").Nodes(), Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadBase(h.base); err != nil {
		t.Fatal(err)
	}
	half := len(h.events) / 2
	for i, ev := range h.events {
		if i == half {
			if err := c.Quiesce(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := c.InsertSlow(h.slow); err != nil {
				t.Fatal(err)
			}
			if err := c.Quiesce(10 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Inject(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c.TotalStorageBytes()
}

// TestStorageMatchesSimulation holds the two drivers of the scheme state
// machines to one storage figure: for each DELP's scripted history and
// every scheme, the cluster stores exactly the bytes the simulator does.
func TestStorageMatchesSimulation(t *testing.T) {
	for name, h := range storageHistories(64) {
		for _, scheme := range core.AllSchemeNames() {
			t.Run(name+"/"+scheme, func(t *testing.T) {
				want := h.simulatedStorage(t, scheme)
				if got := h.clusterStorage(t, scheme); got != want {
					t.Errorf("cluster stores %d bytes, simulator %d", got, want)
				}
			})
		}
	}
}
