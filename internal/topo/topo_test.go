package topo

import (
	"fmt"
	"testing"
	"time"

	"provcompress/internal/types"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.AddNode("a")
	g.AddNode("a") // idempotent
	if err := g.AddLink("a", "b", time.Millisecond, 1000); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink("a", "b", time.Millisecond, 1000); err == nil {
		t.Error("duplicate link accepted")
	}
	if err := g.AddLink("b", "a", time.Millisecond, 1000); err == nil {
		t.Error("reverse duplicate link accepted")
	}
	if err := g.AddLink("a", "a", time.Millisecond, 1000); err == nil {
		t.Error("self link accepted")
	}
	if g.NumNodes() != 2 || len(g.Links()) != 1 {
		t.Errorf("nodes = %d, links = %d", g.NumNodes(), len(g.Links()))
	}
	if !g.HasNode("a") || g.HasNode("zz") {
		t.Error("HasNode wrong")
	}
	l, ok := g.FindLink("b", "a")
	if !ok || l.Latency != time.Millisecond {
		t.Errorf("FindLink = %v, %v", l, ok)
	}
	if ns := g.Neighbors("a"); len(ns) != 1 || ns[0] != "b" {
		t.Errorf("Neighbors(a) = %v", ns)
	}
}

func TestConnected(t *testing.T) {
	g := Line(5, "n")
	if !g.Connected() {
		t.Error("line should be connected")
	}
	g.AddNode("island")
	if g.Connected() {
		t.Error("graph with isolated node reported connected")
	}
	if !NewGraph().Connected() {
		t.Error("empty graph should count as connected")
	}
}

func TestHopStatsLine(t *testing.T) {
	g := Line(5, "n")
	d, mean := g.HopStats()
	if d != 4 {
		t.Errorf("diameter = %d, want 4", d)
	}
	// Sum over ordered pairs of |i-j| for 0..4 is 40; pairs = 20; mean = 2.
	if mean != 2.0 {
		t.Errorf("mean = %v, want 2.0", mean)
	}
}

func TestShortestPathsLine(t *testing.T) {
	g := Line(4, "n")
	r := g.ShortestPaths()
	if next, ok := r.NextHop("n0", "n3"); !ok || next != "n1" {
		t.Errorf("NextHop(n0, n3) = %v, %v", next, ok)
	}
	path := r.Path("n0", "n3")
	want := []types.NodeAddr{"n0", "n1", "n2", "n3"}
	if len(path) != len(want) {
		t.Fatalf("Path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("Path = %v, want %v", path, want)
		}
	}
	if r.Hops("n0", "n3") != 3 {
		t.Errorf("Hops = %d, want 3", r.Hops("n0", "n3"))
	}
	if p := r.Path("n0", "n0"); len(p) != 1 || p[0] != "n0" {
		t.Errorf("Path to self = %v", p)
	}
	if p := r.Path("n0", "missing"); p != nil {
		t.Errorf("Path to missing node = %v", p)
	}
}

func TestShortestPathsPrefersLowLatency(t *testing.T) {
	// Triangle with one slow direct edge and a fast two-hop detour.
	g := NewGraph()
	g.MustAddLink("a", "b", 100*time.Millisecond, 1000)
	g.MustAddLink("a", "c", 10*time.Millisecond, 1000)
	g.MustAddLink("c", "b", 10*time.Millisecond, 1000)
	r := g.ShortestPaths()
	if next, _ := r.NextHop("a", "b"); next != "c" {
		t.Errorf("NextHop(a, b) = %v, want detour via c", next)
	}
}

func TestRouteTuples(t *testing.T) {
	g := Line(3, "n")
	tuples := g.ShortestPaths().RouteTuples()
	// 3 nodes, each with 2 destinations = 6 tuples.
	if len(tuples) != 6 {
		t.Fatalf("RouteTuples len = %d, want 6", len(tuples))
	}
	found := false
	for _, tp := range tuples {
		if tp.Rel != "route" || tp.Arity() != 3 {
			t.Fatalf("bad tuple %v", tp)
		}
		if tp.Args[0].AsString() == "n0" && tp.Args[1].AsString() == "n2" && tp.Args[2].AsString() == "n1" {
			found = true
		}
	}
	if !found {
		t.Error("route(@n0, n2, n1) missing")
	}
	// Deterministic ordering.
	again := g.ShortestPaths().RouteTuples()
	for i := range tuples {
		if !tuples[i].Equal(again[i]) {
			t.Fatal("RouteTuples not deterministic")
		}
	}
}

func TestGenTransitStub(t *testing.T) {
	ts := GenTransitStub(DefaultTransitStub())
	g := ts.Graph
	if g.NumNodes() != 100 {
		t.Errorf("nodes = %d, want 100", g.NumNodes())
	}
	if len(ts.Transit) != 4 || len(ts.Stubs) != 96 {
		t.Errorf("transit = %d, stubs = %d", len(ts.Transit), len(ts.Stubs))
	}
	if !g.Connected() {
		t.Fatal("transit-stub graph not connected")
	}
	d, mean := g.HopStats()
	if d < 8 || d > 16 {
		t.Errorf("hop diameter = %d, want near the paper's 12", d)
	}
	if mean < 4.0 || mean > 7.5 {
		t.Errorf("mean hop distance = %v, want near the paper's 5.3", mean)
	}
	// Link classes respected.
	for _, l := range g.Links() {
		switch {
		case l.Latency == TransitTransitLatency:
			if l.Bandwidth != TransitTransitBandwidth {
				t.Errorf("transit link with bandwidth %d", l.Bandwidth)
			}
		case l.Latency == TransitStubLatency:
			if l.Bandwidth != TransitStubBandwidth {
				t.Errorf("uplink with bandwidth %d", l.Bandwidth)
			}
		case l.Latency == StubStubLatency:
			if l.Bandwidth != StubStubBandwidth {
				t.Errorf("stub link with bandwidth %d", l.Bandwidth)
			}
		default:
			t.Errorf("unexpected link class %v", l)
		}
	}
	// Determinism.
	again := GenTransitStub(DefaultTransitStub())
	if again.Graph.NumNodes() != g.NumNodes() || len(again.Graph.Links()) != len(g.Links()) {
		t.Error("generator not deterministic")
	}
}

func TestGenDNSTree(t *testing.T) {
	tree := GenDNSTree(DefaultDNSTree())
	if tree.Graph.NumNodes() != 100 {
		t.Errorf("servers = %d, want 100", tree.Graph.NumNodes())
	}
	if got := tree.MaxObservedDepth(); got != 27 {
		t.Errorf("max depth = %d, want 27", got)
	}
	if !tree.Graph.Connected() {
		t.Fatal("dns tree not connected")
	}
	// It is a tree: exactly n-1 links.
	if len(tree.Graph.Links()) != 99 {
		t.Errorf("links = %d, want 99", len(tree.Graph.Links()))
	}
	// Domains are consistent: each child's domain is a fresh label under the
	// parent's domain.
	for _, s := range tree.Servers {
		if s == tree.Root {
			continue
		}
		p := tree.Parent[s]
		pd, sd := tree.Domain[p], tree.Domain[s]
		if pd == "" {
			if sd == "" {
				t.Errorf("child %s of root has empty domain", s)
			}
		} else if len(sd) <= len(pd) || sd[len(sd)-len(pd):] != pd {
			t.Errorf("domain %q of %s not under parent domain %q", sd, s, pd)
		}
	}
}

func TestDNSTreeTuples(t *testing.T) {
	tree := GenDNSTree(DNSTreeConfig{NumServers: 10, MaxDepth: 4, Seed: 2})
	clients := tree.AttachClients(2)
	if len(clients) != 2 || !tree.Graph.HasNode(clients[0]) {
		t.Fatalf("clients = %v", clients)
	}
	nst := tree.NameServerTuples(clients)
	var nsCount, rootCount int
	for _, tp := range nst {
		switch tp.Rel {
		case "nameServer":
			nsCount++
		case "rootServer":
			rootCount++
			if tp.Args[1].AsString() != string(tree.Root) {
				t.Errorf("rootServer points at %v", tp.Args[1])
			}
		default:
			t.Errorf("unexpected relation %s", tp.Rel)
		}
	}
	if nsCount != 9 {
		t.Errorf("nameServer tuples = %d, want 9 (one per non-root server)", nsCount)
	}
	if rootCount != 2 {
		t.Errorf("rootServer tuples = %d, want 2", rootCount)
	}

	urls := tree.PickURLs(5)
	if len(urls) != 5 {
		t.Fatalf("urls = %v", urls)
	}
	seen := make(map[string]bool)
	for _, u := range urls {
		if seen[u.URL] {
			t.Errorf("duplicate URL %s", u.URL)
		}
		seen[u.URL] = true
		if u.URL != "www."+tree.Domain[u.Server] {
			t.Errorf("URL %s does not match server domain %s", u.URL, tree.Domain[u.Server])
		}
	}
	art := AddressRecordTuples(urls)
	if len(art) != 5 || art[0].Rel != "addressRecord" {
		t.Errorf("address records = %v", art)
	}

	// Asking for more URLs than servers caps at the server count.
	if got := tree.PickURLs(500); len(got) != 9 {
		t.Errorf("PickURLs(500) = %d records, want 9", len(got))
	}
}

func TestFig2AndFig7(t *testing.T) {
	g := Fig2()
	if g.NumNodes() != 3 || len(g.Links()) != 2 {
		t.Errorf("Fig2: %d nodes, %d links", g.NumNodes(), len(g.Links()))
	}
	rts := Fig2Routes()
	if len(rts) != 2 || rts[0].Rel != "route" {
		t.Errorf("Fig2Routes = %v", rts)
	}
	g7 := Fig7()
	if g7.NumNodes() != 4 || len(g7.Links()) != 4 {
		t.Errorf("Fig7: %d nodes, %d links", g7.NumNodes(), len(g7.Links()))
	}
	if _, ok := g7.FindLink("n1", "n4"); !ok {
		t.Error("Fig7 missing n1 -- n4")
	}
}

func TestStarAndRandom(t *testing.T) {
	s := Star(6, "x")
	if s.NumNodes() != 6 || len(s.Links()) != 5 {
		t.Errorf("Star: %d nodes, %d links", s.NumNodes(), len(s.Links()))
	}
	if len(s.Neighbors("x0")) != 5 {
		t.Errorf("hub degree = %d", len(s.Neighbors("x0")))
	}
	r := Random(20, 5, 3, "r")
	if r.NumNodes() != 20 || !r.Connected() {
		t.Errorf("Random: %d nodes, connected = %v", r.NumNodes(), r.Connected())
	}
	if len(r.Links()) < 19 {
		t.Errorf("Random links = %d, want >= 19", len(r.Links()))
	}
}

// Star builds a hub with n-1 leaves: prefix0 is the hub.
func Star(n int, prefix string) *Graph {
	g := NewGraph()
	hub := types.NodeAddr(prefix + "0")
	g.AddNode(hub)
	for i := 1; i < n; i++ {
		g.MustAddLink(hub, types.NodeAddr(fmt.Sprintf("%s%d", prefix, i)), SimpleLatency, SimpleBandwidth)
	}
	return g
}

// Fig7 builds the updated topology of Figure 7: Fig2 plus a new node n4
// connected to both n1 and n3, providing the alternative path n1-n4-n3.
func Fig7() *Graph {
	g := Fig2()
	g.MustAddLink("n1", "n4", SimpleLatency, SimpleBandwidth)
	g.MustAddLink("n4", "n3", SimpleLatency, SimpleBandwidth)
	return g
}
