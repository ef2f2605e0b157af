package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/core"
	"provcompress/internal/ndlog"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

func pkt(loc, src, dst, dt string) types.Tuple {
	return types.NewTuple("packet",
		types.String(loc), types.String(src), types.String(dst), types.String(dt))
}

func recvT(loc, src, dst, dt string) types.Tuple {
	return types.NewTuple("recv",
		types.String(loc), types.String(src), types.String(dst), types.String(dt))
}

func fig2Cluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{
		Prog:  apps.Forwarding(),
		Funcs: apps.Funcs(),
		Nodes: []types.NodeAddr{"n1", "n2", "n3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(topo.Fig2Routes()); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterForwardingOverTCP(t *testing.T) {
	c := fig2Cluster(t)
	ev := pkt("n1", "n1", "n3", "data")
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	outs := c.Outputs("n3")
	if len(outs) != 1 || !outs[0].Equal(recvT("n3", "n1", "n3", "data")) {
		t.Fatalf("outputs = %v", outs)
	}
	if c.TotalStorageBytes() <= 0 {
		t.Error("no provenance stored")
	}
}

func TestClusterStorageOrderingAcrossSchemes(t *testing.T) {
	// The paper's headline inequality, measured over the real wire:
	// Advanced < Basic < ExSPAN for a shared-class workload.
	totals := make(map[string]int64)
	for _, scheme := range []string{core.SchemeExSPAN, core.SchemeBasic, core.SchemeAdvanced} {
		g := topo.Line(5, "n")
		c, err := New(Config{Prog: apps.Forwarding(), Funcs: apps.Funcs(),
			Nodes: g.Nodes(), Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
			c.Close()
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			if err := c.Inject(pkt("n0", "n0", "n4", fmt.Sprintf("p%d", i))); err != nil {
				c.Close()
				t.Fatal(err)
			}
		}
		if err := c.Quiesce(10 * time.Second); err != nil {
			c.Close()
			t.Fatal(err)
		}
		totals[scheme] = c.TotalStorageBytes()
		c.Close()
	}
	if !(totals[core.SchemeAdvanced] < totals[core.SchemeBasic] &&
		totals[core.SchemeBasic] < totals[core.SchemeExSPAN]) {
		t.Errorf("storage ordering violated over TCP: %v", totals)
	}
}

func TestClusterUnknownScheme(t *testing.T) {
	if _, err := New(Config{
		Prog:   apps.Forwarding(),
		Nodes:  []types.NodeAddr{"a", "b"},
		Scheme: "zstd",
	}); err == nil {
		t.Error("unknown scheme accepted")
	}
	// Two events of one class can output at different nodes (H is not a
	// key), which the Advanced schemes' hmap cannot associate: the cluster
	// refuses the program under them, as NewSystem does, and serves it
	// under the schemes that do not class events.
	unsafe := ndlog.MustParse("r1 out(@H, X) :- e(@L, X, H).")
	for _, scheme := range core.AllSchemeNames() {
		c, err := New(Config{Prog: unsafe, Nodes: []types.NodeAddr{"a", "b"}, Scheme: scheme})
		refuse := scheme == core.SchemeAdvanced || scheme == core.SchemeAdvancedInterClass
		if refuse && (err == nil || !strings.Contains(err.Error(), "not compressible")) || !refuse && err != nil {
			t.Errorf("%s: New error = %v, want refused %v", scheme, err, refuse)
		}
		if err == nil {
			c.Close()
		}
	}
}

func TestClusterCompressionSharing(t *testing.T) {
	c := fig2Cluster(t)
	// Ten packets of the same class: the chain is stored once.
	for i := 0; i < 10; i++ {
		if err := c.Inject(pkt("n1", "n1", "n3", fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	n3 := c.Node("n3")
	n3.self.mu.Lock()
	rows := n3.self.state.ProvRows(types.HashTuple(recvT("n3", "n1", "n3", "p0")), types.ZeroID)
	n3.self.mu.Unlock()
	if len(rows) != 1 {
		t.Fatalf("prov rows for p0 = %d", len(rows))
	}
	// Compression: storage stays sublinear in the packet count.
	perPacket := float64(c.TotalStorageBytes()) / 10
	if perPacket > 400 {
		t.Errorf("storage per packet = %.0f bytes; compression not effective", perPacket)
	}
}

func TestClusterSlowUpdateSig(t *testing.T) {
	c, err := New(Config{
		Prog:  apps.Forwarding(),
		Funcs: apps.Funcs(),
		Nodes: []types.NodeAddr{"n1", "n2", "n3", "n4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadBase(topo.Fig2Routes()); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadBase([]types.Tuple{
		types.NewTuple("route", types.String("n4"), types.String("n3"), types.String("n3")),
	}); err != nil {
		t.Fatal(err)
	}

	before := pkt("n1", "n1", "n3", "before")
	if err := c.Inject(before); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Reroute through n4: delete old route locally, insert the new one
	// (sig broadcast resets htequi cluster-wide).
	n1 := c.Node("n1")
	n1.self.mu.Lock()
	n1.self.db.Delete(types.NewTuple("route", types.String("n1"), types.String("n3"), types.String("n2")))
	n1.self.mu.Unlock()
	if err := c.InsertSlow(types.NewTuple("route",
		types.String("n1"), types.String("n3"), types.String("n4"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	after := pkt("n1", "n1", "n3", "after")
	if err := c.Inject(after); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	res, err := c.Query(recvT("n3", "n1", "n3", "after"), types.HashTuple(after), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) != 1 {
		t.Fatalf("trees = %d", len(res.Trees))
	}
	// The new tree crosses n4.
	if !res.Trees[0].Child.Child.Output.Equal(pkt("n4", "n1", "n3", "after")) {
		t.Errorf("tree does not cross n4:\n%s", res.Trees[0])
	}
	// The old tree is still queryable.
	resOld, err := c.Query(recvT("n3", "n1", "n3", "before"), types.HashTuple(before), 5*time.Second)
	if err != nil || len(resOld.Trees) != 1 {
		t.Fatalf("old query: %v, %d trees", err, len(resOld.Trees))
	}
}

func TestClusterQueryUnknownTuple(t *testing.T) {
	c := fig2Cluster(t)
	res, err := c.Query(recvT("n3", "zz", "n3", "ghost"), types.ZeroID, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) != 0 {
		t.Errorf("trees = %d", len(res.Trees))
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := New(Config{Prog: apps.Forwarding(), Nodes: nil}); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := New(Config{Prog: apps.Forwarding(),
		Nodes: []types.NodeAddr{"a", "a"}}); err == nil {
		t.Error("duplicate node accepted")
	}
	c := fig2Cluster(t)
	if err := c.Inject(pkt("ghost", "a", "b", "x")); err == nil {
		t.Error("inject at unknown node accepted")
	}
	if err := c.LoadBase([]types.Tuple{types.NewTuple("route", types.String("ghost"))}); err == nil {
		t.Error("base tuple at unknown node accepted")
	}
	if _, err := c.Query(recvT("ghost", "a", "b", "x"), types.ZeroID, time.Second); err == nil {
		t.Error("query at unknown node accepted")
	}
}

// TestInjectRefusesUnconsumedEvent: Inject refuses an event no rule takes
// as its event — an unknown relation, or a forged output — so nothing is
// stored for it and the outputs stay exactly what the program derived.
func TestInjectRefusesUnconsumedEvent(t *testing.T) {
	c := fig2Cluster(t)
	for _, ev := range []types.Tuple{
		types.NewTuple("bogus", types.String("n1")),
		recvT("n3", "n0", "n3", "forged"),
	} {
		if err := c.Inject(ev); err == nil {
			t.Errorf("inject %s accepted", ev)
		}
	}
	if err := c.Inject(pkt("n1", "n1", "n3", "real")); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if outs := c.AllOutputs(); len(outs) != 1 || !outs[0].Equal(recvT("n3", "n1", "n3", "real")) {
		t.Fatalf("outputs = %v, want only the derived recv", outs)
	}
}

// TestOutputsReadDuringIngest: Outputs reads the database while the shard
// workers insert into it — the race detector checks the two are ordered —
// and lists every output exactly once.
func TestOutputsReadDuringIngest(t *testing.T) {
	c := fig2Cluster(t)
	const packets = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < packets; i++ {
			if err := c.Inject(pkt("n1", "n1", "n3", fmt.Sprint("p", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	deadline := time.Now().Add(20 * time.Second)
	for len(c.Outputs("n3")) < packets && time.Now().Before(deadline) {
	}
	wg.Wait()
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, out := range c.Outputs("n3") {
		seen[out.String()] = true
	}
	if outs := c.Outputs("n3"); len(outs) != packets || len(seen) != packets {
		t.Fatalf("%d outputs, %d distinct, want %d", len(outs), len(seen), packets)
	}
}

func TestClusterConcurrentInjectionSoak(t *testing.T) {
	// Many packets of several classes injected back-to-back without
	// quiescing in between: messages of different executions interleave on
	// the wire; the pending-output path must keep every association intact.
	g := topo.Line(6, "n")
	c, err := New(Config{Prog: apps.Forwarding(), Funcs: apps.Funcs(), Nodes: g.Nodes()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	const perClass = 20
	dsts := []string{"n5", "n4", "n3"}
	var evs []types.Tuple
	for _, d := range dsts {
		for i := 0; i < perClass; i++ {
			evs = append(evs, pkt("n0", "n0", d, fmt.Sprintf("%s-%d", d, i)))
		}
	}
	for _, ev := range evs {
		if err := c.Inject(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range dsts {
		total += len(c.Outputs(types.NodeAddr(d)))
	}
	if total != len(evs) {
		t.Fatalf("outputs = %d, want %d", total, len(evs))
	}
	// Every packet's provenance is queryable and has the right event.
	for _, ev := range evs {
		out := types.NewTuple("recv", ev.Args[2], ev.Args[1], ev.Args[2], ev.Args[3])
		res, err := c.Query(out, types.HashTuple(ev), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trees) != 1 || !res.Trees[0].EventOf().Equal(ev) {
			t.Fatalf("query %v: %d trees", out, len(res.Trees))
		}
	}
	// Compression held: ~one chain per class.
	perPacket := float64(c.TotalStorageBytes()) / float64(len(evs))
	if perPacket > 400 {
		t.Errorf("storage per packet = %.0f bytes", perPacket)
	}
}

func TestClusterDNSOverTCP(t *testing.T) {
	tree := topo.GenDNSTree(topo.DNSTreeConfig{NumServers: 10, MaxDepth: 4, Seed: 2})
	clients := tree.AttachClients(1)
	urls := tree.PickURLs(3)
	nodes := append([]types.NodeAddr{}, tree.Servers...)
	nodes = append(nodes, clients...)

	c, err := New(Config{Prog: apps.DNS(), Funcs: apps.Funcs(), Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadBase(tree.NameServerTuples(clients)); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadBase(topo.AddressRecordTuples(urls)); err != nil {
		t.Fatal(err)
	}

	ev := types.NewTuple("url",
		types.String(string(clients[0])), types.String(urls[0].URL), types.Int(1))
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	outs := c.Outputs(clients[0])
	if len(outs) != 1 {
		t.Fatalf("outputs = %v", outs)
	}
	if outs[0].Args[2].AsString() != urls[0].IP {
		t.Errorf("resolved to %v, want %s", outs[0], urls[0].IP)
	}
	res, err := c.Query(outs[0], types.HashTuple(ev), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) != 1 {
		t.Fatalf("trees = %d", len(res.Trees))
	}
	if !res.Trees[0].EventOf().Equal(ev) {
		t.Errorf("event = %v", res.Trees[0].EventOf())
	}
}
