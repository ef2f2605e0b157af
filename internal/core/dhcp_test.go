package core

import (
	"testing"

	"provcompress/internal/analysis"
	"provcompress/internal/apps"
	"provcompress/internal/engine"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

func dhcpRuntime(t *testing.T, maint engine.Maintainer) *engine.Runtime {
	t.Helper()
	var sched sim.Scheduler
	// A star: the server h0, linked to each of the clients h1..h3.
	g := topo.NewGraph()
	for _, client := range []types.NodeAddr{"h1", "h2", "h3"} {
		g.MustAddLink("h0", client, topo.SimpleLatency, topo.SimpleBandwidth)
	}
	net := netsim.New(&sched, g)
	rt := engine.NewRuntime(net, apps.DHCP(), apps.Funcs(), maint)
	base := []types.Tuple{
		types.NewTuple("pool", types.String("h0"), types.String("10.0.0.5")),
		types.NewTuple("pool", types.String("h0"), types.String("10.0.0.6")),
		types.NewTuple("accept", types.String("h1"), types.String("h0")),
		types.NewTuple("accept", types.String("h2"), types.String("h0")),
	}
	if err := rt.LoadBase(base); err != nil {
		t.Fatal(err)
	}
	return rt
}

func discover(sv, h string) types.Tuple {
	return types.NewTuple("dhcpDiscover", types.String(sv), types.String(h))
}

// TestDHCPHandshake runs the four-message handshake: one discover yields
// one ack per pool address (each a separate provenance chain).
func TestDHCPHandshake(t *testing.T) {
	rec := NewRecorder()
	rt := dhcpRuntime(t, rec)
	rt.Inject(discover("h0", "h1"))
	rt.Run()
	checkNoErrors(t, rt)

	// Two pool addresses -> two offers -> two acks at h1.
	if rt.NumOutputs() != 2 {
		t.Fatalf("outputs = %d, want 2", rt.NumOutputs())
	}
	for _, o := range rt.Outputs() {
		if o.Tuple.Rel != "dhcpAck" || o.Tuple.Loc() != "h1" {
			t.Errorf("output = %v", o.Tuple)
		}
	}
	// Trees span d1, d2, d3.
	for _, tr := range rec.Trees() {
		if tr.Depth() != 3 || tr.Rule != "d3" {
			t.Errorf("tree shape wrong:\n%s", tr)
		}
	}
}

// TestDHCPKeysAndCompression: the discover's client attribute joins the
// accept table downstream, so (loc, client) are the keys — repeated
// discovers from the same client share one pair of chains.
func TestDHCPKeysAndCompression(t *testing.T) {
	if err := analysis.CheckAdvancedApplicable(apps.DHCP()); err != nil {
		t.Fatalf("DHCP not compressible: %v", err)
	}
	keys := analysis.EquivalenceKeys(apps.DHCP())
	if len(keys) != 2 || keys[0] != 0 || keys[1] != 1 {
		t.Fatalf("keys = %v, want [0 1]", keys)
	}

	a := mustScheme(SchemeAdvanced)
	rt := dhcpRuntime(t, a)
	// The same client discovers three times; a different client once.
	injectSpaced(rt,
		discover("h0", "h1"), discover("h0", "h1"), discover("h0", "h1"),
		discover("h0", "h2"))
	rt.Run()
	checkNoErrors(t, rt)

	// Chains: class h1 stores 2 chains x 3 nodes = 6 rows. Class h2's d1
	// executions are *identical* to h1's (same rule, same pool tuple, both
	// chain leaves), so even the chained scheme shares them: only d2@h2
	// and d3@h0 add rows (+4). Repeated discovers added nothing.
	rows := 0
	for _, n := range rt.Net.Graph().Nodes() {
		rows += len(a.RuleExecRows(n))
	}
	if rows != 10 {
		t.Errorf("ruleExec rows = %d, want 10", rows)
	}

	// Every ack's provenance is queryable with the right event; identical
	// repeat events re-derive identical trees (set semantics).
	rec := NewRecorder()
	rrec := dhcpRuntime(t, rec)
	injectSpaced(rrec,
		discover("h0", "h1"), discover("h0", "h1"), discover("h0", "h1"),
		discover("h0", "h2"))
	rrec.Run()
	for _, want := range rec.Trees() {
		res := runQuery(t, rt, a, want.Output, want.EvID())
		found := false
		for _, g := range res.Trees {
			if g.Equal(want) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing tree for %v", want.Output)
		}
	}
}
