package core

import (
	"strings"
	"testing"

	"provcompress/internal/apps"
	"provcompress/internal/engine"
	"provcompress/internal/ndlog"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// tapSrc is a second program deployed alongside packet forwarding: nodes
// with a tap entry mirror traversing packets to a monitor. Its provenance
// trees share the forwarding rules' execution nodes — the Section 8
// future-work scenario.
const tapSrc = `
t1 mirror(@M, S, D, DT) :- packet(@L, S, D, DT), tap(@L, M).
`

func multiRuntime(t *testing.T, maint engine.Maintainer) *engine.Runtime {
	t.Helper()
	tap, err := ndlog.ParseDELP(tapSrc)
	if err != nil {
		t.Fatal(err)
	}
	var sched sim.Scheduler
	net := netsim.New(&sched, topo.Fig2())
	rt, err := engine.NewMultiRuntime(net,
		[]*ndlog.Program{apps.Forwarding(), tap}, apps.Funcs(), maint)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadBase(topo.Fig2Routes()); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadBase([]types.Tuple{
		types.NewTuple("tap", types.String("n2"), types.String("n3")),
	}); err != nil {
		t.Fatal(err)
	}
	return rt
}

func mirrorTuple(m, s, d, dt string) types.Tuple {
	return types.NewTuple("mirror",
		types.String(m), types.String(s), types.String(d), types.String(dt))
}

// TestMergePrograms checks the merge validation rules.
func TestMergePrograms(t *testing.T) {
	tap := ndlog.MustParse(tapSrc)
	merged, err := ndlog.MergePrograms(apps.Forwarding(), tap)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Rules) != 3 {
		t.Errorf("merged rules = %d, want 3", len(merged.Rules))
	}
	// Identical shared rules collapse.
	again, err := ndlog.MergePrograms(apps.Forwarding(), apps.Forwarding())
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Rules) != 2 {
		t.Errorf("self-merge rules = %d, want 2", len(again.Rules))
	}
	// Label collision with a different body is rejected.
	other := ndlog.MustParse(`r1 blah(@L, X) :- foo(@L, X).`)
	if _, err := ndlog.MergePrograms(apps.Forwarding(), other); err == nil {
		t.Error("conflicting label accepted")
	}
	// A program deriving another's slow relation is rejected.
	routeWriter := ndlog.MustParse(`w1 route(@L, D, N) :- linkUp(@L, D, N).`)
	if _, err := ndlog.MergePrograms(apps.Forwarding(), routeWriter); err == nil {
		t.Error("slow-relation writer accepted")
	}
	if _, err := ndlog.MergePrograms(); err == nil {
		t.Error("empty merge accepted")
	}
	evs := ndlog.InputEvents(apps.Forwarding(), tap)
	if len(evs) != 1 || evs[0] != "packet" {
		t.Errorf("InputEvents = %v", evs)
	}
}

// TestCrossProgramExecution checks that one injected packet drives both
// programs: forwarding delivers recv at n3 and the tap at n2 mirrors the
// traversing packet.
func TestCrossProgramExecution(t *testing.T) {
	rec := NewRecorder()
	rt := multiRuntime(t, rec)
	ev := packet("n1", "n1", "n3", "data")
	rt.Inject(ev)
	rt.Run()
	checkNoErrors(t, rt)

	if rt.NumOutputs() != 2 {
		t.Fatalf("outputs = %d, want 2 (recv + mirror)", rt.NumOutputs())
	}
	wantMirror := mirrorTuple("n3", "n1", "n3", "data")
	var sawRecv, sawMirror bool
	for _, o := range rt.Outputs() {
		switch {
		case o.Tuple.Equal(recvTuple("n3", "n1", "n3", "data")):
			sawRecv = true
		case o.Tuple.Equal(wantMirror):
			sawMirror = true
		}
	}
	if !sawRecv || !sawMirror {
		t.Fatalf("missing outputs: recv=%v mirror=%v", sawRecv, sawMirror)
	}

	// The mirror tree interleaves rules of both programs: t1 on top of r1.
	trees := rec.TreesFor(types.HashTuple(wantMirror), types.ZeroID)
	if len(trees) != 1 {
		t.Fatalf("mirror trees = %d", len(trees))
	}
	tr := trees[0]
	if tr.Rule != "t1" || tr.Child == nil || tr.Child.Rule != "r1" {
		t.Errorf("mirror tree rules wrong:\n%s", tr)
	}
	if !tr.EventOf().Equal(ev) {
		t.Errorf("mirror tree event = %v", tr.EventOf())
	}
}

// TestCrossProgramSharedChain checks the future-work headline: under
// Advanced, the mirror chain reuses the forwarding chain's rule-execution
// node at n1 — provenance compressed across programs.
func TestCrossProgramSharedChain(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := multiRuntime(t, a)
	injectSpaced(rt,
		packet("n1", "n1", "n3", "data"),
		packet("n1", "n1", "n3", "url"))
	rt.Run()
	checkNoErrors(t, rt)
	if rt.NumOutputs() != 4 {
		t.Fatalf("outputs = %d, want 4", rt.NumOutputs())
	}

	// n1 stores exactly one rule-execution node (r1), shared by the recv
	// chains and the mirror chains of both packets.
	if rows := a.RuleExecRows("n1"); len(rows) != 1 || rows[0].Rule != "r1" {
		t.Fatalf("n1 rows = %v, want one shared r1 node", rows)
	}
	// n2 stores r1 (forwarding) and t1 (tap).
	n2rules := map[string]bool{}
	for _, r := range a.RuleExecRows("n2") {
		n2rules[r.Rule] = true
	}
	if len(n2rules) != 2 || !n2rules["r1"] || !n2rules["t1"] {
		t.Fatalf("n2 rules = %v", n2rules)
	}
	// The t1 node's Next points at the shared r1 node at n1.
	for _, r := range a.RuleExecRows("n2") {
		if r.Rule == "t1" {
			if r.Next.Loc != "n1" {
				t.Errorf("t1 next = %v, want the shared n1 node", r.Next)
			}
			n1row := a.RuleExecRows("n1")[0]
			if r.Next.RID != n1row.RID {
				t.Error("t1 does not reference the same RID recv's chain uses")
			}
		}
	}

	// Both packets' mirror and recv trees reconstruct exactly.
	rec := NewRecorder()
	rrec := multiRuntime(t, rec)
	injectSpaced(rrec,
		packet("n1", "n1", "n3", "data"),
		packet("n1", "n1", "n3", "url"))
	rrec.Run()
	for _, want := range rec.Trees() {
		res := runQuery(t, rt, a, want.Output, want.EvID())
		if len(res.Trees) != 1 || !res.Trees[0].Equal(want) {
			t.Errorf("query %v: got %d trees", want.Output, len(res.Trees))
		}
	}
}

// TestMultiProgramDisjointApps deploys forwarding and DNS jointly: the
// programs share no relations, each input event relation gets its own
// equivalence keys, and both applications maintain and answer provenance
// side by side.
func TestMultiProgramDisjointApps(t *testing.T) {
	// One topology hosting both: a forwarding chain f0-f1-f2 and a DNS
	// mini-hierarchy host-root-auth, joined so the graph is connected.
	g := topo.NewGraph()
	g.MustAddLink("f0", "f1", topo.SimpleLatency, topo.SimpleBandwidth)
	g.MustAddLink("f1", "f2", topo.SimpleLatency, topo.SimpleBandwidth)
	g.MustAddLink("f2", "host", topo.SimpleLatency, topo.SimpleBandwidth)
	g.MustAddLink("host", "root", topo.SimpleLatency, topo.SimpleBandwidth)
	g.MustAddLink("root", "auth", topo.SimpleLatency, topo.SimpleBandwidth)

	// Rule labels must be unique across jointly deployed programs (RIDs
	// hash them); deploy the DNS program with q-labels.
	dns, err := ndlog.ParseDELP(strings.NewReplacer(
		"r1 ", "q1 ", "r2 ", "q2 ", "r3 ", "q3 ", "r4 ", "q4 ").Replace(apps.DNSSrc))
	if err != nil {
		t.Fatal(err)
	}

	a := mustScheme(SchemeAdvanced)
	var sched sim.Scheduler
	net := netsim.New(&sched, g)
	rt, err := engine.NewMultiRuntime(net,
		[]*ndlog.Program{apps.Forwarding(), dns}, apps.Funcs(), a)
	if err != nil {
		t.Fatal(err)
	}
	base := []types.Tuple{
		routeTuple("f0", "f2", "f1"),
		routeTuple("f1", "f2", "f2"),
		types.NewTuple("rootServer", types.String("host"), types.String("root")),
		types.NewTuple("nameServer", types.String("root"), types.String("x"), types.String("auth")),
		types.NewTuple("addressRecord", types.String("auth"), types.String("www.x"), types.String("10.1.1.1")),
	}
	if err := rt.LoadBase(base); err != nil {
		t.Fatal(err)
	}

	pktEv := packet("f0", "f0", "f2", "payload")
	dnsEv := types.NewTuple("url", types.String("host"), types.String("www.x"), types.Int(1))
	injectSpaced(rt, pktEv, dnsEv)
	rt.Run()
	checkNoErrors(t, rt)

	if rt.NumOutputs() != 2 {
		t.Fatalf("outputs = %d, want recv + reply", rt.NumOutputs())
	}

	// Per-input-event equivalence keys: packet -> (0,2); url -> (0,1).
	for _, tc := range []struct {
		rel  string
		want []int
	}{
		{"packet", []int{0, 2}},
		{"url", []int{0, 1}},
	} {
		got := a.keysByEvent[tc.rel]
		if len(got) != len(tc.want) {
			t.Errorf("keys[%s] = %v, want %v", tc.rel, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("keys[%s] = %v, want %v", tc.rel, got, tc.want)
			}
		}
	}

	// Both applications' provenance answers correctly.
	recv := recvTuple("f2", "f0", "f2", "payload")
	res := runQuery(t, rt, a, recv, types.HashTuple(pktEv))
	if len(res.Trees) != 1 || !res.Trees[0].EventOf().Equal(pktEv) {
		t.Errorf("forwarding query: %d trees", len(res.Trees))
	}
	reply := types.NewTuple("reply",
		types.String("host"), types.String("www.x"), types.String("10.1.1.1"), types.Int(1))
	res = runQuery(t, rt, a, reply, types.HashTuple(dnsEv))
	if len(res.Trees) != 1 || !res.Trees[0].EventOf().Equal(dnsEv) {
		t.Errorf("dns query: %d trees", len(res.Trees))
	}
}

// TestMultiProgramKeys: the merged analysis still finds (packet:0,
// packet:2) — the tap join touches only the location, which is always a
// key.
func TestMultiProgramKeys(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	_ = multiRuntime(t, a)
	keys := a.Keys()
	if len(keys) != 2 || keys[0] != 0 || keys[1] != 2 {
		t.Errorf("keys = %v, want [0 2]", keys)
	}
}
