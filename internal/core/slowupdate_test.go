package core

import (
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/engine"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// fig7Runtime builds the updated topology of Figure 7 (n4 added between n1
// and n3) with the original Figure 2 routes loaded.
func fig7Runtime(t *testing.T, maint engine.Maintainer) *engine.Runtime {
	t.Helper()
	var sched sim.Scheduler
	g := topo.Fig2()
	g.MustAddLink("n1", "n4", topo.SimpleLatency, topo.SimpleBandwidth)
	g.MustAddLink("n4", "n3", topo.SimpleLatency, topo.SimpleBandwidth)
	net := netsim.New(&sched, g)
	rt := engine.NewRuntime(net, apps.Forwarding(), apps.Funcs(), maint)
	if err := rt.LoadBase(topo.Fig2Routes()); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadBase([]types.Tuple{routeTuple("n4", "n3", "n3")}); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestSlowUpdateScenario reproduces Section 5.5's Figure 7 walkthrough:
// after rerouting n1's traffic through n4, the sig broadcast resets the
// equivalence-key tables, so the next packet of the (n1, n3) class
// re-maintains provenance along the new path — and its queried tree shows
// the n1 -> n4 -> n3 traversal.
func TestSlowUpdateScenario(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := fig7Runtime(t, a)

	evOld := packet("n1", "n1", "n3", "before")
	rt.InjectAt(0, evOld)
	rt.Run()
	checkNoErrors(t, rt)

	if len(a.states["n1"].tables().htequi) != 1 {
		t.Fatalf("htequi at n1 = %d, want 1", len(a.states["n1"].tables().htequi))
	}

	// The administrator redirects traffic: delete route(@n1,n3,n2), insert
	// route(@n1,n3,n4). The insertion broadcasts sig.
	rt.DeleteSlow(routeTuple("n1", "n3", "n2"))
	rt.InsertSlow(routeTuple("n1", "n3", "n4"))
	rt.Run() // deliver the broadcast

	for _, addr := range []types.NodeAddr{"n1", "n2", "n3", "n4"} {
		if n := len(a.states[addr].tables().htequi); n != 0 {
			t.Errorf("%s: htequi = %d after sig, want 0", addr, n)
		}
	}

	// A new packet of the same class: existFlag is false again, so the new
	// path's provenance is concretely maintained.
	evNew := packet("n1", "n1", "n3", "after")
	rt.Inject(evNew)
	rt.Run()
	checkNoErrors(t, rt)

	// n4 now holds a rule-execution node.
	if n := len(a.RuleExecRows("n4")); n != 1 {
		t.Fatalf("n4 ruleExec rows = %d, want 1", n)
	}

	res := runQuery(t, rt, a, recvTuple("n3", "n1", "n3", "after"), types.HashTuple(evNew))
	if len(res.Trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(res.Trees))
	}
	tr := res.Trees[0]
	// The tree shows the n1 -> n4 -> n3 traversal: the intermediate packet
	// materialized at n4.
	if !tr.Child.Output.Equal(packet("n3", "n1", "n3", "after")) {
		t.Errorf("level 2 output = %v", tr.Child.Output)
	}
	if !tr.Child.Child.Output.Equal(packet("n4", "n1", "n3", "after")) {
		t.Errorf("level 3 output = %v, want the hop through n4", tr.Child.Child.Output)
	}
	if len(tr.Child.Slow) != 1 || !tr.Child.Slow[0].Equal(routeTuple("n4", "n3", "n3")) {
		t.Errorf("new path should join route(@n4, n3, n3): %v", tr.Child.Slow)
	}

	// The old tree is untouched (provenance is monotone): query it.
	resOld := runQuery(t, rt, a, recvTuple("n3", "n1", "n3", "before"), types.HashTuple(evOld))
	if len(resOld.Trees) != 1 {
		t.Fatalf("old trees = %d, want 1", len(resOld.Trees))
	}
	if !resOld.Trees[0].Child.Child.Output.Equal(packet("n2", "n1", "n3", "before")) {
		t.Errorf("old tree should still traverse n2:\n%s", resOld.Trees[0])
	}
}

// TestDeletionDoesNotBroadcast checks that slow-table deletions neither
// broadcast sig nor clear htequi (Section 5.5: stored provenance is
// monotone).
func TestDeletionDoesNotBroadcast(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := fig7Runtime(t, a)
	rt.Inject(packet("n1", "n1", "n3", "x"))
	rt.Run()

	msgsBefore := rt.Net.TotalMessages()
	rt.DeleteSlow(routeTuple("n2", "n3", "n3"))
	rt.Run()
	if rt.Net.TotalMessages() != msgsBefore {
		t.Error("deletion sent messages")
	}
	if len(a.states["n1"].tables().htequi) != 1 {
		t.Error("deletion cleared htequi")
	}
}

// TestSigBroadcastCost measures that the sig broadcast reaches every node
// and costs one message per node.
func TestSigBroadcastCost(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := fig7Runtime(t, a)
	rt.Run()
	before := rt.Net.TotalMessages()
	rt.InsertSlow(routeTuple("n1", "n2", "n2"))
	rt.Run()
	sent := rt.Net.TotalMessages() - before
	if sent != int64(rt.Net.Graph().NumNodes()) {
		t.Errorf("sig messages = %d, want %d", sent, rt.Net.Graph().NumNodes())
	}
}

// TestStaleClassAfterUpdateStillMaintained: packets of a class whose first
// post-sig member is in flight still get associated once the new chain
// completes (the pending-output path).
func TestStaleClassAfterUpdateStillMaintained(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := fig7Runtime(t, a)
	// Two packets injected back-to-back before any execution completes: the
	// second sees existFlag=true but arrives at n3 after the first, so the
	// hmap entry exists. Then force the pending path by injecting a third
	// packet whose class was reset mid-flight.
	ev1 := packet("n1", "n1", "n3", "a")
	ev2 := packet("n1", "n1", "n3", "b")
	rt.InjectAt(0, ev1)
	rt.InjectAt(time.Microsecond, ev2)
	rt.Run()
	checkNoErrors(t, rt)
	if n := len(a.ProvRows("n3")); n != 2 {
		t.Fatalf("prov rows = %d, want 2", n)
	}
	for _, p := range a.ProvRows("n3") {
		if p.Ref.IsNil() {
			t.Error("output associated to NULL chain")
		}
	}
}
