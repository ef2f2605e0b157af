package cluster

import (
	"fmt"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/membership"
	"provcompress/internal/topo"
	"provcompress/internal/trace"
	"provcompress/internal/types"
)

// TestRebalanceUnderChaos drives a partition handoff while one of the
// likely recipients crashes and comes back inside the retry window: a
// member leaves concurrently with a kill/restart of another node. The
// invariants that must hold throughout are the chaos suite's trinity —
// every collected trace stays a single parent-linked tree, the per-class
// byte counters keep summing exactly to the transport total (handoff and
// replication bytes included), and once the dust settles the departed
// member's partition has exactly one acting primary that every surviving
// view agrees on.
func TestRebalanceUnderChaos(t *testing.T) {
	tr := trace.NewCollector(0)
	g := topo.Line(5, "n")
	c, err := New(Config{
		Prog:     apps.Forwarding(),
		Funcs:    apps.Funcs(),
		Nodes:    g.Nodes(),
		Replicas: 2,
		Tracer:   tr,
		// Budget sized so frames to the crashed recipient survive until
		// its restart instead of being written off.
		Transport: TransportConfig{RetryBudget: 12, BackoffMax: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}

	before := pkt("n0", "n0", "n4", "before")
	tidBefore, err := c.InjectTraced(before)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkByteClassesExact(t, c, "after load")

	// Crash a node, then start the leave while it is down. The leaver's
	// handoff targets may include the crashed node; those frames ride the
	// retry budget and land after the restart below.
	c.Node("n3").Kill()
	leaveErr := make(chan error, 1)
	go func() { leaveErr <- c.Leave("n1") }()
	time.Sleep(100 * time.Millisecond)
	if err := c.Restart("n3"); err != nil {
		t.Fatal(err)
	}
	if err := <-leaveErr; err != nil {
		t.Fatal(err)
	}
	if err := c.WaitMemberState("n1", membership.Left, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkByteClassesExact(t, c, "after rebalance")

	// Exactly one acting primary for the departed member, agreed by every
	// surviving view, actually holding the partition.
	owner := c.OwnerOf("n1")
	if owner == "" {
		t.Fatal("no acting owner for the departed member's partition")
	}
	holders := 0
	for _, addr := range []types.NodeAddr{"n0", "n2", "n3", "n4"} {
		n := c.Node(addr)
		if !n.Alive() {
			t.Fatalf("%s died during rebalance", addr)
		}
		servers := n.serversFor("n1")
		if len(servers) == 0 || servers[0] != owner {
			t.Fatalf("%s routes n1's partition to %v, cluster owner is %s", addr, servers, owner)
		}
		if n.canServe("n1") {
			holders++
		}
	}
	if holders == 0 {
		t.Fatal("no surviving node can serve the departed member's partition")
	}
	if !c.Node(owner).canServe("n1") {
		t.Fatalf("agreed owner %s does not hold n1's partition", owner)
	}

	// Traffic through the departed member still flows end to end, and its
	// derivation trace is one parent-linked tree spanning the redirect.
	after := pkt("n0", "n0", "n4", "after")
	tidAfter, err := c.InjectTraced(after)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkByteClassesExact(t, c, "after post-rebalance inject")

	found := false
	for _, out := range c.Outputs("n4") {
		if fmt.Sprint(out) == fmt.Sprint(recvT("n4", "n0", "n4", "after")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-rebalance packet never arrived: outputs %v", c.Outputs("n4"))
	}

	resBefore, err := c.Query(recvT("n4", "n0", "n4", "before"), types.HashTuple(before), 10*time.Second)
	if err != nil || len(resBefore.Trees) != 1 {
		t.Fatalf("pre-rebalance provenance: %v (%d trees)", err, len(resBefore.Trees))
	}
	resAfter, err := c.Query(recvT("n4", "n0", "n4", "after"), types.HashTuple(after), 10*time.Second)
	if err != nil || len(resAfter.Trees) != 1 {
		t.Fatalf("post-rebalance provenance: %v (%d trees)", err, len(resAfter.Trees))
	}
	checkByteClassesExact(t, c, "after queries")

	for _, tid := range []trace.TraceID{tidBefore, tidAfter, resBefore.TraceID, resAfter.TraceID} {
		spans := tr.Trace(tid)
		if err := trace.CheckLinked(spans); err != nil {
			t.Fatalf("trace %d broken across rebalance chaos: %v\nspans: %+v", tid, err, spans)
		}
	}

	s := c.MembershipStats()
	if s.Handoffs == 0 || s.HandoffBytes == 0 {
		t.Fatalf("rebalance moved no partition data: %+v", s)
	}
}
