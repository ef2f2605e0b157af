package cluster

import (
	"fmt"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/membership"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// elasticLine boots an n-node forwarding chain with the given replication
// factor and a retry budget small enough that a dead peer is suspected
// (and gossiped) within a quiesce window.
func elasticLine(t *testing.T, n, replicas int) (*Cluster, *topo.Graph) {
	t.Helper()
	g := topo.Line(n, "n")
	c, err := New(Config{
		Prog:      apps.Forwarding(),
		Funcs:     apps.Funcs(),
		Nodes:     g.Nodes(),
		Replicas:  replicas,
		Transport: TransportConfig{RetryBudget: 3, BackoffMax: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	return c, g
}

// TestHealthyRunNoMembershipTraffic pins the subsystem's zero-cost
// property: a fixed-membership run with no failures exchanges no view
// frames at all — the statically converged boot view never changes, so
// gossip has nothing to say.
func TestHealthyRunNoMembershipTraffic(t *testing.T) {
	c, _ := elasticLine(t, 4, 0)
	if err := c.Inject(pkt("n0", "n0", "n3", "quiet")); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(recvT("n3", "n0", "n3", "quiet"), types.HashTuple(pkt("n0", "n0", "n3", "quiet")), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	s := c.MembershipStats()
	if s.ViewFrames != 0 || s.Suspicions != 0 || s.PartialWalks != 0 {
		t.Fatalf("healthy run produced membership traffic: %+v", s)
	}
	if s.Members != 4 || s.Alive != 4 {
		t.Fatalf("view = %d members / %d alive, want 4/4", s.Members, s.Alive)
	}
}

// TestSuspicionConvergesOnKill asserts the evidence-based failure path:
// killing a member and then sending traffic through it exhausts the
// transport retry budget, which marks the member Down, and gossip carries
// that row to every surviving view.
func TestSuspicionConvergesOnKill(t *testing.T) {
	c, _ := elasticLine(t, 4, 0)
	c.Node("n2").Kill()

	// Traffic that needs the n1->n2 link: the failed dials are the
	// suspicion evidence.
	if err := c.Inject(pkt("n0", "n0", "n3", "lost")); err != nil {
		t.Fatal(err)
	}
	c.Quiesce(10 * time.Second) //nolint:errcheck // drops expected
	if err := c.WaitMemberState("n2", membership.Down, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s := c.MembershipStats()
	if s.Suspicions == 0 {
		t.Fatal("no suspicion recorded after killing a member under traffic")
	}
	if s.ViewFrames == 0 {
		t.Fatal("suspicion did not gossip")
	}
}

// TestQueryFastFailSkipsDeadPeer is the regression test for the retry
// storm bug: a query whose walk needs a member every view already knows
// is down must fail immediately — zero walk retries, no camping on the
// dead peer's retry budget.
func TestQueryFastFailSkipsDeadPeer(t *testing.T) {
	c, _ := elasticLine(t, 4, 0)
	before := pkt("n0", "n0", "n3", "before")
	if err := c.Inject(before); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	c.Node("n2").Kill()
	// Prime every view: traffic through the dead node raises the
	// suspicion, quiesce lets it gossip everywhere.
	if err := c.Inject(pkt("n0", "n0", "n3", "prime")); err != nil {
		t.Fatal(err)
	}
	c.Quiesce(10 * time.Second) //nolint:errcheck // drops expected
	if err := c.WaitMemberState("n2", membership.Down, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	retriesBefore := c.TransportStats().QueryRetries
	start := time.Now()
	_, err := c.Query(recvT("n3", "n0", "n3", "before"), types.HashTuple(before), 30*time.Second)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query crossing a known-dead member succeeded without replicas")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("fast-fail took %v; the walk burned timeout budget on a known-dead peer", elapsed)
	}
	if got := c.TransportStats().QueryRetries - retriesBefore; got != 0 {
		t.Fatalf("query spent %d retries on a member the view knew was down, want 0", got)
	}
}

// TestReplicaFailoverAfterKill is the acceptance property for k-way
// replication: with Replicas 2, killing the node that owns a query's
// output mid-run must leave the query answerable — a rendezvous replica
// acts as the querier from its partition shadow and returns the same
// derivation tree the primary would have.
func TestReplicaFailoverAfterKill(t *testing.T) {
	c, _ := elasticLine(t, 4, 2)
	ev := pkt("n0", "n0", "n3", "replicated")
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkByteClassesExact(t, c, "after load")
	out := recvT("n3", "n0", "n3", "replicated")
	base, err := c.Query(out, types.HashTuple(ev), 10*time.Second)
	if err != nil || len(base.Trees) != 1 {
		t.Fatalf("baseline query: %v (%d trees)", err, len(base.Trees))
	}

	c.Node("n3").Kill()
	// Prime suspicion so the failover walk routes around the dead owner.
	if err := c.Inject(pkt("n0", "n0", "n3", "prime")); err != nil {
		t.Fatal(err)
	}
	c.Quiesce(10 * time.Second) //nolint:errcheck // drops expected
	if err := c.WaitMemberState("n3", membership.Down, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkByteClassesExact(t, c, "after kill")

	res, err := c.Query(out, types.HashTuple(ev), 10*time.Second)
	if err != nil {
		t.Fatalf("query after killing the owner with replicas=2: %v", err)
	}
	if len(res.Trees) != 1 {
		t.Fatalf("failover query returned %d trees, want 1", len(res.Trees))
	}
	if !res.Trees[0].Equal(base.Trees[0]) {
		t.Fatalf("failover tree differs from the primary's:\nprimary: %v\nreplica: %v", base.Trees[0], res.Trees[0])
	}
	checkByteClassesExact(t, c, "after failover query")
	s := c.MembershipStats()
	if s.Failovers == 0 {
		t.Fatal("query succeeded but no failover was counted")
	}
	if s.ReplRecords == 0 {
		t.Fatal("replication factor 2 shipped no records")
	}
}

// TestJoinAddsMemberAndBootstraps grows the cluster at runtime: the new
// member must converge to Up in every view, receive bootstrap snapshots
// for the partitions it now replicates, and leave existing data fully
// queryable.
func TestJoinAddsMemberAndBootstraps(t *testing.T) {
	c, _ := elasticLine(t, 3, 1)
	ev := pkt("n0", "n0", "n2", "prejoin")
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkByteClassesExact(t, c, "after load")

	if err := c.Join("n3"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitMemberState("n3", membership.Up, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Ready() {
		t.Fatal("cluster not Ready after join settled")
	}
	checkByteClassesExact(t, c, "after join")

	members := c.Members()
	if len(members) != 4 {
		t.Fatalf("after join: %d members, want 4 (%v)", len(members), members)
	}
	seen := false
	for _, m := range members {
		if m.Addr == "n3" {
			seen = true
			if m.State != membership.Up {
				t.Fatalf("joined member state = %v, want Up", m.State)
			}
		}
	}
	if !seen {
		t.Fatalf("joined member missing from view: %v", members)
	}

	// The newcomer changed the rendezvous placement for someone, so at
	// least one bootstrap snapshot must have streamed.
	if s := c.MembershipStats(); s.Handoffs == 0 || s.HandoffBytes == 0 {
		t.Fatalf("join moved no partition data: %+v", s)
	}

	res, err := c.Query(recvT("n2", "n0", "n2", "prejoin"), types.HashTuple(ev), 10*time.Second)
	if err != nil || len(res.Trees) != 1 {
		t.Fatalf("pre-join data after join: %v (%d trees)", err, len(res.Trees))
	}
	checkByteClassesExact(t, c, "after query")
}

// TestLeaveHandsOffAndStaysQueryable shrinks the cluster cooperatively: a
// mid-chain member leaves, its partition streams to the rendezvous
// successor, and both old provenance (walks crossing the departed member)
// and new traffic (tuples addressed to it, now redirected and applied by
// the acting owner) keep working.
func TestLeaveHandsOffAndStaysQueryable(t *testing.T) {
	c, _ := elasticLine(t, 4, 1)
	pre := pkt("n0", "n0", "n3", "preleave")
	if err := c.Inject(pre); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkByteClassesExact(t, c, "after load")

	if err := c.Leave("n1"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitMemberState("n1", membership.Left, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s := c.MembershipStats()
	if s.Handoffs == 0 || s.HandoffBytes == 0 {
		t.Fatalf("leave streamed no partition data: %+v", s)
	}
	if s.RebalanceSeconds <= 0 {
		t.Fatalf("leave recorded no rebalance time: %+v", s)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkByteClassesExact(t, c, "after leave")

	// Exactly one acting primary for the departed member's partition, and
	// every surviving view agrees who it is.
	owner := c.OwnerOf("n1")
	if owner == "" {
		t.Fatal("no acting owner for the departed member's partition")
	}
	for _, addr := range []types.NodeAddr{"n0", "n2", "n3"} {
		n := c.Node(addr)
		servers := n.serversFor("n1")
		if len(servers) == 0 || servers[0] != owner {
			t.Fatalf("%s routes n1's partition to %v, cluster owner is %s", addr, servers, owner)
		}
	}
	if !c.Node(owner).canServe("n1") {
		t.Fatalf("acting owner %s does not hold n1's partition", owner)
	}

	// Old provenance: the walk for the pre-leave packet needs derivation
	// steps that happened at n1; the acting owner serves them.
	res, err := c.Query(recvT("n3", "n0", "n3", "preleave"), types.HashTuple(pre), 10*time.Second)
	if err != nil || len(res.Trees) != 1 {
		t.Fatalf("pre-leave provenance after leave: %v (%d trees)", err, len(res.Trees))
	}

	// New traffic: the chain still routes through "n1" logically; sends
	// addressed to it redirect to the acting owner, whose hosted partition
	// applies the rules and forwards downstream.
	post := pkt("n0", "n0", "n3", "postleave")
	if err := c.Inject(post); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, out := range c.Outputs("n3") {
		if fmt.Sprint(out) == fmt.Sprint(recvT("n3", "n0", "n3", "postleave")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-leave packet never arrived: outputs %v", c.Outputs("n3"))
	}
	checkByteClassesExact(t, c, "after post-leave traffic")
	res, err = c.Query(recvT("n3", "n0", "n3", "postleave"), types.HashTuple(post), 10*time.Second)
	if err != nil || len(res.Trees) != 1 {
		t.Fatalf("post-leave provenance: %v (%d trees)", err, len(res.Trees))
	}
	checkByteClassesExact(t, c, "after queries")
}

// TestRestartReadRepair exercises the owner-return path: a killed member
// comes back, re-announces Up at a fresh epoch (beating the Down row the
// suspicion spread), and asks its replicas for their shadows back.
func TestRestartReadRepair(t *testing.T) {
	c, _ := elasticLine(t, 4, 2)
	ev := pkt("n0", "n0", "n3", "repair")
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkByteClassesExact(t, c, "after load")

	c.Node("n2").Kill()
	if err := c.Inject(pkt("n0", "n0", "n3", "prime")); err != nil {
		t.Fatal(err)
	}
	c.Quiesce(10 * time.Second) //nolint:errcheck // drops expected
	if err := c.WaitMemberState("n2", membership.Down, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkByteClassesExact(t, c, "after kill")

	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitMemberState("n2", membership.Up, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s := c.MembershipStats(); s.Repairs == 0 {
		t.Fatalf("restart triggered no read-repair: %+v", s)
	}
	checkByteClassesExact(t, c, "after restart")
	res, err := c.Query(recvT("n3", "n0", "n3", "repair"), types.HashTuple(ev), 10*time.Second)
	if err != nil || len(res.Trees) != 1 {
		t.Fatalf("query after restart+repair: %v (%d trees)", err, len(res.Trees))
	}
	checkByteClassesExact(t, c, "after query")
}
