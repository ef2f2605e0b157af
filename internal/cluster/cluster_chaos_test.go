package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// forwardingOutcome runs the forwarding DELP over a 4-node chain under an
// optional fault plan and returns the sorted outputs plus the provenance
// tree of every injected event, so a chaos run can be compared
// byte-for-byte against the fault-free run.
func forwardingOutcome(t *testing.T, plan *FaultPlan, tcfg TransportConfig) (outputs []string, trees map[string]string, stats TransportStats) {
	t.Helper()
	g := topo.Line(4, "n")
	c, err := New(Config{
		Prog:      apps.Forwarding(),
		Funcs:     apps.Funcs(),
		Nodes:     g.Nodes(),
		Transport: tcfg,
		Faults:    plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	var evs []types.Tuple
	for _, dst := range []string{"n3", "n2"} {
		for i := 0; i < 5; i++ {
			evs = append(evs, pkt("n0", "n0", dst, fmt.Sprintf("%s-p%d", dst, i)))
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
	for _, out := range c.AllOutputs() {
		outputs = append(outputs, out.String())
	}
	sort.Strings(outputs)
	trees = make(map[string]string, len(evs))
	for _, ev := range evs {
		out := types.NewTuple("recv", ev.Args[2], ev.Args[1], ev.Args[2], ev.Args[3])
		res, err := c.Query(out, types.HashTuple(ev), 10*time.Second)
		if err != nil {
			t.Fatalf("query %v: %v", out, err)
		}
		if len(res.Trees) != 1 {
			t.Fatalf("query %v: %d trees", out, len(res.Trees))
		}
		trees[ev.String()] = res.Trees[0].String()
	}
	return outputs, trees, c.TransportStats()
}

// TestChaosForwardingDropDelayReset is the headline chaos property: under
// a seeded plan of frame drops, write stalls, and one-shot connection
// resets, the forwarding DELP converges to exactly the fault-free outputs
// and every provenance query returns exactly the fault-free tree — the
// transport's retry/backoff/reconnect machinery absorbs every injected
// fault.
func TestChaosForwardingDropDelayReset(t *testing.T) {
	wantOut, wantTrees, clean := forwardingOutcome(t, nil, TransportConfig{})
	if clean.Retries != 0 || clean.Drops != 0 {
		t.Fatalf("fault-free run not clean: %+v", clean)
	}
	plan := &FaultPlan{
		Seed:       7,
		Drop:       0.08,
		Delay:      0.05,
		DelayFor:   2 * time.Millisecond,
		ResetAfter: 6,
	}
	gotOut, gotTrees, stats := forwardingOutcome(t, plan, TransportConfig{})
	if strings.Join(gotOut, "\n") != strings.Join(wantOut, "\n") {
		t.Errorf("outputs diverged under faults:\ngot:\n%s\nwant:\n%s",
			strings.Join(gotOut, "\n"), strings.Join(wantOut, "\n"))
	}
	for ev, want := range wantTrees {
		if gotTrees[ev] != want {
			t.Errorf("tree for %s diverged under faults:\ngot:\n%s\nwant:\n%s", ev, gotTrees[ev], want)
		}
	}
	if stats.FaultDrops+stats.FaultDelays+stats.FaultResets == 0 {
		t.Error("fault plan injected nothing; chaos run was vacuous")
	}
	if stats.FaultDrops > 0 && stats.Retries == 0 {
		t.Error("faults were injected but nothing retried")
	}
	if stats.Drops > 0 || stats.QueueDrops > 0 {
		t.Errorf("survivable plan lost frames permanently: %+v", stats)
	}
}

// TestChaosDNSDrop runs the DNS DELP under a seeded drop plan and checks
// resolution results and provenance trees against the fault-free run.
func TestChaosDNSDrop(t *testing.T) {
	run := func(plan *FaultPlan) (out string, tree string) {
		t.Helper()
		dtree := topo.GenDNSTree(topo.DNSTreeConfig{NumServers: 10, MaxDepth: 4, Seed: 2})
		clients := dtree.AttachClients(1)
		urls := dtree.PickURLs(3)
		nodes := append([]types.NodeAddr{}, dtree.Servers...)
		nodes = append(nodes, clients...)
		c, err := New(Config{Prog: apps.DNS(), Funcs: apps.Funcs(), Nodes: nodes, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.LoadBase(dtree.NameServerTuples(clients)); err != nil {
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
		if err := c.Quiesce(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		outs := c.Outputs(clients[0])
		if len(outs) != 1 {
			t.Fatalf("outputs = %v", outs)
		}
		res, err := c.Query(outs[0], types.HashTuple(ev), 10*time.Second)
		if err != nil || len(res.Trees) != 1 {
			t.Fatalf("query: %v (%d trees)", err, len(res.Trees))
		}
		return outs[0].String(), res.Trees[0].String()
	}
	wantOut, wantTree := run(nil)
	gotOut, gotTree := run(&FaultPlan{Seed: 11, Drop: 0.05})
	if gotOut != wantOut {
		t.Errorf("DNS output diverged under faults: got %s, want %s", gotOut, wantOut)
	}
	if gotTree != wantTree {
		t.Errorf("DNS tree diverged under faults:\ngot:\n%s\nwant:\n%s", gotTree, wantTree)
	}
}

// TestChaosKillRestartRecovers crashes a mid-chain node while traffic is
// addressed to it and revives it inside the senders' retry window: the
// redial/retry machinery must deliver the delayed frames after the
// restart, so no packet is lost and provenance stays queryable end-to-end.
func TestChaosKillRestartRecovers(t *testing.T) {
	g := topo.Line(4, "n")
	c, err := New(Config{
		Prog:  apps.Forwarding(),
		Funcs: apps.Funcs(),
		Nodes: g.Nodes(),
		// Budget sized so retries comfortably span the restart window.
		Transport: TransportConfig{RetryBudget: 12, BackoffMax: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	before := pkt("n0", "n0", "n3", "before")
	if err := c.Inject(before); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	mid := c.Node("n2")
	mid.Kill()
	if mid.Alive() {
		t.Fatal("killed node reports alive")
	}
	time.Sleep(20 * time.Millisecond) // let peers observe the closed sockets

	during := pkt("n0", "n0", "n3", "during")
	if err := c.Inject(during); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the n1->n2 transport is now redialing
	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	after := pkt("n0", "n0", "n3", "after")
	if err := c.Inject(after); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	outs := c.Outputs("n3")
	if len(outs) != 3 {
		t.Fatalf("outputs after restart = %v, want 3 packets", outs)
	}
	for _, ev := range []types.Tuple{before, during, after} {
		out := recvT("n3", "n0", "n3", ev.Args[3].AsString())
		res, err := c.Query(out, types.HashTuple(ev), 10*time.Second)
		if err != nil || len(res.Trees) != 1 {
			t.Fatalf("query %v after restart: %v (%d trees)", out, err, len(res.Trees))
		}
	}
	stats := c.TransportStats()
	if stats.Redials == 0 {
		t.Errorf("no redials recorded across a kill/restart: %+v", stats)
	}
	if stats.Drops > 0 {
		t.Errorf("frames were dropped despite the restart landing in the retry window: %+v", stats)
	}
}

// TestChaosKillNeverWedges is the fatal-crash property: when a node dies
// and never comes back, sends addressed to it exhaust their budget and
// are dropped with clean accounting — Quiesce returns promptly instead of
// wedging, surviving traffic is unaffected, and a query whose walk needs
// the dead node fails with a clean timeout instead of hanging.
func TestChaosKillNeverWedges(t *testing.T) {
	g := topo.Line(4, "n")
	c, err := New(Config{Prog: apps.Forwarding(), Funcs: apps.Funcs(), Nodes: g.Nodes()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	before := pkt("n0", "n0", "n3", "before")
	if err := c.Inject(before); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	c.Node("n2").Kill()
	time.Sleep(20 * time.Millisecond)

	lost := pkt("n0", "n0", "n3", "lost")
	if err := c.Inject(lost); err != nil {
		t.Fatal(err)
	}
	// Traffic that never touches the dead node keeps flowing.
	short := pkt("n0", "n0", "n1", "short")
	if err := c.Inject(short); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Quiesce(20 * time.Second); err != nil {
		t.Fatalf("quiesce wedged on a dead member: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("quiesce took %v; drops should settle fast", elapsed)
	}

	if outs := c.Outputs("n3"); len(outs) != 1 || !outs[0].Equal(recvT("n3", "n0", "n3", "before")) {
		t.Errorf("n3 outputs = %v, want only the pre-crash packet", outs)
	}
	if outs := c.Outputs("n1"); len(outs) != 1 {
		t.Errorf("n1 outputs = %v; traffic avoiding the dead node was lost", outs)
	}

	// The lost packet never produced an output, so its query is cleanly
	// empty; the pre-crash packet's walk needs the dead node, so its
	// query times out cleanly (bounded by the retry in Query).
	res, err := c.Query(recvT("n3", "n0", "n3", "lost"), types.HashTuple(lost), time.Second)
	if err != nil || len(res.Trees) != 0 {
		t.Errorf("query for lost packet: %v (%d trees), want clean empty result", err, len(res.Trees))
	}
	if _, err := c.Query(recvT("n3", "n0", "n3", "before"), types.HashTuple(before), 300*time.Millisecond); err == nil {
		t.Error("query whose walk crosses a dead node reported success")
	}

	stats := c.TransportStats()
	if stats.Drops == 0 {
		t.Errorf("no drops recorded for traffic into a dead node: %+v", stats)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("final quiesce wedged: %v", err)
	}
}

// TestQueryTimeoutLateResultCounted is the regression test for the
// pending-map race: a result frame arriving after Query gave up used to
// vanish silently; now it lands in the LateResults counter, and the
// pending map stays clean so later queries are unaffected.
func TestQueryTimeoutLateResultCounted(t *testing.T) {
	c, err := New(Config{
		Prog:  apps.Forwarding(),
		Funcs: apps.Funcs(),
		Nodes: []types.NodeAddr{"n1", "n2", "n3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadBase(topo.Fig2Routes()); err != nil {
		t.Fatal(err)
	}
	ev := pkt("n1", "n1", "n3", "data")
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	out := recvT("n3", "n1", "n3", "data")

	// A nanosecond budget expires before any result frame can cross the
	// wire: both attempts give up, and both walks complete afterwards.
	if _, err := c.Query(out, types.HashTuple(ev), time.Nanosecond); err == nil {
		t.Fatal("nanosecond query reported success")
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats := c.TransportStats()
	if stats.LateResults == 0 {
		t.Errorf("late result frames were not counted: %+v", stats)
	}
	if stats.QueryRetries == 0 {
		t.Errorf("query retry was not counted: %+v", stats)
	}

	// The pending map is clean: a patient query still succeeds.
	res, err := c.Query(out, types.HashTuple(ev), 10*time.Second)
	if err != nil || len(res.Trees) != 1 {
		t.Fatalf("follow-up query: %v (%d trees)", err, len(res.Trees))
	}
}

// TestQuiesceIdleReturnsFast checks the idle-notification path: an idle
// cluster settles in the settle window, not by burning the deadline.
func TestQuiesceIdleReturnsFast(t *testing.T) {
	c, err := New(Config{
		Prog:  apps.Forwarding(),
		Funcs: apps.Funcs(),
		Nodes: []types.NodeAddr{"n1", "n2", "n3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("idle quiesce took %v", elapsed)
	}
}

// TestRestartErrors covers the Restart misuse surface.
func TestRestartErrors(t *testing.T) {
	c, err := New(Config{
		Prog:  apps.Forwarding(),
		Funcs: apps.Funcs(),
		Nodes: []types.NodeAddr{"n1", "n2", "n3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Restart("ghost"); err == nil {
		t.Error("restart of unknown node accepted")
	}
	if err := c.Restart("n1"); err == nil {
		t.Error("restart of live node accepted")
	}
	c.Node("n1").Kill()
	c.Node("n1").Kill() // idempotent
	if err := c.Restart("n1"); err != nil {
		t.Errorf("restart of killed node: %v", err)
	}
}

// TestChaosUnsurvivablePlanFailsFast is the plan no frame survives: with
// every write dropped, the one injected packet's first hop exhausts its
// retry budget and is dropped with clean accounting. Quiesce settles well
// inside its deadline instead of wedging, nothing is output, the query for
// the lost packet is cleanly empty, and Close returns.
func TestChaosUnsurvivablePlanFailsFast(t *testing.T) {
	g := topo.Line(5, "n")
	c, err := New(Config{
		Prog:   apps.Forwarding(),
		Funcs:  apps.Funcs(),
		Nodes:  g.Nodes(),
		Faults: &FaultPlan{Seed: 1, Drop: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() // idempotent: a no-op once the Close below has run
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	ev := pkt("n0", "n0", "n4", "doomed")
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("quiesce wedged on an unsurvivable plan: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("quiesce took %v; a plan that drops everything should settle fast", elapsed)
	}
	counters := c.TransportStats().Counters()
	if counters.Get("drops") < 1 || counters.Get("fault-drops") < 1 {
		t.Errorf("drops = %d, fault-drops = %d; want both >= 1",
			counters.Get("drops"), counters.Get("fault-drops"))
	}
	if outs := c.AllOutputs(); len(outs) != 0 {
		t.Errorf("outputs = %v, want none", outs)
	}
	res, err := c.Query(recvT("n4", "n0", "n4", "doomed"), types.HashTuple(ev), time.Second)
	if err != nil || len(res.Trees) != 0 {
		t.Errorf("query for the lost packet: %v (%d trees), want a clean empty result", err, len(res.Trees))
	}

	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}
