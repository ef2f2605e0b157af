package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/core"
	"provcompress/internal/store"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// durableCluster boots a 4-node forwarding chain that persists under dir.
func durableCluster(t *testing.T, dir string, opts store.Options) *Cluster {
	t.Helper()
	g := topo.Line(4, "n")
	c, err := New(Config{
		Prog:       apps.Forwarding(),
		Funcs:      apps.Funcs(),
		Nodes:      g.Nodes(),
		DataDir:    dir,
		Durability: opts,
		Transport:  TransportConfig{RetryBudget: 12, BackoffMax: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	return c
}

// clusterOutcome captures everything a recovery must reproduce: the sorted
// output set, the provenance tree of every event, and the per-node storage
// accounting.
func clusterOutcome(t *testing.T, c *Cluster, evs []types.Tuple) (outputs []string, trees map[string]string) {
	t.Helper()
	for _, out := range c.AllOutputs() {
		outputs = append(outputs, out.String())
	}
	sort.Strings(outputs)
	trees = make(map[string]string, len(evs))
	for _, ev := range evs {
		out := recvT(ev.Args[2].AsString(), ev.Args[1].AsString(), ev.Args[2].AsString(), ev.Args[3].AsString())
		res, err := c.Query(out, types.HashTuple(ev), 10*time.Second)
		if err != nil {
			t.Fatalf("query %v: %v", out, err)
		}
		if len(res.Trees) != 1 {
			t.Fatalf("query %v: %d trees", out, len(res.Trees))
		}
		trees[ev.String()] = res.Trees[0].String()
	}
	return outputs, trees
}

func durableTestEvents(n int) []types.Tuple {
	evs := make([]types.Tuple, 0, n)
	for i := 0; i < n; i++ {
		dst := "n3"
		if i%3 == 2 {
			dst = "n2"
		}
		evs = append(evs, pkt("n0", "n0", dst, fmt.Sprintf("dur-p%d", i)))
	}
	return evs
}

// TestChaosDurableKillRestartReplaysWAL is the headline durability
// property: a killed node's RAM state is discarded on Restart
// (recoverForRestart builds a fresh state machine), so if outputs and
// provenance trees match the pre-crash run, they were reconstructed from
// the snapshot + WAL on disk — not carried over in memory.
func TestChaosDurableKillRestartReplaysWAL(t *testing.T) {
	// SnapshotEvery 0: no automatic checkpoints, recovery is pure WAL
	// replay.
	c := durableCluster(t, t.TempDir(), store.Options{Fsync: store.SyncAlways})
	defer c.Close()

	evs := durableTestEvents(9)
	for _, ev := range evs {
		if err := c.Inject(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantOut, wantTrees := clusterOutcome(t, c, evs)
	wantBytes := c.StorageBytes("n2")
	if wantBytes <= 0 {
		t.Fatalf("mid-chain node reports %d provenance bytes before the crash", wantBytes)
	}

	c.Node("n2").Kill()
	time.Sleep(20 * time.Millisecond)
	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	ds := c.DurabilityStats()
	if !ds.Enabled {
		t.Fatal("durability not enabled despite DataDir")
	}
	if ds.ReplayedRecords == 0 {
		t.Errorf("restart replayed no WAL records: %+v", ds)
	}
	if ds.RecoveredNodes == 0 {
		t.Errorf("no member reports a recovery: %+v", ds)
	}
	if ds.TornRecords != 0 {
		t.Errorf("clean kill after quiesce produced torn records: %+v", ds)
	}

	gotOut, gotTrees := clusterOutcome(t, c, evs)
	if strings.Join(gotOut, "\n") != strings.Join(wantOut, "\n") {
		t.Errorf("outputs diverged across crash recovery:\ngot:\n%s\nwant:\n%s",
			strings.Join(gotOut, "\n"), strings.Join(wantOut, "\n"))
	}
	for ev, want := range wantTrees {
		if gotTrees[ev] != want {
			t.Errorf("tree for %s diverged across crash recovery:\ngot:\n%s\nwant:\n%s",
				ev, gotTrees[ev], want)
		}
	}
	if got := c.StorageBytes("n2"); got != wantBytes {
		t.Errorf("storage accounting diverged across recovery: want %d, got %d", wantBytes, got)
	}

	// New traffic flows through the recovered node.
	extra := pkt("n0", "n0", "n3", "post-recovery")
	if err := c.Inject(extra); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(recvT("n3", "n0", "n3", "post-recovery"), types.HashTuple(extra), 10*time.Second)
	if err != nil || len(res.Trees) != 1 {
		t.Fatalf("post-recovery query: %v (%d trees)", err, len(res.Trees))
	}
}

// TestChaosDurableSnapshotPlusTail: with a small checkpoint threshold the
// recovery path is snapshot restore plus a short WAL tail, and the result
// is indistinguishable from the replay-everything path.
func TestChaosDurableSnapshotPlusTail(t *testing.T) {
	c := durableCluster(t, t.TempDir(), store.Options{Fsync: store.SyncAlways, SnapshotEvery: 4})
	defer c.Close()

	evs := durableTestEvents(9)
	for _, ev := range evs {
		if err := c.Inject(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ds := c.DurabilityStats(); ds.Snapshots == 0 {
		t.Fatalf("no checkpoints fired with SnapshotEvery=4 over %d events: %+v", len(evs), ds)
	}
	wantOut, wantTrees := clusterOutcome(t, c, evs)

	c.Node("n2").Kill()
	time.Sleep(20 * time.Millisecond)
	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	if ds := c.DurabilityStats(); ds.RecoveredNodes == 0 {
		t.Errorf("no member reports a recovery: %+v", ds)
	}
	gotOut, gotTrees := clusterOutcome(t, c, evs)
	if strings.Join(gotOut, "\n") != strings.Join(wantOut, "\n") {
		t.Errorf("outputs diverged across snapshot recovery:\ngot:\n%s\nwant:\n%s",
			strings.Join(gotOut, "\n"), strings.Join(wantOut, "\n"))
	}
	for ev, want := range wantTrees {
		if gotTrees[ev] != want {
			t.Errorf("tree for %s diverged across snapshot recovery:\ngot:\n%s\nwant:\n%s",
				ev, gotTrees[ev], want)
		}
	}
}

// TestChaosDurableRollingRestart kills and recovers every member in turn —
// after the full roll, no byte of provenance state survives from the
// original boot, yet every query still answers with the original tree.
func TestChaosDurableRollingRestart(t *testing.T) {
	c := durableCluster(t, t.TempDir(), store.Options{Fsync: store.SyncAlways, SnapshotEvery: 6})
	defer c.Close()

	evs := durableTestEvents(6)
	for _, ev := range evs {
		if err := c.Inject(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantOut, wantTrees := clusterOutcome(t, c, evs)
	wantTotal := c.TotalStorageBytes()

	for _, addr := range []types.NodeAddr{"n0", "n1", "n2", "n3"} {
		c.Node(addr).Kill()
		time.Sleep(20 * time.Millisecond)
		if err := c.Restart(addr); err != nil {
			t.Fatalf("restart %s: %v", addr, err)
		}
		if err := c.Quiesce(30 * time.Second); err != nil {
			t.Fatalf("quiesce after restarting %s: %v", addr, err)
		}
	}

	ds := c.DurabilityStats()
	if ds.RecoveredNodes != 4 {
		t.Errorf("RecoveredNodes = %d after a full roll, want 4: %+v", ds.RecoveredNodes, ds)
	}
	gotOut, gotTrees := clusterOutcome(t, c, evs)
	if strings.Join(gotOut, "\n") != strings.Join(wantOut, "\n") {
		t.Errorf("outputs diverged across rolling restart:\ngot:\n%s\nwant:\n%s",
			strings.Join(gotOut, "\n"), strings.Join(wantOut, "\n"))
	}
	for ev, want := range wantTrees {
		if gotTrees[ev] != want {
			t.Errorf("tree for %s diverged across rolling restart:\ngot:\n%s\nwant:\n%s",
				ev, gotTrees[ev], want)
		}
	}
	if got := c.TotalStorageBytes(); got != wantTotal {
		t.Errorf("total storage accounting diverged across rolling restart: want %d, got %d", wantTotal, got)
	}
}

// TestChaosDurableKillMidTraffic kills a node while frames addressed to it
// are in flight (crash-mid-write from the node's perspective), restarts it,
// and requires the combination of disk recovery and transport retries to
// deliver every packet with correct provenance.
func TestChaosDurableKillMidTraffic(t *testing.T) {
	c := durableCluster(t, t.TempDir(), store.Options{Fsync: store.SyncAlways, SnapshotEvery: 5})
	defer c.Close()

	before := pkt("n0", "n0", "n3", "before")
	if err := c.Inject(before); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	c.Node("n2").Kill()
	time.Sleep(20 * time.Millisecond)

	// Injected while n2 is down: n0/n1 process and ship; the n1->n2 leg
	// retries until the restart lands.
	during := pkt("n0", "n0", "n3", "during")
	if err := c.Inject(during); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
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

	if outs := c.Outputs("n3"); len(outs) != 3 {
		t.Fatalf("outputs after mid-traffic crash = %v, want 3 packets", outs)
	}
	for _, ev := range []types.Tuple{before, during, after} {
		out := recvT("n3", "n0", "n3", ev.Args[3].AsString())
		res, err := c.Query(out, types.HashTuple(ev), 10*time.Second)
		if err != nil || len(res.Trees) != 1 {
			t.Fatalf("query %v after mid-traffic crash: %v (%d trees)", out, err, len(res.Trees))
		}
	}
	ds := c.DurabilityStats()
	if ds.RecoveredNodes == 0 {
		t.Errorf("no member reports a recovery: %+v", ds)
	}
	if stats := c.TransportStats(); stats.Drops > 0 {
		t.Errorf("frames lost despite restart landing in the retry window: %+v", stats)
	}
}

// TestRestartDiscardsUnloggedState: a restart rebuilds the node from its
// snapshot and WAL alone. A database row and a provenance row planted in
// memory without a log record are gone afterwards, and what the log does
// hold comes back exactly: the same trees and the same storage bytes.
func TestRestartDiscardsUnloggedState(t *testing.T) {
	c := durableCluster(t, t.TempDir(), store.Options{Fsync: store.SyncAlways, SnapshotEvery: 4})
	defer c.Close()

	evs := durableTestEvents(9)
	for _, ev := range evs {
		if err := c.Inject(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantOut, wantTrees := clusterOutcome(t, c, evs)
	wantBytes := c.StorageBytes("n2")

	n2 := c.Node("n2")
	row := types.NewTuple("route", types.String("n2"), types.String("n9"), types.String("n3"))
	out := recvT("n2", "n9", "n2", "planted")
	n2.self.db.Insert(row)
	n2.self.mu.Lock()
	n2.self.state.Output(out, core.AdvMeta{
		Eq:   types.HashBytes([]byte("planted class")),
		EvID: types.HashBytes([]byte("planted event")),
		Prev: core.Ref{Loc: "n2", RID: types.HashBytes([]byte("planted exec"))},
	})
	n2.self.mu.Unlock()
	if c.StorageBytes("n2") == wantBytes {
		t.Fatal("the planted provenance row added no storage")
	}

	n2.Kill()
	time.Sleep(20 * time.Millisecond)
	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	if n2.self.db.Contains(row) {
		t.Error("an unlogged database row survived the restart")
	}
	n2.self.mu.Lock()
	provs := n2.self.state.ProvRows(types.HashTuple(out), types.ZeroID)
	n2.self.mu.Unlock()
	if len(provs) != 0 {
		t.Errorf("an unlogged provenance row survived the restart: %v", provs)
	}
	if got := c.StorageBytes("n2"); got != wantBytes {
		t.Errorf("storage after restart = %d, want the unplanted run's %d", got, wantBytes)
	}
	gotOut, gotTrees := clusterOutcome(t, c, evs)
	if strings.Join(gotOut, "\n") != strings.Join(wantOut, "\n") {
		t.Errorf("outputs diverged across restart:\ngot:\n%s\nwant:\n%s",
			strings.Join(gotOut, "\n"), strings.Join(wantOut, "\n"))
	}
	for ev, want := range wantTrees {
		if gotTrees[ev] != want {
			t.Errorf("tree for %s diverged across restart:\ngot:\n%s\nwant:\n%s", ev, gotTrees[ev], want)
		}
	}
}

// TestGraveyardCapFollowsConfigAcrossReboot: the graveyard cap is
// configuration, not state. A cluster rebooted with a cap over a snapshot
// written without one bounds its graveyard by the configured cap.
func TestGraveyardCapFollowsConfigAcrossReboot(t *testing.T) {
	dir := t.TempDir()
	boot := func(graveyardCap int) *Cluster {
		c, err := New(Config{
			Prog:         apps.Forwarding(),
			Funcs:        apps.Funcs(),
			Nodes:        topo.Line(4, "n").Nodes(),
			GraveyardCap: graveyardCap,
			DataDir:      dir,
			Durability:   store.Options{Fsync: store.SyncAlways},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	churn := func(c *Cluster, from int) {
		for i := from; i < from+6; i++ {
			slow := types.NewTuple("route", types.String("n1"), types.String(fmt.Sprintf("x%d", i)), types.String("n2"))
			if err := c.InsertSlow(slow); err != nil {
				t.Fatal(err)
			}
			if err := c.DeleteSlow(slow); err != nil {
				t.Fatal(err)
			}
		}
	}

	c := boot(0)
	churn(c, 0)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c = boot(2)
	defer c.Close()
	churn(c, 6)
	if got := c.GraveyardSize(); got > 2 {
		t.Errorf("graveyard holds %d tuples after a reboot with GraveyardCap 2", got)
	}
}
