package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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

// rolesHistory is the one history every role of the partition step is
// given: Fig. 2 forwarding, a second arrival of the same output (the event
// injected twice), a packet of another class that n1 delivers to itself,
// a slow insert — a sig — between two events of the first class, and a
// slow delete. The sig clears the second class from n1's equivalence
// table for good, so a copy that missed it lists one entry more. The slow
// tuple lives at n1, which never leaves.
func rolesHistory(t testing.TB, c *Cluster) {
	t.Helper()
	slow := types.NewTuple("route", types.String("n1"), types.String("n9"), types.String("n2"))
	steps := []func() error{
		func() error { return c.Inject(pkt("n1", "n1", "n3", "a")) },
		func() error { return c.Inject(pkt("n1", "n1", "n3", "a")) },
		func() error { return c.Inject(pkt("n1", "n1", "n1", "c")) },
		func() error { return c.InsertSlow(slow) },
		func() error { return c.Inject(pkt("n1", "n1", "n3", "b")) },
		func() error { return c.DeleteSlow(slow) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("history step %d: %v", i, err)
		}
		if err := c.Quiesce(10 * time.Second); err != nil {
			t.Fatalf("history step %d: %v", i, err)
		}
	}
}

// rolesCluster boots Fig. 2 for the role table; an empty dir is volatile,
// and load is false for a durable re-open that must recover its routes.
func rolesCluster(t testing.TB, scheme, dir string, replicas int, load bool) *Cluster {
	t.Helper()
	c, err := New(Config{
		Prog:      apps.Forwarding(),
		Funcs:     apps.Funcs(),
		Nodes:     []types.NodeAddr{"n1", "n2", "n3"},
		Scheme:    scheme,
		DataDir:   dir,
		Replicas:  replicas,
		Transport: TransportConfig{RetryBudget: 3, BackoffMax: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if load {
		if err := c.LoadBase(topo.Fig2Routes()); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// decodedSnapshot loads a snapshot payload into an empty partition — the
// one decoder — and lists what it holds in a canonical order: the database
// rows and graveyard, the output rows as Cluster.Outputs reads them, and
// the scheme tables as every read the query protocol can make of them (the
// storage accounting, the prov rows of every stored tuple, and every rule
// execution reachable from those at this owner), and the equivalence table
// the next event's Stage 1 reads, so a copy that missed a sig reset
// differs.
func decodedSnapshot(t *testing.T, c *Cluster, owner types.NodeAddr, snap []byte) []string {
	t.Helper()
	p, err := c.newPartition(owner)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.load(snap, c.names); err != nil {
		t.Fatalf("decode snapshot of %s: %v", owner, err)
	}
	sorted := func(prefix string, items []string) []string {
		sort.Strings(items)
		for i := range items {
			items[i] = prefix + " " + items[i]
		}
		return items
	}
	var rows, outs, grave, provs, execs, equi []string
	var work []core.Ref
	for rel := range c.arities {
		for _, tup := range p.db.Scan(rel) {
			rows = append(rows, tup.String())
			for _, pr := range p.state.ProvRows(types.HashTuple(tup), types.ZeroID) {
				provs = append(provs, fmt.Sprintf("%v", pr))
				work = append(work, pr.Ref)
			}
		}
	}
	for _, vid := range p.db.GraveyardVIDs() {
		grave = append(grave, vid.String())
	}
	for _, tup := range p.outputs(c.outputRels) {
		outs = append(outs, tup.String())
	}
	seen := make(map[core.Ref]bool)
	for len(work) > 0 {
		ref := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[ref] || ref.Loc != owner {
			continue
		}
		seen[ref] = true
		ce, vids, prs, nexts, ok := p.state.Collect(ref)
		execs = append(execs, fmt.Sprintf("%v: %v %v %v %v %v", ref, ce, vids, prs, nexts, ok))
		work = append(work, nexts...)
	}
	for _, h := range p.state.EquiKeys() {
		equi = append(equi, h.String())
	}
	lines := []string{fmt.Sprintf("storage %d", p.state.StorageBytes())}
	for _, part := range [][]string{sorted("row", rows), sorted("grave", grave), sorted("output", outs), sorted("prov", provs), sorted("exec", execs), sorted("htequi", equi)} {
		lines = append(lines, part...)
	}
	return lines
}

// rolesTrees answers, for both outputs of the history, the derivation of
// each event and the all-derivations query.
func rolesTrees(t *testing.T, c *Cluster) []string {
	t.Helper()
	var lines []string
	for _, dt := range []string{"a", "b"} {
		out := recvT("n3", "n1", "n3", dt)
		for _, evid := range []types.ID{types.HashTuple(pkt("n1", "n1", "n3", dt)), types.ZeroID} {
			res, err := c.QueryContext(context.Background(), out, evid, 10*time.Second)
			if err != nil {
				t.Fatalf("query %v: %v", out, err)
			}
			var trees []string
			for _, tr := range res.Trees {
				trees = append(trees, tr.String())
			}
			sort.Strings(trees)
			lines = append(lines, fmt.Sprintf("%v evid %v: %d trees\n%s", out, evid, len(trees), strings.Join(trees, "\n")))
		}
	}
	return lines
}

func sameLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s differs from the live owner's:\n--- got\n%s\n--- want\n%s", what, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestPartitionRolesAgree gives one history to every role a partition can
// be held in and requires them to agree: the owner applying it live, the
// owner's WAL replayed into a rebooted node, and the replication stream
// applied into a shadow must decode to equal snapshots and answer queries
// with equal trees; a host acting for an owner that Left must ship the
// heads the owner would have, so the outputs and trees downstream of it
// are the live cluster's too; and a volatile owner must hold what a
// durable one does and replicate it to shadows equal to it.
func TestPartitionRolesAgree(t *testing.T) {
	members := []types.NodeAddr{"n1", "n2", "n3"}
	for _, scheme := range core.AllSchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			dir := t.TempDir()

			// (a) live at the owner, (c) through the replication stream: a
			// durable cluster where every member shadows the other two.
			live := rolesCluster(t, scheme, dir, 2, true)
			rolesHistory(t, live)
			owner := make(map[types.NodeAddr][]string)
			for _, addr := range members {
				owner[addr] = decodedSnapshot(t, live, addr, live.node(addr).self.snapshot())
				for _, at := range members {
					if at == addr {
						continue
					}
					shadow := live.node(at).partitionFor(addr, false)
					if shadow == nil {
						t.Fatalf("%s holds no shadow of %s", at, addr)
					}
					sameLines(t, fmt.Sprintf("shadow of %s at %s", addr, at), decodedSnapshot(t, live, addr, shadow.snapshot()), owner[addr])
				}
			}
			liveOutputs := decodedOutputs(live)
			liveTrees := rolesTrees(t, live)
			// With the outputs' owner dead the same queries anchor in, and
			// walk, a shadow.
			live.node("n3").Kill()
			sameLines(t, "trees served from n3's shadow", rolesTrees(t, live), liveTrees)
			if live.MembershipStats().Failovers == 0 {
				t.Error("queries at a dead owner counted no failover")
			}
			live.Close()

			// (b) the WAL the owners wrote, replayed into rebooted nodes.
			// No replication, so nothing but the log rebuilds them.
			rebooted := rolesCluster(t, scheme, dir, 0, false)
			if ds := rebooted.DurabilityStats(); ds.ReplayedRecords == 0 {
				t.Fatalf("reboot replayed nothing: %+v", ds)
			}
			for _, addr := range members {
				sameLines(t, "replayed "+string(addr), decodedSnapshot(t, rebooted, addr, rebooted.node(addr).self.snapshot()), owner[addr])
			}
			sameLines(t, "trees after replay", rolesTrees(t, rebooted), liveTrees)

			// (d) a host acting for n2 after it Left.
			hosted := rolesCluster(t, scheme, "", 1, true)
			if err := hosted.Leave("n2"); err != nil {
				t.Fatal(err)
			}
			rolesHistory(t, hosted)
			host := hosted.node(hosted.OwnerOf("n2"))
			if host == nil || host.partitionFor("n2", false) == nil {
				t.Fatalf("no member hosts n2's partition (owner %q)", hosted.OwnerOf("n2"))
			}
			sameLines(t, "n2's partition at its host", decodedSnapshot(t, hosted, "n2", host.partitionFor("n2", false).snapshot()), owner["n2"])
			sameLines(t, "outputs downstream of the host", decodedOutputs(hosted), liveOutputs)
			sameLines(t, "trees through the host", rolesTrees(t, hosted), liveTrees)

			// (e) the replication stream of volatile owners: no log, the
			// same records.
			volatile := rolesCluster(t, scheme, "", 2, true)
			rolesHistory(t, volatile)
			for _, addr := range members {
				got := decodedSnapshot(t, volatile, addr, volatile.node(addr).self.snapshot())
				sameLines(t, "volatile "+string(addr), got, owner[addr])
				for _, at := range members {
					if at == addr {
						continue
					}
					shadow := volatile.node(at).partitionFor(addr, false)
					if shadow == nil {
						t.Fatalf("volatile %s holds no shadow of %s", at, addr)
					}
					sameLines(t, fmt.Sprintf("volatile shadow of %s at %s", addr, at), decodedSnapshot(t, volatile, addr, shadow.snapshot()), got)
				}
			}
		})
	}
}

// TestSchemeStoresWhatItsWalkReads runs the role history under each
// scheme and checks the database holds exactly the tuples the scheme's walk
// resolves: an event that is neither injected at a node nor an output there
// is stored only under ExSPAN, whose ruleExec rows name every hop's event;
// every input event resolves by VID at its origin; and every output answers
// with the trees ExSPAN answers.
func TestSchemeStoresWhatItsWalkReads(t *testing.T) {
	members := []types.NodeAddr{"n1", "n2", "n3"}
	injected := []types.Tuple{pkt("n1", "n1", "n3", "a"), pkt("n1", "n1", "n1", "c"), pkt("n1", "n1", "n3", "b")}
	events := make(map[string]bool)
	for _, r := range apps.Forwarding().Rules {
		events[r.Event.Rel] = true
	}
	var exspanTrees []string
	var exspanTuples int
	// ExSPAN runs first: it is the reference the others are held to.
	for _, scheme := range core.AllSchemeNames() {
		c := rolesCluster(t, scheme, "", 0, true)
		rolesHistory(t, c)
		intermediate := 0
		for _, addr := range members {
			db := c.node(addr).self.db
			for rel := range events {
				for _, tup := range db.Scan(rel) {
					fresh := false
					for _, ev := range injected {
						fresh = fresh || tup.Equal(ev)
					}
					if !fresh {
						intermediate++
					}
				}
			}
		}
		keeps := scheme == core.SchemeExSPAN
		if keeps && intermediate == 0 || !keeps && intermediate != 0 {
			t.Errorf("%s: %d intermediate event rows stored; want them only under ExSPAN", scheme, intermediate)
		}
		for _, ev := range injected {
			if _, ok := c.node(ev.Loc()).self.db.LookupVID(types.HashTuple(ev)); !ok {
				t.Errorf("%s: input event %v does not resolve at its origin", scheme, ev)
			}
		}
		trees := rolesTrees(t, c)
		for _, l := range trees {
			if strings.Contains(l, ": 0 trees") {
				t.Errorf("%s: an output answers no tree:\n%s", scheme, l)
			}
		}
		if keeps {
			exspanTrees, exspanTuples = trees, c.DatabaseTuples()
			continue
		}
		if got, want := strings.Join(trees, "\n"), strings.Join(exspanTrees, "\n"); got != want {
			t.Errorf("%s: trees differ from ExSPAN's:\n--- got\n%s\n--- want\n%s", scheme, got, want)
		}
		if n := c.DatabaseTuples(); n >= exspanTuples {
			t.Errorf("%s: %d database tuples, ExSPAN %d; want fewer", scheme, n, exspanTuples)
		}
	}
}

// decodedOutputs is the public view of every member's outputs, as a
// sorted multiset.
func decodedOutputs(c *Cluster) []string {
	var outs []string
	for _, tup := range c.AllOutputs() {
		outs = append(outs, tup.String())
	}
	sort.Strings(outs)
	return outs
}

// TestWALLogsWhatReplayReads runs the role history on a durable cluster
// with two replicas and counts the changes each owner logged, decoding its
// log's batches, so the counts hold however a write grouped them. n1 logs
// the route LoadBase put there, the four injected events, the output of
// the one it delivers to itself, the slow insert and the slow delete; n2
// its route and the packet of each event that passes through; n3 each
// event's packet and each output. Only the Advanced schemes keep htequi,
// so only they broadcast the insert's sig, and every member logs it. Under
// them the second "a" joins a class that already exists, so its packets
// at n2 and n3 store nothing and are not logged; ExSPAN and Basic store a
// row for every firing and log every frame. Every record reaches both
// replicas, and a volatile owner ships the records a durable one logs.
// A log that still holds such a frame — a build that logged every one
// would write it — replays it as a no-op.
func TestWALLogsWhatReplayReads(t *testing.T) {
	members := []types.NodeAddr{"n1", "n2", "n3"}
	for _, tc := range []struct {
		scheme string
		want   map[types.NodeAddr]int
	}{
		{core.SchemeExSPAN, map[types.NodeAddr]int{"n1": 8, "n2": 4, "n3": 6}},
		{core.SchemeBasic, map[types.NodeAddr]int{"n1": 8, "n2": 4, "n3": 6}},
		{core.SchemeAdvanced, map[types.NodeAddr]int{"n1": 9, "n2": 4, "n3": 6}},
		{core.SchemeAdvancedInterClass, map[types.NodeAddr]int{"n1": 9, "n2": 4, "n3": 6}},
	} {
		scheme, want := tc.scheme, tc.want
		t.Run(scheme, func(t *testing.T) {
			dir := t.TempDir()
			c := rolesCluster(t, scheme, dir, 2, true)
			rolesHistory(t, c)
			var logged int64
			records := make(map[types.NodeAddr]int64)
			for _, addr := range members {
				n := c.node(addr)
				n.durMu.Lock()
				wal := n.dstore.Stats().WALRecords
				n.durMu.Unlock()
				logged += wal
				records[addr] = wal
				if got := loggedChanges(t, c, addr); got != want[addr] {
					t.Errorf("%s logged %d changes in %d records, want %d changes", addr, got, wal, want[addr])
				}
				if repl := n.replRecords.Load(); repl != 2*wal {
					t.Errorf("%s shipped %d records to its 2 replicas, logged %d", addr, repl, wal)
				}
			}
			volatile := rolesCluster(t, scheme, "", 2, true)
			rolesHistory(t, volatile)
			for _, addr := range members {
				if repl := volatile.node(addr).replRecords.Load(); repl != 2*records[addr] {
					t.Errorf("volatile %s shipped %d records to its 2 replicas, its durable twin logged %d", addr, repl, records[addr])
				}
			}
			if scheme != core.SchemeAdvanced {
				return
			}
			// A record no owner writes: the second "a"'s packet at n2,
			// whose class already exists.
			n2 := c.node("n2")
			before := decodedSnapshot(t, c, "n2", n2.self.snapshot())
			meta := core.NewAdvancedState(c.keys).Inject(pkt("n1", "n1", "n3", "a"))
			meta.Exist = true
			var rec walBatch
			rec.event(&tupleFrame{Tuple: pkt("n2", "n1", "n3", "a"), Meta: meta})
			n2.durMu.Lock()
			n2.logApply(rec.bytes())
			n2.durMu.Unlock()
			c.Close()
			rebooted := rolesCluster(t, scheme, dir, 0, false)
			if got := rebooted.DurabilityStats().ReplayedRecords; got != logged+1 {
				t.Errorf("reboot replayed %d records, want %d", got, logged+1)
			}
			sameLines(t, "n2 after replaying a no-op record", decodedSnapshot(t, rebooted, "n2", rebooted.node("n2").self.snapshot()), before)
		})
	}
}

// loggedChanges counts the changes in addr's log, decoding each record's
// batch. It reads a copy of the member's directory, so the live store is
// left as it is.
func loggedChanges(t *testing.T, c *Cluster, addr types.NodeAddr) int {
	t.Helper()
	src, dst := c.nodeDataDir(addr), t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	changes := 0
	ns, err := store.Open(dst, store.Options{Fsync: store.SyncOff}, nil, func(rec []byte) error {
		ch, err := decodeRecord(nil, rec, c.names)
		changes += len(ch)
		return err
	})
	if err != nil {
		t.Fatalf("read %s's log: %v", addr, err)
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	return changes
}
