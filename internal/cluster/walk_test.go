package cluster

import (
	"testing"
	"time"

	"provcompress/internal/core"
	"provcompress/internal/engine"
	"provcompress/internal/ndlog"
	"provcompress/internal/netsim"
	"provcompress/internal/scenario"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// projSrc projects away the event attribute Y, so different events derive
// the same output tuple: an unfiltered query returns several derivations
// and, under Advanced, anchors at prov rows of several event IDs.
const projSrc = `
r1 mid(@R, X)  :- ev(@L, X, Y), hop(@L, Y, R).
r2 out(@R, X)  :- mid(@R, X), sink(@R, X).
`

// twiceSrc derives one tuple twice from one derived event (two hop rows to
// the same R), so under ExSPAN the rule execution that derived e2 is
// reachable from the output through two paths.
const twiceSrc = `
r0 e2(@L, X)  :- ev(@L, X), s(@L).
r1 mid(@R, X) :- e2(@L, X), hop(@L, Y, R).
`

// walkWorkload is one deployment the query-walk tests run on both runtimes.
type walkWorkload struct {
	name   string
	prog   *ndlog.Program
	funcs  ndlog.FuncMap
	graph  *topo.Graph
	base   []types.Tuple
	events []types.Tuple
}

// walkWorkloads returns every registered scenario on five nodes with four
// events each, plus the two multi-derivation programs above.
func walkWorkloads(t *testing.T) []walkWorkload {
	t.Helper()
	var out []walkWorkload
	for _, name := range scenario.Names() {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		g := sc.Topology(5)
		w := walkWorkload{name: name, prog: sc.Prog(), funcs: sc.Funcs(), graph: g, base: sc.Base(g)}
		for seq := int64(0); seq < 4; seq++ {
			w.events = append(w.events, sc.Event(g, seq))
		}
		out = append(out, w)
	}
	str, num := types.String, types.Int
	hops := []types.Tuple{
		types.NewTuple("hop", str("n0"), num(1), str("n1")),
		types.NewTuple("hop", str("n0"), num(2), str("n1")),
	}
	for _, w := range []walkWorkload{
		{name: "proj", prog: mustParse(t, projSrc),
			base: append([]types.Tuple{types.NewTuple("sink", str("n1"), num(7))}, hops...),
			events: []types.Tuple{
				types.NewTuple("ev", str("n0"), num(7), num(1)),
				types.NewTuple("ev", str("n0"), num(7), num(2)),
			}},
		{name: "twice", prog: mustParse(t, twiceSrc),
			base:   append([]types.Tuple{types.NewTuple("s", str("n0"))}, hops...),
			events: []types.Tuple{types.NewTuple("ev", str("n0"), num(7))}},
	} {
		w.graph = topo.Line(2, "n")
		out = append(out, w)
	}
	return out
}

func walkWorkloadNamed(t *testing.T, name string) walkWorkload {
	t.Helper()
	for _, w := range walkWorkloads(t) {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no walk workload %q", name)
	return walkWorkload{}
}

func mustParse(t *testing.T, src string) *ndlog.Program {
	t.Helper()
	prog, err := ndlog.ParseDELP(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// reference runs the workload in the simulator under the Recorder, the
// uncompressed ground truth.
func (w walkWorkload) reference(t *testing.T) *core.Recorder {
	t.Helper()
	var sched sim.Scheduler
	rec := core.NewRecorder()
	rt := engine.NewRuntime(netsim.New(&sched, w.graph), w.prog, w.funcs, rec)
	if err := rt.LoadBase(w.base); err != nil {
		t.Fatal(err)
	}
	for i, ev := range w.events {
		rt.InjectAt(time.Duration(i)*time.Millisecond, ev)
	}
	rt.Run()
	if errs := rt.Errors(); len(errs) > 0 {
		t.Fatal(errs)
	}
	return rec
}

// boot starts a cluster under scheme and drives the events through it one
// at a time.
func (w walkWorkload) boot(t *testing.T, scheme string) *Cluster {
	t.Helper()
	c, err := New(Config{Prog: w.prog, Funcs: w.funcs, Nodes: w.graph.Nodes(), Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(w.base); err != nil {
		t.Fatal(err)
	}
	for _, ev := range w.events {
		if err := c.Inject(ev); err != nil {
			t.Fatal(err)
		}
		if err := c.Quiesce(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func sameTrees(got, want []*core.Tree) bool {
	if len(got) != len(want) {
		return false
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			found = found || g.Equal(w)
		}
		if !found {
			return false
		}
	}
	return true
}

// TestClusterQueryMatchesSimulation holds the two drivers of core.Walk
// together: for every scheme and every workload, each derivation the
// Recorder stored must come back over the real wire exactly — asked for by
// its event and within the unfiltered answer.
func TestClusterQueryMatchesSimulation(t *testing.T) {
	for _, scheme := range core.AllSchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			for _, w := range walkWorkloads(t) {
				t.Run(w.name, func(t *testing.T) {
					rec := w.reference(t)
					if len(rec.Trees()) == 0 {
						t.Fatal("reference run stored no trees")
					}
					c := w.boot(t, scheme)
					for _, tree := range rec.Trees() {
						for _, evid := range []types.ID{tree.EvID(), types.ZeroID} {
							res, err := c.Query(tree.Output, evid, 5*time.Second)
							if err != nil {
								t.Fatal(err)
							}
							want := rec.TreesFor(types.HashTuple(tree.Output), evid)
							if !sameTrees(res.Trees, want) {
								t.Errorf("query %v evid %v: cluster trees differ from simulation:\ngot  %v\nwant %v",
									tree.Output, evid, res.Trees, want)
							}
							if res.Latency <= 0 || res.Hops == 0 {
								t.Errorf("latency = %v, hops = %d", res.Latency, res.Hops)
							}
						}
					}
					if c.TotalStorageBytes() <= 0 {
						t.Error("no provenance stored")
					}
				})
			}
		})
	}
}

// runWalk issues one walk the way tryQuery does and returns the completed
// frame instead of the reconstructed answer.
func runWalk(t *testing.T, c *Cluster, out types.Tuple, evid types.ID) *walkFrame {
	t.Helper()
	q := c.Node(out.Loc())
	qid := c.nextQID.Add(1)
	ch := make(chan *walkFrame, 1)
	q.pendMu.Lock()
	q.pending[qid] = ch
	q.pendMu.Unlock()
	q.self.mu.Lock()
	f := &walkFrame{QID: qid, Querier: q.addr, Walk: core.StartWalk(q.self.state, out, evid)}
	q.self.mu.Unlock()
	q.handleWalk(f)
	select {
	case res := <-ch:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("walk did not return")
		return nil
	}
}

// TestWalkVisitsSharedRuleExecOnce pins the visit-once rule on the cluster
// driver: under ExSPAN the twice program's output reaches the execution that
// derived e2 through both of its own derivations, and the walk must collect
// that execution (and walk its subtree) once, not once per path.
func TestWalkVisitsSharedRuleExecOnce(t *testing.T) {
	w := walkWorkloadNamed(t, "twice")
	rec := w.reference(t)
	c := w.boot(t, core.SchemeExSPAN)
	out := types.NewTuple("mid", types.String("n1"), types.Int(7))

	res := runWalk(t, c, out, types.ZeroID)
	if len(res.RootProvs) != 2 {
		t.Fatalf("root prov rows = %d, want 2 (mid derived twice)", len(res.RootProvs))
	}
	seen := make(map[core.Ref]bool)
	for _, ce := range res.Entries {
		ref := core.Ref{Loc: ce.Entry.Loc, RID: ce.Entry.RID}
		if seen[ref] {
			t.Errorf("entry %v collected more than once", ref)
		}
		seen[ref] = true
	}
	if len(seen) != 3 {
		t.Errorf("distinct entries = %d, want 3 (two r1 executions, one r0)", len(seen))
	}
	q := c.Node("n1")
	trees := res.Trees(q.self.state, c.prog, c.funcs)
	if want := rec.TreesFor(types.HashTuple(out), types.ZeroID); !sameTrees(trees, want) {
		t.Errorf("trees differ from simulation:\ngot  %v\nwant %v", trees, want)
	}
}
