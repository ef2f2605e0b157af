package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"provcompress/internal/analysis"
	"provcompress/internal/apps"
	"provcompress/internal/engine"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
	"provcompress/internal/workload"
)

// transitRuntime builds the full 100-node evaluation topology.
func transitRuntime(t *testing.T, maint engine.Maintainer) (*engine.Runtime, *topo.TransitStub) {
	t.Helper()
	ts := topo.GenTransitStub(topo.DefaultTransitStub())
	var sched sim.Scheduler
	net := netsim.New(&sched, ts.Graph)
	rt := engine.NewRuntime(net, apps.Forwarding(), apps.Funcs(), maint)
	if err := rt.LoadBase(ts.Graph.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	return rt, ts
}

// TestTransitStubSoakLossless runs a substantial randomized workload on
// the evaluation topology and verifies every output's provenance under
// Advanced against the reference recorder.
func TestTransitStubSoakLossless(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	ts := topo.GenTransitStub(topo.DefaultTransitStub())
	pairs := workload.ChoosePairs(ts.Stubs, 15, 3)
	var evs []types.Tuple
	for i, p := range pairs {
		for k := 0; k < 8; k++ {
			evs = append(evs, workload.PacketEvent(p, int64(i*100+k), 64))
		}
	}

	rec := NewRecorder()
	rrt, _ := transitRuntime(t, rec)
	injectSpaced(rrt, evs...)
	rrt.Run()
	checkNoErrors(t, rrt)
	if len(rec.Trees()) != len(evs) {
		t.Fatalf("reference trees = %d, want %d", len(rec.Trees()), len(evs))
	}

	a := mustScheme(SchemeAdvanced)
	rt, _ := transitRuntime(t, a)
	injectSpaced(rt, evs...)
	rt.Run()
	checkNoErrors(t, rt)

	// Compression: rule-exec rows bounded by classes * path length, far
	// below the event count * path length.
	var rows int
	for _, n := range rt.Net.Graph().Nodes() {
		rows += len(a.RuleExecRows(n))
	}
	if rows >= len(evs)*4 {
		t.Errorf("ruleExec rows = %d for %d events: compression ineffective", rows, len(evs))
	}

	for i, want := range rec.Trees() {
		res := runQuery(t, rt, a, want.Output, want.EvID())
		if len(res.Trees) != 1 || !res.Trees[0].Equal(want) {
			t.Fatalf("soak query %d (%v): %d trees", i, want.Output, len(res.Trees))
		}
	}
}

// TestTheorem1Quick drives Theorem 1 with testing/quick: arbitrary pairs
// of events on a fixed line topology — if their equivalence keys agree,
// their trees are equivalent.
func TestTheorem1Quick(t *testing.T) {
	const nodes = 6
	keys := analysis.EquivalenceKeys(apps.Forwarding())

	gen := func(vals []reflect.Value, r *rand.Rand) {
		for i := range vals {
			src := r.Intn(nodes)
			dst := r.Intn(nodes)
			for dst == src {
				dst = r.Intn(nodes)
			}
			vals[i] = reflect.ValueOf(packet(
				fmt.Sprintf("n%d", src), fmt.Sprintf("n%d", src),
				fmt.Sprintf("n%d", dst), fmt.Sprintf("p%d", r.Intn(3))))
		}
	}
	keyHash := func(ev types.Tuple) types.ID {
		vals := make([]types.Value, len(keys))
		for i, k := range keys {
			vals[i] = ev.Args[k]
		}
		return types.HashValues(vals)
	}

	prop := func(ev1, ev2 types.Tuple) bool {
		rec := NewRecorder()
		rt := lineRuntime(t, nodes, rec)
		rt.InjectAt(0, ev1)
		rt.InjectAt(time.Millisecond, ev2)
		rt.Run()
		// Find the tree of each event.
		var tr1, tr2 *Tree
		for _, tr := range rec.Trees() {
			switch {
			case tr.EventOf().Equal(ev1):
				tr1 = tr
			case tr.EventOf().Equal(ev2):
				tr2 = tr
			}
		}
		if ev1.Equal(ev2) {
			// Set semantics: a duplicate event re-derives the same tree.
			return tr1 != nil
		}
		if tr1 == nil || tr2 == nil {
			return false
		}
		same := keyHash(ev1) == keyHash(ev2)
		return tr1.Equivalent(tr2) == same
	}
	cfg := &quick.Config{MaxCount: 30, Values: gen}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
