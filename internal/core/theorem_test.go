package core

import (
	"fmt"
	"math/rand"
	"testing"

	"provcompress/internal/analysis"
	"provcompress/internal/apps"
	"provcompress/internal/engine"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// lineRuntime builds an n-node line topology running packet forwarding with
// full shortest-path route tables, so packets can travel between any pair.
func lineRuntime(t *testing.T, n int, maint engine.Maintainer) *engine.Runtime {
	t.Helper()
	var sched sim.Scheduler
	g := topo.Line(n, "n")
	net := netsim.New(&sched, g)
	rt := engine.NewRuntime(net, apps.Forwarding(), apps.Funcs(), maint)
	if err := rt.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	return rt
}

// randomPackets generates events with random sources, destinations, and
// payloads over an n-node line.
func randomPackets(r *rand.Rand, n, count int) []types.Tuple {
	evs := make([]types.Tuple, count)
	for i := range evs {
		src := r.Intn(n)
		dst := r.Intn(n)
		for dst == src {
			dst = r.Intn(n)
		}
		evs[i] = packet(
			fmt.Sprintf("n%d", src), fmt.Sprintf("n%d", src), fmt.Sprintf("n%d", dst),
			fmt.Sprintf("payload-%d", r.Intn(5)))
	}
	return evs
}

// TestTheorem1Property checks Theorem 1 on the forwarding program: events
// that agree on the equivalence keys generate equivalent provenance trees,
// and events that disagree do not (for this program, where every non-key
// attribute is payload-only).
func TestTheorem1Property(t *testing.T) {
	const nodes = 8
	r := rand.New(rand.NewSource(42))
	keys := analysis.EquivalenceKeys(apps.Forwarding())

	rec := NewRecorder()
	rt := lineRuntime(t, nodes, rec)
	evs := randomPackets(r, nodes, 60)
	injectSpaced(rt, evs...)
	rt.Run()
	checkNoErrors(t, rt)

	distinct := make(map[types.ID]bool)
	for _, ev := range evs {
		distinct[types.HashTuple(ev)] = true
	}
	if len(rec.Trees()) != len(distinct) {
		t.Fatalf("trees = %d, want %d (one per distinct event)", len(rec.Trees()), len(distinct))
	}

	keyHash := func(ev types.Tuple) types.ID {
		vals := make([]types.Value, len(keys))
		for i, k := range keys {
			vals[i] = ev.Args[k]
		}
		return types.HashValues(vals)
	}

	trees := rec.Trees()
	checked := 0
	for i := 0; i < len(trees); i++ {
		for j := i + 1; j < len(trees); j++ {
			ti, tj := trees[i], trees[j]
			sameClass := keyHash(ti.EventOf()) == keyHash(tj.EventOf())
			equiv := ti.Equivalent(tj)
			if sameClass && !equiv {
				t.Fatalf("Theorem 1 violated: same-key events produced non-equivalent trees:\n%s\nvs\n%s", ti, tj)
			}
			if !sameClass && equiv {
				// For forwarding, different (loc, dst) means a different
				// route chain, so trees cannot be equivalent.
				t.Fatalf("different-key events produced equivalent trees:\n%s\nvs\n%s", ti, tj)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no pairs checked")
	}
}

// TestCompressionLosslessRandomWorkload checks Theorems 3 and 5 end to end:
// for a random workload, every output tuple's provenance queried from the
// compressed stores equals the tree semi-naïve evaluation derived.
func TestCompressionLosslessRandomWorkload(t *testing.T) {
	const nodes = 8
	r := rand.New(rand.NewSource(7))
	evs := randomPackets(r, nodes, 40)

	rec := NewRecorder()
	rrt := lineRuntime(t, nodes, rec)
	injectSpaced(rrt, evs...)
	rrt.Run()
	checkNoErrors(t, rrt)

	for _, m := range []queryMaintainer{mustScheme(SchemeExSPAN), mustScheme(SchemeBasic), mustScheme(SchemeAdvanced), mustScheme(SchemeAdvancedInterClass)} {
		t.Run(m.Name(), func(t *testing.T) {
			rt := lineRuntime(t, nodes, m)
			injectSpaced(rt, evs...)
			rt.Run()
			checkNoErrors(t, rt)
			if rt.NumOutputs() != int64(len(evs)) {
				t.Fatalf("outputs = %d, want %d", rt.NumOutputs(), len(evs))
			}

			// Query every distinct (output, event) pair.
			type target struct {
				out  types.Tuple
				evid types.ID
			}
			seen := make(map[string]bool)
			var targets []target
			for _, tr := range rec.Trees() {
				key := tr.Output.String() + "|" + tr.EvID().String()
				if !seen[key] {
					seen[key] = true
					targets = append(targets, target{tr.Output, tr.EvID()})
				}
			}
			for _, tg := range targets {
				res := runQuery(t, rt, m, tg.out, tg.evid)
				want := rec.TreesFor(types.HashTuple(tg.out), tg.evid)
				if len(res.Trees) != len(want) {
					t.Fatalf("%s: query %v evid %v: %d trees, want %d",
						m.Name(), tg.out, tg.evid, len(res.Trees), len(want))
				}
				for _, w := range want {
					found := false
					for _, g := range res.Trees {
						if g.Equal(w) {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%s: missing tree for %v:\n%s", m.Name(), tg.out, w)
					}
				}
			}
		})
	}
}

// TestAdvancedStorageInvariant checks the compression invariant directly:
// under Advanced, the number of stored rule-execution nodes depends on the
// number of equivalence classes, not the number of events.
func TestAdvancedStorageInvariant(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := lineRuntime(t, 5, a)
	// 30 packets, all in one equivalence class (same origin, same dest).
	var evs []types.Tuple
	for i := 0; i < 30; i++ {
		evs = append(evs, packet("n0", "n0", "n4", fmt.Sprintf("p%d", i)))
	}
	injectSpaced(rt, evs...)
	rt.Run()
	checkNoErrors(t, rt)

	totalExec := 0
	for _, addr := range rt.Net.Graph().Nodes() {
		totalExec += len(a.RuleExecRows(addr))
	}
	// Path n0..n4: 4 r1 firings + 1 r2 firing = 5 shared nodes total.
	if totalExec != 5 {
		t.Errorf("ruleExec nodes = %d, want 5 (one shared chain)", totalExec)
	}
	// But one prov row per event at the output.
	if n := len(a.ProvRows("n4")); n != 30 {
		t.Errorf("prov rows = %d, want 30", n)
	}
}

// TestEquivalenceStorageComparison checks the headline inequality of the
// paper on a shared-destination workload: Advanced < Basic < ExSPAN.
func TestEquivalenceStorageComparison(t *testing.T) {
	var evs []types.Tuple
	for i := 0; i < 20; i++ {
		evs = append(evs, packet("n0", "n0", "n6", fmt.Sprintf("payload-%04d", i)))
	}
	totals := make(map[string]int64)
	for _, m := range []engine.Maintainer{mustScheme(SchemeExSPAN), mustScheme(SchemeBasic), mustScheme(SchemeAdvanced)} {
		rt := lineRuntime(t, 7, m)
		injectSpaced(rt, evs...)
		rt.Run()
		checkNoErrors(t, rt)
		totals[m.Name()] = m.TotalStorageBytes()
	}
	if !(totals["Advanced"] < totals["Basic"] && totals["Basic"] < totals["ExSPAN"]) {
		t.Errorf("storage ordering violated: %v", totals)
	}
	// The compression should be substantial on this workload (20 events in
	// one class): at least 5x over ExSPAN.
	if totals["ExSPAN"] < 5*totals["Advanced"] {
		t.Errorf("compression ratio = %.1f, want >= 5",
			float64(totals["ExSPAN"])/float64(totals["Advanced"]))
	}
}
