package core

import (
	"fmt"
	"testing"

	"provcompress/internal/types"
)

// TestLossyNetworkDegradesGracefully injects message loss under every
// scheme: executions whose messages are lost simply produce no output, the
// runtime stays consistent (no errors, no panics), and queries for the
// outputs that did complete still reconstruct correct trees or — when the
// load-bearing chain message was lost — return empty rather than wrong.
func TestLossyNetworkDegradesGracefully(t *testing.T) {
	for _, m := range []queryMaintainer{mustScheme(SchemeExSPAN), mustScheme(SchemeBasic), mustScheme(SchemeAdvanced)} {
		t.Run(m.Name(), func(t *testing.T) {
			rt := lineRuntime(t, 6, m)
			rt.Net.SetLossRate(0.2, 42)
			var evs []types.Tuple
			for i := 0; i < 40; i++ {
				evs = append(evs, packet("n0", "n0", "n5", fmt.Sprintf("p%d", i)))
			}
			injectSpaced(rt, evs...)
			rt.Run()
			checkNoErrors(t, rt)

			delivered := rt.NumOutputs()
			if delivered == 0 {
				t.Fatal("no packet survived 20% loss (loss model broken)")
			}
			if delivered == int64(len(evs)) {
				t.Fatal("no packet lost at 20% loss (loss model inert)")
			}
			if rt.Net.Dropped() == 0 {
				t.Fatal("drop counter not incremented")
			}

			// Heal the network for querying (a lossy network also loses
			// query messages — tested separately below).
			rt.Net.SetLossRate(0, 1)

			// Query every delivered output: each returns either its correct
			// tree or nothing (when the chain itself was severed), never a
			// wrong tree.
			var answered int
			for _, o := range rt.Outputs() {
				res := runQuery(t, rt, m, o.Tuple, types.ZeroID)
				for _, tr := range res.Trees {
					if !tr.Output.Equal(o.Tuple) {
						t.Fatalf("%s: wrong tree for %v:\n%s", m.Name(), o.Tuple, tr)
					}
					payload := tr.EventOf().Args[3].AsString()
					if payload != o.Tuple.Args[3].AsString() {
						t.Fatalf("%s: tree of %v claims event %s", m.Name(), o.Tuple, payload)
					}
				}
				if len(res.Trees) > 0 {
					answered++
				}
			}
			t.Logf("%s: %d/%d packets delivered, %d queries answered",
				m.Name(), delivered, len(evs), answered)
			if answered == 0 {
				t.Errorf("%s: no query answerable despite %d deliveries", m.Name(), delivered)
			}
		})
	}
}

// TestLossyAdvancedPendingBounded: when the class's first execution is
// lost mid-chain, later outputs park in the pending table; they stay
// parked (correctly unanswerable) until a fresh chain completes, at which
// point they attach to it.
func TestLossyAdvancedPendingBounded(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := lineRuntime(t, 4, a)
	// Drop everything: the first packet's chain never completes.
	rt.Net.SetLossRate(1.0, 1)
	rt.Inject(packet("n0", "n0", "n3", "lost"))
	rt.Run()
	if rt.NumOutputs() != 0 {
		t.Fatalf("outputs = %d under total loss", rt.NumOutputs())
	}

	// Heal the network; the next packet of the class still has
	// existFlag=true (htequi was set by the lost packet) but no hmap entry
	// exists — it parks, then a sig reset re-maintains the class.
	rt.Net.SetLossRate(0, 1)
	rt.Inject(packet("n0", "n0", "n3", "parked"))
	rt.Run()
	checkNoErrors(t, rt)
	if rt.NumOutputs() != 1 {
		t.Fatalf("outputs = %d", rt.NumOutputs())
	}
	res := runQuery(t, rt, a, recvTuple("n3", "n0", "n3", "parked"), types.ZeroID)
	if len(res.Trees) != 0 {
		t.Fatalf("parked output answered without a chain: %v", res.Trees)
	}

	// The administrator's recovery lever is the Section 5.5 reset: insert
	// a slow tuple, which broadcasts sig and clears htequi everywhere.
	rt.InsertSlow(routeTuple("n0", "recover", "n1"))
	rt.Run()
	rt.Inject(packet("n0", "n0", "n3", "fresh"))
	rt.Run()
	checkNoErrors(t, rt)

	// The fresh packet rebuilt the shared chain and released the parked
	// association.
	for _, payload := range []string{"parked", "fresh"} {
		res := runQuery(t, rt, a, recvTuple("n3", "n0", "n3", payload), types.ZeroID)
		if len(res.Trees) != 1 {
			t.Errorf("%s: trees = %d after recovery", payload, len(res.Trees))
			continue
		}
		if got := res.Trees[0].EventOf().Args[3].AsString(); got != payload {
			t.Errorf("%s: tree claims event %s", payload, got)
		}
	}
}
