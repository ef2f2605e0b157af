package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/core"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// batchedBurstOutcome drives a burst of events through a 4-node chain
// running scheme — enough concurrent traffic that the writers genuinely
// coalesce — under an optional fault plan and an optional Kill/Restart of the middle
// node, and returns the sorted outputs, a sample of provenance trees,
// and the transport stats. The retry budget is sized so the restart
// lands inside the retry window (no frame is ever dropped), which is
// what makes the outcome comparable byte-for-byte against a clean run.
func batchedBurstOutcome(t *testing.T, scheme string, plan *FaultPlan, killRestart bool) ([]string, map[string]string, TransportStats, *Cluster) {
	t.Helper()
	g := topo.Line(4, "n")
	c, err := New(Config{
		Prog:      apps.Forwarding(),
		Funcs:     apps.Funcs(),
		Nodes:     g.Nodes(),
		Scheme:    scheme,
		Transport: TransportConfig{RetryBudget: 12, BackoffMax: 100 * time.Millisecond},
		Faults:    plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	var evs []types.Tuple
	for i := 0; i < 24; i++ {
		evs = append(evs, pkt("n0", "n0", "n3", fmt.Sprintf("burst-%02d", i)))
	}
	inject := func(from, to int) {
		for _, ev := range evs[from:to] {
			if err := c.Inject(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if killRestart {
		// Half the burst rides through the kill: the frames land in the
		// retry window and must survive the batched redelivery without a
		// single duplicate apply or lost settle.
		inject(0, len(evs)/2)
		c.Node("n2").Kill()
		inject(len(evs)/2, len(evs))
		time.Sleep(100 * time.Millisecond)
		if err := c.Restart("n2"); err != nil {
			t.Fatal(err)
		}
	} else {
		inject(0, len(evs))
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	var outputs []string
	for _, out := range c.AllOutputs() {
		outputs = append(outputs, out.String())
	}
	sort.Strings(outputs)
	trees := make(map[string]string)
	for _, ev := range []types.Tuple{evs[0], evs[len(evs)/2], evs[len(evs)-1]} {
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
	return outputs, trees, c.TransportStats(), c
}

// checkByteClassesExact asserts the accounting invariant batching must
// not bend: per link and in aggregate, base+prov+query+batch equals the
// byte total exactly — no byte is double-attributed or dropped by the
// coalescing path, faults or not. It quiesces first: a query's answer
// can reach the caller before its sender has counted the bytes, and the
// two snapshots below must see the same counters.
func checkByteClassesExact(t *testing.T, c *Cluster, when string) {
	t.Helper()
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	s := c.TransportStats()
	if sum := s.BytesBase + s.BytesProv + s.BytesQuery + s.BytesBatch; sum != s.BytesTotal {
		t.Fatalf("%s: class sum %d != byte total %d", when, sum, s.BytesTotal)
	}
	var lt, lsum int64
	for _, l := range c.LinkByteStats() {
		if l.Base+l.Prov+l.Query+l.Batch != l.Total {
			t.Fatalf("%s: link %s->%s classes sum %d != total %d",
				when, l.From, l.To, l.Base+l.Prov+l.Query+l.Batch, l.Total)
		}
		lt += l.Total
		lsum += l.Base + l.Prov + l.Query + l.Batch
	}
	if lt != s.BytesTotal {
		t.Fatalf("%s: link totals %d != aggregate total %d", when, lt, s.BytesTotal)
	}
}

// TestChaosBatchedIngestFaults is the chaos property for the ingest fast
// path, per scheme: a seeded plan of drops, stalls, and mid-stream
// resets — faults landing between and inside the coalesced,
// delta-compressed batches — plus a Kill/Restart of a mid-chain node must
// leave outputs and provenance trees identical to a clean run of the same
// burst, batches must form, and the per-class byte accounting must stay
// exact to the byte. ExSPAN and Basic ship no class metadata, so their
// frames carry no delta group.
func TestChaosBatchedIngestFaults(t *testing.T) {
	for _, scheme := range []string{core.SchemeExSPAN, core.SchemeBasic, core.SchemeAdvanced} {
		t.Run(scheme, func(t *testing.T) {
			wantOut, wantTrees, clean, cc := batchedBurstOutcome(t, scheme, nil, false)
			if clean.Drops > 0 || clean.QueueDrops > 0 {
				t.Fatalf("clean run lost frames: %+v", clean)
			}
			checkByteClassesExact(t, cc, "after clean burst")

			plan := &FaultPlan{
				Seed:       11,
				Drop:       0.08,
				Delay:      0.05,
				DelayFor:   2 * time.Millisecond,
				ResetAfter: 5,
			}
			gotOut, gotTrees, stats, c := batchedBurstOutcome(t, scheme, plan, true)

			if strings.Join(gotOut, "\n") != strings.Join(wantOut, "\n") {
				t.Errorf("batched outputs diverged under faults:\ngot:\n%s\nwant:\n%s",
					strings.Join(gotOut, "\n"), strings.Join(wantOut, "\n"))
			}
			for ev, want := range wantTrees {
				if gotTrees[ev] != want {
					t.Errorf("tree for %s diverged under batched faults:\ngot:\n%s\nwant:\n%s", ev, gotTrees[ev], want)
				}
			}
			if stats.Batches == 0 {
				t.Error("burst formed no batches; the chaos run never exercised coalescing")
			}
			if stats.BatchFrames <= stats.Batches {
				t.Errorf("batches carried %d sub-frames across %d batches; no real coalescing happened",
					stats.BatchFrames, stats.Batches)
			}
			if stats.BytesBatch == 0 {
				t.Error("no bytes attributed to batch framing despite batches on the wire")
			}
			if stats.FaultDrops+stats.FaultDelays+stats.FaultResets == 0 {
				t.Error("fault plan injected nothing; chaos run was vacuous")
			}
			checkByteClassesExact(t, c, "after chaos burst")
		})
	}
}
