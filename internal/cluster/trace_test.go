package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/topo"
	"provcompress/internal/trace"
	"provcompress/internal/types"
)

// tracedChain boots an n-node chain cluster with a span collector and
// the shortest-path routes loaded, as provd boots the forwarding app.
func tracedChain(t *testing.T, n int, scheme string) (*Cluster, *trace.Collector) {
	t.Helper()
	tr := trace.NewCollector(0)
	g := topo.Line(n, "n")
	c, err := New(Config{
		Prog:   apps.Forwarding(),
		Funcs:  apps.Funcs(),
		Nodes:  g.Nodes(),
		Scheme: scheme,
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	return c, tr
}

// TestInjectTraceSpansEveryHop injects one end-to-end packet across a
// 5-node chain and asserts the derivation produces a single
// parent-linked span tree whose spans cover every node the packet
// touched, with rule spans nested under each hop's process span.
func TestInjectTraceSpansEveryHop(t *testing.T) {
	c, tr := tracedChain(t, 5, "advanced")
	ev := pkt("n0", "n0", "n4", "traced")
	tid, err := c.InjectTraced(ev)
	if err != nil {
		t.Fatal(err)
	}
	if tid == 0 {
		t.Fatal("InjectTraced returned zero trace ID with a tracer configured")
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	spans := tr.Trace(tid)
	if err := trace.CheckLinked(spans); err != nil {
		t.Fatalf("inject span tree broken: %v\nspans: %+v", err, spans)
	}
	nodes := trace.Nodes(spans)
	want := []string{"n0", "n1", "n2", "n3", "n4"}
	if fmt.Sprint(nodes) != fmt.Sprint(want) {
		t.Fatalf("trace covers nodes %v, want %v", nodes, want)
	}
	kinds := map[string]int{}
	for _, sp := range spans {
		kinds[sp.Kind]++
	}
	if kinds["inject"] != 1 {
		t.Fatalf("inject spans = %d, want 1 (kinds: %v)", kinds["inject"], kinds)
	}
	if kinds["process"] < 5 {
		t.Fatalf("process spans = %d, want >= 5 (one per hop)", kinds["process"])
	}
	if kinds["rule"] < 4 {
		t.Fatalf("rule spans = %d, want >= 4 (the chain fires a rule per forwarding hop)", kinds["rule"])
	}

	// The tree must export as valid Chrome trace JSON.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, tid); err != nil {
		t.Fatal(err)
	}
	if n, err := trace.ValidateChrome(buf.Bytes()); err != nil || n != len(spans) {
		t.Fatalf("chrome export: %d events, err %v (want %d events)", n, err, len(spans))
	}
}

// TestQueryTraceSpansEveryHop runs one distributed provenance query on a
// 5-node chain and asserts the acceptance property: a single
// parent-linked span tree covering every hop the walk took, exportable
// as valid Chrome trace JSON.
func TestQueryTraceSpansEveryHop(t *testing.T) {
	c, tr := tracedChain(t, 5, "advanced")
	ev := pkt("n0", "n0", "n4", "qtrace")
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	out := recvT("n4", "n0", "n4", "qtrace")
	res, err := c.Query(out, types.HashTuple(ev), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) == 0 {
		t.Fatal("query returned no provenance")
	}
	if res.TraceID == 0 {
		t.Fatal("query returned zero trace ID with a tracer configured")
	}
	spans := tr.Trace(res.TraceID)
	if err := trace.CheckLinked(spans); err != nil {
		t.Fatalf("query span tree broken: %v\nspans: %+v", err, spans)
	}
	kinds := map[string]int{}
	walkNodes := map[string]bool{}
	for _, sp := range spans {
		kinds[sp.Kind]++
		if sp.Kind == "walk" {
			walkNodes[sp.Node] = true
		}
	}
	if kinds["query"] != 1 || kinds["reconstruct"] != 1 {
		t.Fatalf("kinds = %v, want exactly one query and one reconstruct span", kinds)
	}
	// The walk must have produced one span per hop it reported.
	if kinds["walk"] != res.Hops {
		t.Fatalf("walk spans = %d, want %d (one per reported hop)", kinds["walk"], res.Hops)
	}
	// The provenance chain of an end-to-end packet lives on every chain
	// node, so the walk must have visited all five.
	if len(walkNodes) != 5 {
		t.Fatalf("walk visited %d nodes (%v), want 5", len(walkNodes), walkNodes)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, res.TraceID); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
}

// TestUntracedClusterProducesNoSpans pins the nil-tracer fast path: no
// spans, zero trace IDs, frames carrying zero trace headers end to end.
func TestUntracedClusterProducesNoSpans(t *testing.T) {
	c := fig2Cluster(t)
	ev := pkt("n1", "n1", "n3", "untraced")
	tid, err := c.InjectTraced(ev)
	if err != nil {
		t.Fatal(err)
	}
	if tid != 0 {
		t.Fatalf("InjectTraced on untraced cluster returned trace ID %d", tid)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(recvT("n3", "n1", "n3", "untraced"), types.HashTuple(ev), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != 0 {
		t.Fatalf("query on untraced cluster returned trace ID %d", res.TraceID)
	}
	if c.Tracer() != nil {
		t.Fatal("untraced cluster has a tracer")
	}
}

// TestByteClassAttribution asserts the per-class byte counters mirror
// the netsim taxonomy on the real runtime: base, provenance, and query
// bytes are all non-zero after an inject+query workload, their sum
// equals the aggregate transport byte total, and the per-link breakdown
// sums to the same figures.
func TestByteClassAttribution(t *testing.T) {
	c, _ := tracedChain(t, 5, "advanced")
	for i := 0; i < 4; i++ {
		if err := c.Inject(pkt("n0", "n0", "n4", fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A slow-changing insert broadcasts sig frames (provenance class).
	if err := c.InsertSlow(types.NewTuple("route", types.String("n0"), types.String("n9"), types.String("n1"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ev := pkt("n0", "n0", "n4", "b0")
	if _, err := c.Query(recvT("n4", "n0", "n4", "b0"), types.HashTuple(ev), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	s := c.TransportStats()
	if s.BytesTotal == 0 {
		t.Fatal("no bytes counted")
	}
	if s.BytesBase == 0 || s.BytesProv == 0 || s.BytesQuery == 0 {
		t.Fatalf("byte classes not all populated: base=%d prov=%d query=%d", s.BytesBase, s.BytesProv, s.BytesQuery)
	}
	if sum := s.BytesBase + s.BytesProv + s.BytesQuery + s.BytesBatch; sum != s.BytesTotal {
		t.Fatalf("class sum %d != total %d", sum, s.BytesTotal)
	}

	links := c.LinkByteStats()
	if len(links) == 0 {
		t.Fatal("no per-link stats")
	}
	var lt, lb, lp, lq, lx int64
	for _, l := range links {
		if l.Base+l.Prov+l.Query+l.Batch != l.Total {
			t.Fatalf("link %s->%s classes sum %d != total %d", l.From, l.To, l.Base+l.Prov+l.Query+l.Batch, l.Total)
		}
		lt += l.Total
		lb += l.Base
		lp += l.Prov
		lq += l.Query
		lx += l.Batch
	}
	if lt != s.BytesTotal || lb != s.BytesBase || lp != s.BytesProv || lq != s.BytesQuery || lx != s.BytesBatch {
		t.Fatalf("link sums (%d/%d/%d/%d/%d) != aggregate (%d/%d/%d/%d/%d)",
			lt, lb, lp, lq, lx, s.BytesTotal, s.BytesBase, s.BytesProv, s.BytesQuery, s.BytesBatch)
	}
}

// TestChaosTraceAndBytesConsistency is the chaos-suite case for the
// observability layer: across a Kill/Restart cycle, every collected
// trace must stay a single parent-linked tree, and the per-class byte
// counters (which live on the nodes, not the discarded transports) must
// keep summing exactly to the aggregate transport byte total.
func TestChaosTraceAndBytesConsistency(t *testing.T) {
	tr := trace.NewCollector(0)
	g := topo.Line(4, "n")
	c, err := New(Config{
		Prog:  apps.Forwarding(),
		Funcs: apps.Funcs(),
		Nodes: g.Nodes(),
		// Budget sized so retries comfortably span the restart window.
		Transport: TransportConfig{RetryBudget: 12, BackoffMax: 100 * time.Millisecond},
		Tracer:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}

	checkBytes := func(when string) {
		t.Helper()
		s := c.TransportStats()
		if sum := s.BytesBase + s.BytesProv + s.BytesQuery + s.BytesBatch; sum != s.BytesTotal {
			t.Fatalf("%s: class sum %d != total %d", when, sum, s.BytesTotal)
		}
	}

	before := pkt("n0", "n0", "n3", "before")
	tidBefore, err := c.InjectTraced(before)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	bytesBeforeKill := c.TransportStats().BytesTotal
	checkBytes("before kill")

	mid := c.Node("n2")
	mid.Kill()
	time.Sleep(20 * time.Millisecond)

	during := pkt("n0", "n0", "n3", "during")
	tidDuring, err := c.InjectTraced(during)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := c.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkBytes("after restart")

	// The per-link counters must have survived the transport teardown
	// that Kill performs: bytes counted before the kill cannot vanish.
	if got := c.TransportStats().BytesTotal; got < bytesBeforeKill {
		t.Fatalf("byte total went backwards across kill/restart: %d -> %d", bytesBeforeKill, got)
	}

	out := recvT("n3", "n0", "n3", "during")
	res, err := c.Query(out, types.HashTuple(during), 10*time.Second)
	if err != nil || len(res.Trees) != 1 {
		t.Fatalf("query after restart: %v (%d trees)", err, len(res.Trees))
	}
	checkBytes("after query")

	// Every trace collected across the chaos window — the pre-kill
	// derivation, the injection that straddled the crash, and the
	// post-restart query — must be a single parent-linked tree.
	for _, tid := range []trace.TraceID{tidBefore, tidDuring, res.TraceID} {
		spans := tr.Trace(tid)
		if err := trace.CheckLinked(spans); err != nil {
			t.Fatalf("trace %d broken across kill/restart: %v\nspans: %+v", tid, err, spans)
		}
	}
	// The straddling injection's derivation completed after the restart,
	// so its tree must reach the far end of the chain.
	nodes := trace.Nodes(tr.Trace(tidDuring))
	if fmt.Sprint(nodes) != fmt.Sprint([]string{"n0", "n1", "n2", "n3"}) {
		t.Fatalf("straddling trace covers %v, want all 4 chain nodes", nodes)
	}
}
