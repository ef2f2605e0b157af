package provserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/cluster"
	"provcompress/internal/topo"
	"provcompress/internal/trace"
	"provcompress/internal/types"
	"provcompress/internal/workload"
)

// newTestCluster boots a small chain cluster with routes loaded.
func newTestCluster(t *testing.T, nodes int, scheme string) *cluster.Cluster {
	t.Helper()
	g := topo.Line(nodes, "n")
	c, err := cluster.New(cluster.Config{
		Prog:   apps.Forwarding(),
		Funcs:  apps.Funcs(),
		Nodes:  g.Nodes(),
		Scheme: scheme,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	return c
}

// newTestServer stands up a daemon over an advanced-scheme cluster and an
// httptest frontend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Clusters == nil {
		cfg.Clusters = map[string]*cluster.Cluster{"advanced": newTestCluster(t, 3, "advanced")}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postEvents injects packet events over HTTP and returns the response.
func postEvents(t *testing.T, baseURL string, waitMS int64, events ...tupleSpec) eventsResponse {
	t.Helper()
	return postEventsAs(t, baseURL, "", waitMS, events...)
}

// postEventsAs is postEvents billed to tenant ("" = the default tenant).
func postEventsAs(t *testing.T, baseURL, tenant string, waitMS int64, events ...tupleSpec) eventsResponse {
	t.Helper()
	body, err := json.Marshal(eventsRequest{Events: events, WaitMS: waitMS})
	if err != nil {
		t.Fatal(err)
	}
	u := baseURL + "/v1/events"
	if tenant != "" {
		u += "?tenant=" + url.QueryEscape(tenant)
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) //nolint:errcheck
		t.Fatalf("inject: %s: %s", resp.Status, b)
	}
	var er eventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	return er
}

func packetSpec(src, dst, payload string) tupleSpec {
	return tupleSpec{Rel: "packet", Args: []any{src, src, dst, payload}}
}

// get issues a /v1/query for every derivation of an output and decodes
// the response (any status).
func get(t *testing.T, baseURL string, spec tupleSpec) (queryResponse, *http.Response) {
	t.Helper()
	return getEvID(t, baseURL, spec, types.ZeroID)
}

// getEvID is get filtered by an event ID (ZeroID = unfiltered).
func getEvID(t *testing.T, baseURL string, spec tupleSpec, evid types.ID) (queryResponse, *http.Response) {
	t.Helper()
	args, err := json.Marshal(spec.Args)
	if err != nil {
		t.Fatal(err)
	}
	v := url.Values{}
	v.Set("rel", spec.Rel)
	v.Set("args", string(args))
	if evid != types.ZeroID {
		v.Set("evid", evid.Hex())
	}
	resp, err := http.Get(baseURL + "/v1/query?" + v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return qr, resp
}

// TestServeQueryCycle drives the full serve path: inject, cold query,
// cached re-query, and a new event of the same class — which lands its own
// output cold and leaves the earlier event's entry exactly as it was.
func TestServeQueryCycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	c := s.cfg.Clusters["advanced"]
	er := postEvents(t, ts.URL, 10000, packetSpec("n0", "n2", "p-a"))
	if er.Accepted != 1 || !er.Quiesced {
		t.Fatalf("inject = %+v", er)
	}
	target := tupleSpec{Rel: "recv", Args: []any{"n2", "n0", "n2", "p-a"}}

	cold, resp := get(t, ts.URL, target)
	if resp.StatusCode != http.StatusOK || cold.Cached || len(cold.Trees) == 0 {
		t.Fatalf("cold query = %+v (status %d)", cold, resp.StatusCode)
	}
	warm, resp := get(t, ts.URL, target)
	if resp.StatusCode != http.StatusOK || !warm.Cached {
		t.Fatalf("repeat query not cached: %+v (status %d)", warm, resp.StatusCode)
	}
	if len(warm.Trees) != len(cold.Trees) || warm.Trees[0] != cold.Trees[0] {
		t.Fatal("cached answer differs from cold answer")
	}

	// A new accepted event of the same class adds a prov row under its own
	// event ID and touches nothing p-a's answer was built from (§5.3): no
	// entry is evicted, p-a is still served from the cache and still what
	// a fresh walk returns, and p-b's own first query is cold.
	postEvents(t, ts.URL, 10000, packetSpec("n0", "n2", "p-b"))
	if got := s.cache.Invalidations()[invalVID]; got != 0 {
		t.Fatalf("same-class write evicted %d entries, want 0", got)
	}
	if after := checkedQuery(t, c, ts.URL, "n0", "n2", "p-a"); !after.Cached {
		t.Fatalf("same-class event evicted an entry it cannot have changed: %+v", after)
	}
	if fresh := checkedQuery(t, c, ts.URL, "n0", "n2", "p-b"); fresh.Cached || len(fresh.Trees) == 0 {
		t.Fatalf("new event's first query = %+v, want cold with trees", fresh)
	}
}

// TestQueryEventRace is the required consistency hammer: queries and
// events race, and the invariant checked is that an answer is never from
// before an event whose acceptance the client had already observed when it
// issued the query. Queriers keep asking for outputs of events not yet
// injected, so empty answers are cached ahead of the events that fill
// them; once an event's quiesced POST is acknowledged, its output's
// provenance must be served.
func TestQueryEventRace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64, QueryTimeout: 10 * time.Second})
	const queriers, injectors, eventsEach = 4, 2, 15
	payload := func(i, k int) string { return fmt.Sprintf("r%d-%d", i, k) }

	// acked[i] counts injector i's acknowledged events: every output below
	// it has landed.
	var acked [injectors]atomic.Int64
	var injecting, querying sync.WaitGroup
	errCh := make(chan error, 64)
	done := make(chan struct{})

	for i := 0; i < injectors; i++ {
		injecting.Add(1)
		go func(i int) {
			defer injecting.Done()
			for k := 0; k < eventsEach; k++ {
				postEvents(t, ts.URL, 10000, packetSpec("n0", "n2", payload(i, k)))
				acked[i].Store(int64(k + 1))
			}
		}(i)
	}
	for q := 0; q < queriers; q++ {
		querying.Add(1)
		go func(q int) {
			defer querying.Done()
			for round := q; ; round++ {
				final := false
				select {
				case <-done:
					final = true // one last sweep with every event acknowledged
				default:
				}
				i := round % injectors
				for k := 0; k < eventsEach; k++ {
					floor := acked[i].Load()
					qr, resp := get(t, ts.URL, tupleSpec{Rel: "recv", Args: []any{"n2", "n0", "n2", payload(i, k)}})
					switch resp.StatusCode {
					case http.StatusOK:
						if int64(k) < floor && len(qr.Trees) == 0 {
							errCh <- fmt.Errorf("event %s was acknowledged, but its output's provenance came back empty (cached=%v)", payload(i, k), qr.Cached)
							return
						}
					case http.StatusTooManyRequests:
						// Overload shedding is legal under the hammer.
					default:
						errCh <- fmt.Errorf("query status %d", resp.StatusCode)
						return
					}
				}
				if final {
					return
				}
			}
		}(q)
	}
	injecting.Wait()
	close(done)
	querying.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestOverloadAdmissionControl pins the 429 path: with one worker held
// busy and a one-slot queue, an extra query is rejected with Retry-After
// instead of queueing unboundedly, and the pool drains cleanly afterward.
func TestOverloadAdmissionControl(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:     1,
		QueueDepth:  1,
		RetryAfter:  2 * time.Second,
		beforeQuery: func() { entered <- struct{}{}; <-release },
	})
	target := tupleSpec{Rel: "recv", Args: []any{"n0", "n0", "n0", "none"}}

	type result struct {
		status int
		retry  string
	}
	results := make(chan result, 8)
	issue := func() {
		_, resp := get(t, ts.URL, target)
		results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
	}

	// First query occupies the single worker.
	go issue()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first query")
	}
	// Second query fills the one queue slot.
	go issue()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Third query must be shed.
	_, resp := get(t, ts.URL, target)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", resp.Header.Get("Retry-After"))
	}

	// Release the pool: both held queries complete normally.
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.status != http.StatusOK {
				t.Fatalf("held query finished with status %d", r.status)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("held query never finished after release")
		}
	}
	// And shutdown drains without wedging.
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain the pool")
	}
}

// TestShutdownFailsQueuedQueries checks that a query still queued at
// Close time gets an error response instead of hanging.
func TestShutdownFailsQueuedQueries(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:     1,
		QueueDepth:  4,
		beforeQuery: func() { entered <- struct{}{}; <-release },
	})
	target := tupleSpec{Rel: "recv", Args: []any{"n0", "n0", "n0", "none"}}
	statusCh := make(chan int, 2)
	go func() { _, r := get(t, ts.URL, target); statusCh <- r.StatusCode }()
	<-entered
	go func() { _, r := get(t, ts.URL, target); statusCh <- r.StatusCode }()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release) // let the busy worker observe stop and exit
	}()
	s.Close()
	for i := 0; i < 2; i++ {
		select {
		case status := <-statusCh:
			if status != http.StatusOK && status != http.StatusServiceUnavailable && status != http.StatusBadGateway {
				t.Fatalf("query during shutdown got status %d", status)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("query stranded across shutdown")
		}
	}
}

// TestBadRequests pins the 4xx surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, url string
		status    int
	}{
		{"unknown scheme", "/v1/query?scheme=nope&rel=recv&args=[\"n0\"]", http.StatusBadRequest},
		{"bad args", "/v1/query?rel=recv&args=notjson", http.StatusBadRequest},
		{"missing rel", "/v1/query?args=[\"n0\"]", http.StatusBadRequest},
		{"float arg", `/v1/query?rel=recv&args=[1.5]`, http.StatusBadRequest},
		{"bad evid", `/v1/query?rel=recv&args=["n0"]&evid=xyz`, http.StatusBadRequest},
		{"events wrong method", "/v1/events", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	// Bad event bodies.
	for _, body := range []string{"{}", `{"events":[{"rel":"","args":[]}]}`, "not json"} {
		resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestWrongArityEventRejected: an event whose argument count disagrees
// with its relation in the program is refused with 400 at the door — it
// used to reach a shard worker, index past its arguments there, and panic
// the daemon — and the server keeps serving afterwards.
func TestWrongArityEventRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"events":[{"rel":"packet","args":["n0"]}]}`,
		`{"events":[{"rel":"packet","args":["n0","n0","n2","x","extra"]}],"wait_ms":2000}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	postEvents(t, ts.URL, 5000, packetSpec("n0", "n2", "ok"))
	qr, resp := get(t, ts.URL, tupleSpec{Rel: "recv", Args: []any{"n2", "n0", "n2", "ok"}})
	if resp.StatusCode != http.StatusOK || len(qr.Trees) != 1 {
		t.Errorf("query after rejected events: status %d, %d trees", resp.StatusCode, len(qr.Trees))
	}
}

// TestUnconsumedEventRejected: an event no rule takes as its event — an
// unknown relation, or a forged output — is refused with 400, instead of
// being stored where it lands and listed as an output nothing derived.
func TestUnconsumedEventRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"events":[{"rel":"bogus","args":["n1"]}],"wait_ms":2000}`,
		`{"events":[{"rel":"recv","args":["n2","n0","n2","forged"]}],"wait_ms":2000}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/events", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/outputs?scheme=advanced")
	if err != nil {
		t.Fatal(err)
	}
	var outs struct {
		Outputs []tupleSpec `json:"outputs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&outs)
	resp.Body.Close()
	if err != nil || len(outs.Outputs) != 0 {
		t.Fatalf("outputs after refused events = %+v (err %v), want none", outs.Outputs, err)
	}
}

// TestMetricsAndStats checks both observability surfaces expose the
// serving counters.
func TestMetricsAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postEvents(t, ts.URL, 10000, packetSpec("n0", "n2", "m-a"))
	target := tupleSpec{Rel: "recv", Args: []any{"n2", "n0", "n2", "m-a"}}
	get(t, ts.URL, target)
	get(t, ts.URL, target)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body) //nolint:errcheck
	resp.Body.Close()
	exposition := string(body)
	for _, want := range []string{
		"provd_events_total 1",
		"provd_queries_total 2",
		"provd_cache_hits_total 1",
		"provd_cache_misses_total 1",
		"provd_query_seconds_bucket{cache=\"miss\",le=\"+Inf\"} 1",
		"provd_query_seconds_bucket{cache=\"hit\",le=\"+Inf\"} 1",
		"provd_transport_sends_total{scheme=\"advanced\"}",
		"provd_storage_bytes{scheme=\"advanced\"}",
		"provd_queue_capacity 64",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server["queries"] != 2 || stats.Server["cache-hits"] != 1 {
		t.Fatalf("stats.Server = %v", stats.Server)
	}
	adv, ok := stats.Schemes["advanced"]
	if !ok || adv.StorageBytes <= 0 || adv.Outputs != 1 {
		t.Fatalf("stats.Schemes[advanced] = %+v (ok=%v)", adv, ok)
	}
}

// TestMetricsGCRuntime scrapes the garbage collector's figures after a
// scripted ingest: the GC's CPU seconds since start, the scannable heap and
// the live heap, each a positive finite sample, the live heap no larger
// than what the runtime holds for the heap at all.
func TestMetricsGCRuntime(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 20; i++ {
		postEvents(t, ts.URL, 10000, packetSpec("n0", "n2", fmt.Sprintf("gc-%d", i)))
	}
	runtime.GC() // a completed cycle since the ingest, so the live heap counts it
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body) //nolint:errcheck
	resp.Body.Close()
	got := map[string]float64{}
	for _, name := range []string{"provd_go_gc_cpu_seconds_total", "provd_go_gc_scan_heap_bytes", "provd_go_gc_heap_live_bytes"} {
		v, ok := promSample(string(body), name, "")
		if !ok || !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (present %v), want a positive finite sample", name, v, ok)
		}
		got[name] = v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if live := got["provd_go_gc_heap_live_bytes"]; live > float64(ms.HeapSys) {
		t.Errorf("live heap %v exceeds the heap the runtime holds, %d", live, ms.HeapSys)
	}
	t.Logf("gc cpu %.3f s, scannable heap %.0f B, live heap %.0f B",
		got["provd_go_gc_cpu_seconds_total"], got["provd_go_gc_scan_heap_bytes"], got["provd_go_gc_heap_live_bytes"])
}

// TestMultiSchemeQueryAndOutputs runs two schemes side by side: the same
// injected stream must answer under both, with independent cache keys, and
// /metrics must show Advanced storing fewer database tuples than ExSPAN.
func TestMultiSchemeQueryAndOutputs(t *testing.T) {
	clusters := map[string]*cluster.Cluster{
		"advanced": newTestCluster(t, 3, "advanced"),
		"exspan":   newTestCluster(t, 3, "exspan"),
	}
	_, ts := newTestServer(t, Config{Clusters: clusters})
	payload := workload.Payload(7, 16)
	postEvents(t, ts.URL, 10000, packetSpec("n0", "n2", payload))

	for _, scheme := range []string{"advanced", "exspan"} {
		args, _ := json.Marshal([]any{"n2", "n0", "n2", payload}) //nolint:errcheck
		u := ts.URL + "/v1/query?" + url.Values{
			"rel": {"recv"}, "args": {string(args)}, "scheme": {scheme},
		}.Encode()
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		var qr queryResponse
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s query: status %d err %v", scheme, resp.StatusCode, err)
		}
		if qr.Cached || len(qr.Trees) == 0 {
			t.Fatalf("%s query = %+v; want cold answer with trees (independent cache keys)", scheme, qr)
		}
	}

	// Outputs endpoint returns the recv tuple in wire form.
	oresp, err := http.Get(ts.URL + "/v1/outputs?scheme=advanced")
	if err != nil {
		t.Fatal(err)
	}
	var outs struct {
		Outputs []tupleSpec `json:"outputs"`
	}
	err = json.NewDecoder(oresp.Body).Decode(&outs)
	oresp.Body.Close()
	if err != nil || len(outs.Outputs) != 1 || outs.Outputs[0].Rel != "recv" {
		t.Fatalf("outputs = %+v (err %v)", outs, err)
	}
	// Round-trip: the listed output parses back into a queryable tuple.
	tup, err := outs.Outputs[0].tuple()
	if err != nil {
		t.Fatal(err)
	}
	if tup.Loc() != types.NodeAddr("n2") {
		t.Fatalf("round-tripped output at %s, want n2", tup.Loc())
	}

	// Both clusters hold the same routes, input event and output, but only
	// ExSPAN stores the packet again at each hop it passes.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body) //nolint:errcheck
	mresp.Body.Close()
	adv, aok := promSample(string(mbody), "provd_db_tuples", `{scheme="advanced"}`)
	exs, eok := promSample(string(mbody), "provd_db_tuples", `{scheme="exspan"}`)
	if !aok || !eok || adv >= exs {
		t.Fatalf("/metrics provd_db_tuples advanced %g (ok=%v), exspan %g (ok=%v); want advanced below exspan", adv, aok, exs, eok)
	}
}

// TestTraceEndpoint drives the serving layer's trace surface end to end:
// a traced daemon returns a trace_id on /v1/query, serves that trace as
// valid parent-linked Chrome JSON on /v1/trace/{id}, replays the ID on
// cache hits, exposes per-class byte counters on /metrics that sum to
// the transport byte total, and 404s unknown IDs.
func TestTraceEndpoint(t *testing.T) {
	tr := trace.NewCollector(0)
	g := topo.Line(4, "n")
	c, err := cluster.New(cluster.Config{
		Prog:   apps.Forwarding(),
		Funcs:  apps.Funcs(),
		Nodes:  g.Nodes(),
		Scheme: "advanced",
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Clusters: map[string]*cluster.Cluster{"advanced": c},
		Tracer:   tr,
	})

	postEvents(t, ts.URL, 10000, packetSpec("n0", "n3", "traced"))
	qr, resp := get(t, ts.URL, tupleSpec{Rel: "recv", Args: []any{"n3", "n0", "n3", "traced"}})
	if resp.StatusCode != http.StatusOK || len(qr.Trees) == 0 {
		t.Fatalf("query: status %d, %d trees", resp.StatusCode, len(qr.Trees))
	}
	if qr.TraceID == "" {
		t.Fatal("traced query returned no trace_id")
	}

	// The cache hit must replay the cold run's trace ID.
	hit, _ := get(t, ts.URL, tupleSpec{Rel: "recv", Args: []any{"n3", "n0", "n3", "traced"}})
	if !hit.Cached || hit.TraceID != qr.TraceID {
		t.Fatalf("cache hit: cached=%v trace_id=%q, want cold run's %q", hit.Cached, hit.TraceID, qr.TraceID)
	}

	// /v1/trace/{id} serves the span tree as valid Chrome trace JSON.
	tresp, err := http.Get(ts.URL + "/v1/trace/" + qr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(tresp.Body) //nolint:errcheck
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: %s: %s", tresp.Status, body)
	}
	n, err := trace.ValidateChrome(body)
	if err != nil {
		t.Fatalf("trace export invalid: %v", err)
	}
	id, err := strconv.ParseUint(qr.TraceID, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Trace(trace.TraceID(id))
	if n != len(spans) {
		t.Fatalf("chrome export has %d events, collector has %d spans", n, len(spans))
	}
	if err := trace.CheckLinked(spans); err != nil {
		t.Fatalf("served trace not parent-linked: %v", err)
	}

	// The ID listing must include the trace we just fetched.
	lresp, err := http.Get(ts.URL + "/v1/trace/")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces []string `json:"traces"`
	}
	err = json.NewDecoder(lresp.Body).Decode(&listing)
	lresp.Body.Close()
	if err != nil || lresp.StatusCode != http.StatusOK {
		t.Fatalf("trace listing: status %d err %v", lresp.StatusCode, err)
	}
	found := false
	for _, tid := range listing.Traces {
		if tid == qr.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace listing %v missing %s", listing.Traces, qr.TraceID)
	}

	// Unknown and malformed IDs answer 404/400, not 200.
	for path, want := range map[string]int{
		"/v1/trace/ffffffffffffffff": http.StatusNotFound,
		"/v1/trace/nothex":           http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// /metrics: the per-class byte counters must sum to the aggregate
	// transport byte total, and the trace gauges must be live.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body) //nolint:errcheck
	mresp.Body.Close()
	exposition := string(mbody)
	classSum := 0.0
	for _, class := range []string{"base", "prov", "query", "batch"} {
		v, ok := promSample(exposition, "provd_bytes_total", fmt.Sprintf(`{scheme="advanced",class=%q}`, class))
		if !ok {
			t.Fatalf("/metrics missing provd_bytes_total class %q:\n%s", class, exposition)
		}
		classSum += v
	}
	if total := float64(c.TransportStats().BytesTotal); classSum != total {
		t.Fatalf("/metrics class sum %g != transport total %g", classSum, total)
	}
	if v, ok := promSample(exposition, "provd_trace_spans", ""); !ok || v <= 0 {
		t.Fatalf("/metrics provd_trace_spans = %g (ok=%v), want > 0", v, ok)
	}
	if _, ok := promSample(exposition, "provd_graveyard_tuples", `{scheme="advanced"}`); !ok {
		t.Fatal("/metrics missing provd_graveyard_tuples")
	}
	if v, ok := promSample(exposition, "provd_db_tuples", `{scheme="advanced"}`); !ok || v != float64(c.DatabaseTuples()) || v <= 0 {
		t.Fatalf("/metrics provd_db_tuples = %g (ok=%v), want the cluster's %d", v, ok, c.DatabaseTuples())
	}
}

// TestTraceEndpointDisabled pins the untraced daemon's behavior: 404 on
// /v1/trace/, no trace_id in query responses.
func TestTraceEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postEvents(t, ts.URL, 10000, packetSpec("n0", "n2", "plain"))
	qr, _ := get(t, ts.URL, tupleSpec{Rel: "recv", Args: []any{"n2", "n0", "n2", "plain"}})
	if qr.TraceID != "" {
		t.Fatalf("untraced daemon returned trace_id %q", qr.TraceID)
	}
	resp, err := http.Get(ts.URL + "/v1/trace/0123456789abcdef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint on untraced daemon: status %d, want 404", resp.StatusCode)
	}
}

// promSample scans an exposition for one sample line with the exact
// label set (pass "" for unlabeled) and returns its value.
func promSample(exposition, name, labels string) (float64, bool) {
	prefix := name + labels + " "
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, prefix), "%g", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
