// Soak harness: provsim soak runs every registered scenario (forwarding,
// bgp, gossip) through a full serving lifecycle on one multi-tenant
// daemon — bursty ingest over HTTP, Zipf queries from a well-behaved and
// an over-quota tenant, a slow-state deletion storm with restore — and
// then leak-checks the daemon's gauges against their baseline: graveyard
// tuples, cache entries, dependency keys, and the trace span budget must
// all come back to where they started, printing the per-scenario
// measurements (events/sec, bytes/event, sig resets, deferred landings,
// 429s) as a table.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"provcompress/internal/cluster"
	"provcompress/internal/provserve"
	"provcompress/internal/scenario"
	"provcompress/internal/trace"
	"provcompress/internal/types"
	"provcompress/internal/workload"
)

// soakSpanBudget bounds the soak tracer; the leak check asserts retention
// never exceeds it.
const soakSpanBudget = 4096

// scenarioBenchRecord is one scenario's soak measurement.
type scenarioBenchRecord struct {
	Scenario     string
	Nodes        int
	Events       int
	EventsPerSec float64
	// BytesPerEvent is the transport bytes (all classes) the ingest phase
	// moved per injected event.
	BytesPerEvent float64
	Outputs       int
	Queries       int
	HitRate       float64
	// Storm accounting: waves of slow-state churn, the graveyard high-water
	// mark they buried, and where the gauge ended after the restore pass.
	StormWaves    int
	GraveyardPeak int
	GraveyardEnd  int
	// Advanced-scheme §5.5/§5.3 counters over the whole soak.
	SigClears        int64
	DeferredOutputs  int64
	DeferredLandings int64
	// CacheInvalidations is the daemon's per-reason eviction accounting
	// (entries dropped by a fired key, mid-walk race, LRU).
	CacheInvalidations map[string]int64
	// GreedyRejected429 is how many of the over-quota tenant's requests
	// were shed; the std tenant's count must be zero and is asserted, not
	// recorded.
	GreedyRejected429 int64
}

// soakGauges is the leak-check snapshot, read over HTTP like an operator
// would.
type soakGauges struct {
	graveyard    int64
	cacheEntries int64
	depKeys      int64
	traceSpans   int64
}

// scrapeSoakGauges pulls the daemon's /metrics text and extracts the
// gauges the leak check compares.
func scrapeSoakGauges(baseURL string) (soakGauges, error) {
	var g soakGauges
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return g, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return g, err
	}
	if resp.StatusCode != http.StatusOK {
		return g, fmt.Errorf("soak: metrics scrape: %s", resp.Status)
	}
	text := string(body)
	for _, m := range []struct {
		name string
		dst  *int64
	}{
		{`provd_graveyard_tuples{scheme="advanced"}`, &g.graveyard},
		{`provd_cache_entries`, &g.cacheEntries},
		{`provd_cache_dep_keys`, &g.depKeys},
		{`provd_trace_spans`, &g.traceSpans},
	} {
		v, err := promGaugeValue(text, m.name)
		if err != nil {
			return g, err
		}
		*m.dst = v
	}
	return g, nil
}

// promGaugeValue finds `name value` in a Prometheus text exposition. The
// name must match a full series (metric plus labels), not a prefix of a
// longer one.
func promGaugeValue(text, name string) (int64, error) {
	for _, line := range bytes.Split([]byte(text), []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(name))
		if !ok || len(rest) == 0 || rest[0] != ' ' {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(string(rest), "%f", &v); err != nil {
			return 0, fmt.Errorf("soak: bad gauge line %q: %w", line, err)
		}
		return int64(v), nil
	}
	return 0, fmt.Errorf("soak: gauge %s not found in /metrics", name)
}

// soakSpec converts a tuple into the /v1/events wire form.
func soakSpec(t types.Tuple) map[string]any {
	args := make([]any, len(t.Args))
	for i, a := range t.Args {
		switch a.Kind() {
		case types.KindInt:
			args[i] = a.AsInt()
		case types.KindBool:
			args[i] = a.AsBool()
		default:
			args[i] = a.AsString()
		}
	}
	return map[string]any{"rel": t.Rel, "args": args}
}

// soakPost sends one batch of events as the given tenant, with
// read-your-writes quiescence.
func soakPost(baseURL, tenant string, events []map[string]any) error {
	body, err := json.Marshal(map[string]any{"events": events, "wait_ms": 60_000})
	if err != nil {
		return err
	}
	resp, err := http.Post(baseURL+"/v1/events?tenant="+tenant, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var evResp struct {
		Accepted int  `json:"accepted"`
		Quiesced bool `json:"quiesced"`
	}
	err = json.NewDecoder(resp.Body).Decode(&evResp)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || evResp.Accepted != len(events) || !evResp.Quiesced {
		return fmt.Errorf("soak: batch of %d: status %d, accepted %d, quiesced %v",
			len(events), resp.StatusCode, evResp.Accepted, evResp.Quiesced)
	}
	return nil
}

// stormOps applies a deletion storm through the cluster's slow-update
// path and returns the graveyard high-water mark it reached.
func stormOps(c *cluster.Cluster, storm workload.DeletionStorm) (peak int, err error) {
	for _, op := range storm.Ops() {
		if op.Insert {
			err = c.InsertSlow(op.Tuple)
		} else {
			err = c.DeleteSlow(op.Tuple)
		}
		if err != nil {
			return peak, err
		}
		peak = max(peak, c.GraveyardSize())
	}
	return peak, c.Quiesce(time.Minute)
}

// soakScenario runs one scenario's full lifecycle and returns its record.
func soakScenario(name string, smoke bool) (scenarioBenchRecord, error) {
	nodes, queries, stormWaves := 9, 1200, 6
	burst := workload.Bursty{Period: time.Second, BurstLen: 450 * time.Millisecond, Rate: 40}
	horizon := 4 * time.Second
	if smoke {
		nodes, queries, stormWaves = 6, 250, 3
		burst = workload.Bursty{Period: time.Second, BurstLen: 400 * time.Millisecond, Rate: 10}
		horizon = 2 * time.Second
	}
	rec := scenarioBenchRecord{Scenario: name, Nodes: nodes, Queries: queries, StormWaves: stormWaves}

	sc, err := scenario.Get(name)
	if err != nil {
		return rec, err
	}
	g := sc.Topology(nodes)
	tracer := trace.NewCollector(soakSpanBudget)
	c, err := cluster.New(cluster.Config{
		Prog:         sc.Prog(),
		Funcs:        sc.Funcs(),
		Nodes:        g.Nodes(),
		Scheme:       "advanced",
		Tracer:       tracer,
		GraveyardCap: 16,
	})
	if err != nil {
		return rec, err
	}
	defer c.Close()
	if err := c.LoadBase(sc.Base(g)); err != nil {
		return rec, err
	}
	srv, err := provserve.New(provserve.Config{
		Clusters: map[string]*cluster.Cluster{"advanced": c},
		Tracer:   tracer,
		Tenants: []provserve.TenantConfig{
			{Name: "std"}, // unlimited: the well-behaved tenant
			// The greedy tenant's budget covers a handful of requests and
			// then effectively never refills: its load run must 429.
			{Name: "greedy", QPS: 0.001, Burst: 5},
		},
	})
	if err != nil {
		return rec, err
	}
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	base, err := scrapeSoakGauges(hts.URL)
	if err != nil {
		return rec, err
	}

	// Phase 1 — bursty ingest: the generator's schedule shapes the event
	// stream into burst-sized batches (the daemon sees the same
	// arrival-count profile a timed replay would produce, without the
	// idle-gap wall time).
	times := burst.Times(horizon)
	rec.Events = len(times)
	tsBefore := c.TransportStats()
	ingestStart := time.Now()
	var batch []map[string]any
	injected := make([]types.Tuple, 0, len(times))
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := soakPost(hts.URL, "std", batch)
		batch = batch[:0]
		return err
	}
	for i, at := range times {
		if i > 0 && at-times[i-1] > burst.BurstLen {
			if err := flush(); err != nil {
				return rec, err
			}
		}
		ev := sc.Event(g, int64(i))
		injected = append(injected, ev)
		batch = append(batch, soakSpec(ev))
	}
	if err := flush(); err != nil {
		return rec, err
	}
	ingestWall := time.Since(ingestStart)
	rec.EventsPerSec = float64(rec.Events) / ingestWall.Seconds()
	tsAfter := c.TransportStats()
	moved := (tsAfter.BytesBase + tsAfter.BytesProv + tsAfter.BytesQuery + tsAfter.BytesBatch) -
		(tsBefore.BytesBase + tsBefore.BytesProv + tsBefore.BytesQuery + tsBefore.BytesBatch)
	rec.BytesPerEvent = float64(moved) / float64(max(1, rec.Events))
	rec.Outputs = len(c.AllOutputs())
	if rec.Outputs == 0 {
		return rec, fmt.Errorf("soak %s: ingest produced no outputs", name)
	}

	// Phase 2 — Zipf queries: the std tenant's full run must admit
	// everything; the greedy tenant's short run must shed.
	rep, err := provserve.RunLoad(provserve.LoadConfig{
		BaseURL: hts.URL, Requests: queries, Concurrency: 4,
		Alpha: 0.9, Seed: 1, Tenant: "std",
	})
	if err != nil {
		return rec, err
	}
	if rep.Errors > 0 || rep.Rejected > 0 {
		return rec, fmt.Errorf("soak %s: std tenant saw %d errors, %d rejections (want 0/0)",
			name, rep.Errors, rep.Rejected)
	}
	rec.HitRate = float64(rep.CacheHits) / float64(max(1, rep.Requests))
	grep, err := provserve.RunLoad(provserve.LoadConfig{
		BaseURL: hts.URL, Requests: 40, Concurrency: 2,
		Alpha: 0.9, Seed: 2, Tenant: "greedy",
	})
	if err != nil {
		return rec, err
	}
	if grep.Errors > 0 {
		return rec, fmt.Errorf("soak %s: greedy tenant saw %d errors", name, grep.Errors)
	}
	if grep.Rejected == 0 {
		return rec, fmt.Errorf("soak %s: greedy tenant was never rate-limited (%d requests)", name, 40)
	}
	rec.GreedyRejected429 = int64(grep.Rejected)

	// Phase 3 — deletion storm with restore: slow-state churn through the
	// runtime update path. Every insert broadcasts a §5.5 sig, every
	// delete buries a graveyard tuple, and the final restore pass must
	// bring the graveyard gauge back to its baseline.
	churn := make([]types.Tuple, 12)
	for i := range churn {
		churn[i] = sc.Churn(g, i)
	}
	rec.GraveyardPeak, err = stormOps(c, workload.DeletionStorm{Tuples: churn, Waves: stormWaves, Restore: true})
	if err != nil {
		return rec, err
	}
	if rec.GraveyardPeak == 0 {
		return rec, fmt.Errorf("soak %s: deletion storm buried nothing", name)
	}

	// Phase 4 — cache drain: every cached answer carries the VID keys of
	// the events its trees grew from (the query frame came from phase 1's
	// outputs), so one delete/restore wave over the injected events fires
	// a key of every entry. After this the cache gauges must be back at
	// baseline — and so must the graveyard, again.
	if _, err := stormOps(c, workload.DeletionStorm{Tuples: injected, Waves: 1, Restore: true}); err != nil {
		return rec, err
	}

	// Leak checks against the baseline scrape.
	end, err := scrapeSoakGauges(hts.URL)
	if err != nil {
		return rec, err
	}
	rec.GraveyardEnd = int(end.graveyard)
	if end.graveyard != base.graveyard {
		return rec, fmt.Errorf("soak %s: graveyard leaked: %d tuples at end, baseline %d",
			name, end.graveyard, base.graveyard)
	}
	if end.cacheEntries != base.cacheEntries {
		return rec, fmt.Errorf("soak %s: cache leaked: %d entries at end, baseline %d",
			name, end.cacheEntries, base.cacheEntries)
	}
	if end.depKeys != base.depKeys {
		return rec, fmt.Errorf("soak %s: dependency index leaked: %d keys at end, baseline %d",
			name, end.depKeys, base.depKeys)
	}
	if end.traceSpans > soakSpanBudget {
		return rec, fmt.Errorf("soak %s: trace retention %d exceeds the %d-span budget",
			name, end.traceSpans, soakSpanBudget)
	}

	// Advanced-scheme counters: the storm's slow inserts must have fired
	// sig resets on every member.
	adv := c.AdvancedStats()
	rec.SigClears = adv.SigClears
	rec.DeferredOutputs = adv.DeferredOutputs
	rec.DeferredLandings = adv.DeferredLandings
	if rec.SigClears == 0 {
		return rec, fmt.Errorf("soak %s: no sig resets despite %d slow inserts", name, stormWaves*len(churn))
	}

	// Per-reason cache eviction accounting and per-tenant 429 audit from
	// /v1/stats.
	resp, err := http.Get(hts.URL + "/v1/stats")
	if err != nil {
		return rec, err
	}
	var stats struct {
		Server  map[string]int64 `json:"server"`
		Tenants map[string]struct {
			RejectedRate  int64 `json:"rejected_rate"`
			RejectedQuota int64 `json:"rejected_quota"`
		} `json:"tenants"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return rec, err
	}
	rec.CacheInvalidations = make(map[string]int64)
	for k, v := range stats.Server {
		if rest, ok := cutPrefix(k, "cache-invalidated-"); ok {
			rec.CacheInvalidations[rest] = v
		}
	}
	if n := stats.Tenants["std"].RejectedRate + stats.Tenants["std"].RejectedQuota; n != 0 {
		return rec, fmt.Errorf("soak %s: std tenant was rejected %d times", name, n)
	}
	if n := stats.Tenants["greedy"].RejectedRate; n == 0 {
		return rec, fmt.Errorf("soak %s: greedy tenant shows no rate rejections in /v1/stats", name)
	}
	return rec, nil
}

// cutPrefix is strings.CutPrefix without pulling the import into a file
// that otherwise works on bytes.
func cutPrefix(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || s[:len(prefix)] != prefix {
		return s, false
	}
	return s[len(prefix):], true
}

// benchScenarios soaks every registered scenario.
func benchScenarios(smoke bool) ([]scenarioBenchRecord, error) {
	var out []scenarioBenchRecord
	for _, name := range scenario.Names() {
		rec, err := soakScenario(name, smoke)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// runSoak executes the soak across all scenarios, prints the table, and
// fails on any lifecycle or leak-check violation (the assertions live in
// soakScenario).
func runSoak(w io.Writer, smoke bool) error {
	recs, err := benchScenarios(smoke)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-11s %6s %7s %9s %10s %8s %9s %7s %6s %6s %7s %7s\n",
		"scenario", "nodes", "events", "events/s", "bytes/ev", "hit-rate",
		"gy-peak", "gy-end", "sigs", "defer", "landed", "429s")
	for _, r := range recs {
		fmt.Fprintf(w, "%-11s %6d %7d %9.0f %10.1f %8.3f %9d %7d %6d %6d %7d %7d\n",
			r.Scenario, r.Nodes, r.Events, r.EventsPerSec, r.BytesPerEvent, r.HitRate,
			r.GraveyardPeak, r.GraveyardEnd, r.SigClears, r.DeferredOutputs,
			r.DeferredLandings, r.GreedyRejected429)
	}
	fmt.Fprintf(w, "soak: %d scenarios clean — graveyard, cache, and dep-key gauges at baseline; only the greedy tenant was throttled\n", len(recs))
	return nil
}
