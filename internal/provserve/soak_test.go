package provserve

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"provcompress/internal/cluster"
	"provcompress/internal/scenario"
	"provcompress/internal/trace"
	"provcompress/internal/types"
	"provcompress/internal/workload"
)

// TestScenarioSoak runs every registered scenario through a serving
// lifecycle on one multi-tenant daemon: bursty ingest, Zipf queries from a
// well-behaved and an over-quota tenant, a slow-state deletion storm with
// restore, and a cache drain. Afterwards the graveyard, cache-entry and
// dependency-key gauges must be back at their baselines and the trace
// retention within its span budget.
func TestScenarioSoak(t *testing.T) {
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) { soakScenario(t, name) })
	}
}

func soakScenario(t *testing.T, name string) {
	const spanBudget = 4096
	sc, err := scenario.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Topology(6)
	tracer := trace.NewCollector(spanBudget)
	c, err := cluster.New(cluster.Config{
		Prog:         sc.Prog(),
		Funcs:        sc.Funcs(),
		Nodes:        g.Nodes(),
		Scheme:       "advanced",
		Tracer:       tracer,
		GraveyardCap: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(sc.Base(g)); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Clusters: map[string]*cluster.Cluster{"advanced": c},
		Tracer:   tracer,
		Tenants: []TenantConfig{
			{Name: "std"}, // unlimited: the well-behaved tenant
			// A budget of a handful of requests that effectively never
			// refills: the greedy tenant's load run must see 429s.
			{Name: "greedy", QPS: 0.001, Burst: 5},
		},
	})
	gauges := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, s := range []struct{ name, labels string }{
			{"provd_graveyard_tuples", `{scheme="advanced"}`},
			{"provd_cache_entries", ""},
			{"provd_cache_dep_keys", ""},
			{"provd_trace_spans", ""},
		} {
			v, ok := promSample(string(body), s.name, s.labels)
			if !ok {
				t.Fatalf("/metrics missing %s%s", s.name, s.labels)
			}
			out[s.name] = v
		}
		return out
	}
	// storm applies slow-state churn through the runtime update path and
	// returns the graveyard's high-water mark.
	storm := func(s workload.DeletionStorm) (peak int) {
		t.Helper()
		for _, op := range s.Ops() {
			var err error
			if op.Insert {
				err = c.InsertSlow(op.Tuple)
			} else {
				err = c.DeleteSlow(op.Tuple)
			}
			if err != nil {
				t.Fatal(err)
			}
			peak = max(peak, c.GraveyardSize())
		}
		if err := c.Quiesce(time.Minute); err != nil {
			t.Fatal(err)
		}
		return peak
	}
	base := gauges()

	// Bursty ingest: one quiesced POST per burst of the ON/OFF schedule,
	// billed to the std tenant so its /v1/stats check covers ingest too.
	burst := workload.Bursty{Period: time.Second, BurstLen: 400 * time.Millisecond, Rate: 10}
	times := burst.Times(2 * time.Second)
	var batch []tupleSpec
	post := func() {
		if er := postEventsAs(t, ts.URL, "std", 60_000, batch...); er.Accepted != len(batch) || !er.Quiesced {
			t.Fatalf("burst of %d = %+v", len(batch), er)
		}
		batch = batch[:0]
	}
	injected := make([]types.Tuple, 0, len(times))
	for i, at := range times {
		if i > 0 && at-times[i-1] > burst.BurstLen {
			post()
		}
		ev := sc.Event(g, int64(i))
		injected = append(injected, ev)
		batch = append(batch, specOf(ev))
	}
	post()
	if len(c.AllOutputs()) == 0 {
		t.Fatal("ingest produced no outputs")
	}

	// Zipf queries: the std tenant is admitted throughout, the greedy one
	// is shed.
	rep, err := RunLoad(LoadConfig{BaseURL: ts.URL, Requests: 250, Concurrency: 4, Alpha: 0.9, Seed: 1, Tenant: "std"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 || rep.Rejected > 0 {
		t.Fatalf("std tenant saw %d errors, %d rejections, want 0/0", rep.Errors, rep.Rejected)
	}
	greedy, err := RunLoad(LoadConfig{BaseURL: ts.URL, Requests: 40, Concurrency: 2, Alpha: 0.9, Seed: 2, Tenant: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Errors > 0 || greedy.Rejected == 0 {
		t.Fatalf("greedy tenant saw %d errors, %d rejections, want 0 and some", greedy.Errors, greedy.Rejected)
	}

	// Deletion storm with restore: every insert broadcasts a §5.5 sig,
	// every delete buries a graveyard tuple.
	churn := make([]types.Tuple, 12)
	for i := range churn {
		churn[i] = sc.Churn(g, i)
	}
	if peak := storm(workload.DeletionStorm{Tuples: churn, Waves: 3, Restore: true}); peak == 0 {
		t.Fatal("deletion storm buried nothing")
	}
	if adv := c.AdvancedStats(); adv.SigClears == 0 {
		t.Fatalf("no sig resets despite %d slow inserts: %+v", 3*len(churn), adv)
	}

	// Cache drain: every cached answer depends on the VID of an injected
	// event, so one delete/restore wave over them fires a key of every
	// entry.
	storm(workload.DeletionStorm{Tuples: injected, Waves: 1, Restore: true})

	end := gauges()
	for _, gauge := range []string{"provd_graveyard_tuples", "provd_cache_entries", "provd_cache_dep_keys"} {
		if end[gauge] != base[gauge] {
			t.Errorf("%s leaked: %g at end, baseline %g", gauge, end[gauge], base[gauge])
		}
	}
	if end["provd_trace_spans"] > spanBudget {
		t.Errorf("trace retention %g exceeds the %d-span budget", end["provd_trace_spans"], spanBudget)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if std := stats.Tenants["std"]; std.RejectedRate+std.RejectedQuota != 0 {
		t.Errorf("/v1/stats: std tenant rejected %+v", std)
	}
	if stats.Tenants["greedy"].RejectedRate == 0 {
		t.Error("/v1/stats: greedy tenant shows no rate rejections")
	}
}
