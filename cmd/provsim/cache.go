package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/cluster"
	"provcompress/internal/provserve"
	"provcompress/internal/topo"
)

// cacheBenchRecord is one measured mixed read/write cache run: Zipf
// readers over a preloaded output frame racing a writer that injects a
// fresh event every 500µs into the readers' own equivalence class.
type cacheBenchRecord struct {
	Nodes     int
	Events    int // preloaded read targets
	Queries   int
	Writes    int // events landed during the read phase
	CacheHits int
	HitRate   float64
	P50MS     float64
	P99MS     float64
	QPS       float64
}

// cacheBenchRun boots a fresh chain cluster + daemon, preloads a packet
// workload into the one class the writer will keep writing to, then
// measures the mixed workload.
func cacheBenchRun(smoke bool) (cacheBenchRecord, error) {
	nodes, events, queries := 8, 40, 4000
	if smoke {
		nodes, events, queries = 5, 12, 800
	}
	rec := cacheBenchRecord{Nodes: nodes, Events: events, Queries: queries}

	g := topo.Line(nodes, "n")
	c, err := cluster.New(cluster.Config{
		Prog:  apps.Forwarding(),
		Funcs: apps.Funcs(),
		Nodes: g.Nodes(),
	})
	if err != nil {
		return rec, err
	}
	defer c.Close()
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		return rec, err
	}
	srv, err := provserve.New(provserve.Config{
		Clusters: map[string]*cluster.Cluster{"advanced": c},
	})
	if err != nil {
		return rec, err
	}
	defer srv.Close()
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	// Preload: every packet travels n0 -> n<last>, the class the writer
	// injects into. Each of its events lands a prov row under its own event
	// ID and nothing else (§5.3), so no read target may lose its entry.
	last := fmt.Sprintf("n%d", nodes-1)
	specs := make([]map[string]any, events)
	for i := range specs {
		specs[i] = map[string]any{"rel": "packet", "args": []any{"n0", "n0", last, fmt.Sprintf("pre-%d", i)}}
	}
	body, err := json.Marshal(map[string]any{"events": specs, "wait_ms": 60_000})
	if err != nil {
		return rec, err
	}
	resp, err := http.Post(hts.URL+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return rec, err
	}
	var evResp struct {
		Accepted int  `json:"accepted"`
		Quiesced bool `json:"quiesced"`
	}
	err = json.NewDecoder(resp.Body).Decode(&evResp)
	resp.Body.Close()
	if err != nil {
		return rec, err
	}
	if evResp.Accepted != events || !evResp.Quiesced {
		return rec, fmt.Errorf("cache bench: preload accepted %d/%d, quiesced %v",
			evResp.Accepted, events, evResp.Quiesced)
	}

	rep, err := provserve.RunMixedLoad(provserve.MixedLoadConfig{
		LoadConfig: provserve.LoadConfig{
			BaseURL:     hts.URL,
			Requests:    queries,
			Concurrency: 8,
			Alpha:       0.9,
			Seed:        1,
		},
		WriteInterval: 500 * time.Microsecond,
		WriteSrc:      "n0",
		WriteDst:      last,
	})
	if err != nil {
		return rec, err
	}
	if rep.Errors > 0 || rep.WriteErrors > 0 {
		return rec, fmt.Errorf("cache bench: %d query errors, %d write errors", rep.Errors, rep.WriteErrors)
	}
	rec.Writes = rep.Writes
	rec.CacheHits = rep.CacheHits
	rec.HitRate = rep.HitRate
	rec.P50MS = float64(rep.P50.Microseconds()) / 1000
	rec.P99MS = float64(rep.P99.Microseconds()) / 1000
	rec.QPS = rep.QPS
	return rec, nil
}

// runCacheSmoke executes the mixed workload, prints it, and enforces the
// floor the keyed cache was built for: under sustained writes — here into
// the very class every cached answer belongs to — the hit rate must stay
// above 0.5, and the writer must actually have sustained writes.
func runCacheSmoke(w io.Writer, smoke bool) error {
	r, err := cacheBenchRun(smoke)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %7s %8s %7s %9s %9s %9s %10s\n",
		"nodes", "events", "queries", "writes", "hit-rate", "p50-ms", "p99-ms", "qps")
	fmt.Fprintf(w, "%6d %7d %8d %7d %9.3f %9.3f %9.3f %10.0f\n",
		r.Nodes, r.Events, r.Queries, r.Writes, r.HitRate, r.P50MS, r.P99MS, r.QPS)
	if r.Writes == 0 {
		return fmt.Errorf("cache: writer landed no events; run degenerate")
	}
	if r.HitRate <= 0.5 {
		return fmt.Errorf("cache: hit rate %.3f under sustained same-class writes, want > 0.5", r.HitRate)
	}
	fmt.Fprintf(w, "cache: keyed invalidation holds %.0f%% hits under sustained same-class writes\n", 100*r.HitRate)
	return nil
}
