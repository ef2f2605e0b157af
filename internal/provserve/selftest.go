package provserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"provcompress/internal/trace"
	"provcompress/internal/workload"
)

// SelfTestConfig tunes the end-to-end smoke run.
type SelfTestConfig struct {
	// BaseURL is the root of a running daemon that was booted with all
	// the schemes listed in Schemes.
	BaseURL string
	// Schemes are the scheme names to query (default: advanced only).
	Schemes []string
	// Nodes is the chain length of the daemon's topology (used to pick
	// the longest route for injected packets; default 5).
	Nodes int
	// Packets is how many packets to inject (default 12).
	Packets int
	// LoadRequests sizes the closing benchmark phase (default 400).
	LoadRequests int
	// Out receives progress lines; nil discards them.
	Out io.Writer
}

// SelfTest exercises a running daemon end to end over real HTTP — the
// `make serve-smoke` gate:
//
//  1. inject a packet workload over POST /v1/events and quiesce;
//  2. run one cold query per scheme and assert it returns provenance;
//  3. repeat the advanced query and assert it is served from cache at
//     least 10x faster (server-side) than the cold run;
//  4. scrape /metrics and assert the serving counters are non-zero;
//  5. run a short Zipf-driven load phase and report QPS + p50/p95/p99.
//
// It returns an error on the first violated expectation.
func SelfTest(cfg SelfTestConfig) error {
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = []string{"advanced"}
	}
	if cfg.Nodes < 2 {
		cfg.Nodes = 5
	}
	if cfg.Packets <= 0 {
		cfg.Packets = 12
	}
	if cfg.LoadRequests <= 0 {
		cfg.LoadRequests = 400
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// 1. Inject packets end to end across the chain (n0 -> n<last>) plus
	// some shorter flows, then quiesce so queries see full derivations.
	last := fmt.Sprintf("n%d", cfg.Nodes-1)
	var events []tupleSpec
	for i := 0; i < cfg.Packets; i++ {
		src, dst := "n0", last
		if i%3 == 1 && cfg.Nodes > 2 {
			dst = fmt.Sprintf("n%d", cfg.Nodes/2)
		}
		payload := workload.Payload(int64(i), 48)
		events = append(events, tupleSpec{Rel: "packet", Args: []any{src, src, dst, payload}})
	}
	body, err := json.Marshal(eventsRequest{Events: events, WaitMS: 15000})
	if err != nil {
		return err
	}
	resp, err := client.Post(cfg.BaseURL+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("selftest: inject: %w", err)
	}
	var evResp eventsResponse
	err = json.NewDecoder(resp.Body).Decode(&evResp)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selftest: inject: status %s (decode err %v)", resp.Status, err)
	}
	if evResp.Accepted != len(events) || !evResp.Quiesced {
		return fmt.Errorf("selftest: inject accepted %d/%d, quiesced=%v", evResp.Accepted, len(events), evResp.Quiesced)
	}
	fmt.Fprintf(cfg.Out, "injected %d events over HTTP\n", evResp.Accepted)

	// 2. One cold query per scheme for the first end-to-end packet.
	payload0 := workload.Payload(0, 48)
	target := tupleSpec{Rel: "recv", Args: []any{last, "n0", last, payload0}}
	coldNS := map[string]int64{}
	for _, scheme := range cfg.Schemes {
		qr, status, err := getQuery(client, cfg.BaseURL, scheme, target)
		if err != nil {
			return fmt.Errorf("selftest: cold query (%s): %w", scheme, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("selftest: cold query (%s): status %d", scheme, status)
		}
		if len(qr.Trees) == 0 {
			return fmt.Errorf("selftest: cold query (%s): no provenance trees", scheme)
		}
		if qr.Cached {
			return fmt.Errorf("selftest: first query (%s) claimed a cache hit", scheme)
		}
		coldNS[scheme] = qr.ServeNS
		fmt.Fprintf(cfg.Out, "cold query (%s): %d tree(s), %d hops, %.2fms server-side\n",
			scheme, len(qr.Trees), qr.Hops, float64(qr.ServeNS)/1e6)

		// When the daemon runs with -trace, the query names its span
		// tree; it must be fetchable as valid Chrome trace JSON.
		if qr.TraceID != "" {
			tresp, err := client.Get(cfg.BaseURL + "/v1/trace/" + qr.TraceID)
			if err != nil {
				return fmt.Errorf("selftest: trace fetch (%s): %w", scheme, err)
			}
			tbody, err := io.ReadAll(tresp.Body)
			tresp.Body.Close()
			if err != nil || tresp.StatusCode != http.StatusOK {
				return fmt.Errorf("selftest: trace fetch (%s): status %s err %v", scheme, tresp.Status, err)
			}
			n, err := trace.ValidateChrome(tbody)
			if err != nil {
				return fmt.Errorf("selftest: trace %s (%s) is not valid Chrome JSON: %w", qr.TraceID, scheme, err)
			}
			fmt.Fprintf(cfg.Out, "trace %s (%s): %d spans, valid Chrome trace JSON\n", qr.TraceID, scheme, n)
		}
	}

	// 3. The same query repeated must hit the cache and be >=10x faster
	// server-side than its cold run (take the best of a few repeats so a
	// scheduler hiccup cannot fail the gate spuriously).
	scheme := cfg.Schemes[0]
	var bestHitNS int64 = 1 << 62
	for i := 0; i < 5; i++ {
		qr, status, err := getQuery(client, cfg.BaseURL, scheme, target)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("selftest: warm query %d: status %d err %v", i, status, err)
		}
		if !qr.Cached {
			return fmt.Errorf("selftest: repeat query %d (%s) missed the cache", i, scheme)
		}
		if qr.ServeNS < bestHitNS {
			bestHitNS = qr.ServeNS
		}
	}
	if bestHitNS*10 > coldNS[scheme] {
		return fmt.Errorf("selftest: cache hit not >=10x faster: cold %dns vs best hit %dns", coldNS[scheme], bestHitNS)
	}
	fmt.Fprintf(cfg.Out, "cached query (%s): %.1fx faster than cold (%.3fms -> %.3fms)\n",
		scheme, float64(coldNS[scheme])/float64(bestHitNS),
		float64(coldNS[scheme])/1e6, float64(bestHitNS)/1e6)

	// 4. /metrics must expose non-zero serving counters.
	mresp, err := client.Get(cfg.BaseURL + "/metrics")
	if err != nil {
		return fmt.Errorf("selftest: metrics scrape: %w", err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil || mresp.StatusCode != http.StatusOK {
		return fmt.Errorf("selftest: metrics scrape: status %s err %v", mresp.Status, err)
	}
	exposition := string(mbody)
	for _, counter := range []string{"provd_events_total", "provd_queries_total", "provd_cache_hits_total"} {
		v, ok := promValue(exposition, counter)
		if !ok {
			return fmt.Errorf("selftest: /metrics missing %s", counter)
		}
		if v <= 0 {
			return fmt.Errorf("selftest: /metrics %s = %g, want > 0", counter, v)
		}
	}
	if !strings.Contains(exposition, "provd_query_seconds_bucket") {
		return fmt.Errorf("selftest: /metrics missing the latency histogram")
	}
	fmt.Fprintf(cfg.Out, "metrics scrape ok (%d bytes, cache hits visible)\n", len(mbody))

	// 5. Benchmark phase: Zipf-skewed load, report throughput + tails.
	report, err := RunLoad(LoadConfig{
		BaseURL:     cfg.BaseURL,
		Scheme:      scheme,
		Requests:    cfg.LoadRequests,
		Concurrency: 8,
		Alpha:       0.9,
		Seed:        1,
	})
	if err != nil {
		return fmt.Errorf("selftest: load phase: %w", err)
	}
	if report.Errors > 0 {
		return fmt.Errorf("selftest: load phase had %d errors:\n%s", report.Errors, report)
	}
	fmt.Fprintf(cfg.Out, "load phase: %s\n", report)
	return nil
}

// getQuery issues one GET /v1/query and decodes the reply.
func getQuery(client *http.Client, baseURL, scheme string, spec tupleSpec) (queryResponse, int, error) {
	args, err := json.Marshal(spec.Args)
	if err != nil {
		return queryResponse{}, 0, err
	}
	v := url.Values{}
	v.Set("rel", spec.Rel)
	v.Set("args", string(args))
	if scheme != "" {
		v.Set("scheme", scheme)
	}
	resp, err := client.Get(baseURL + "/v1/query?" + v.Encode())
	if err != nil {
		return queryResponse{}, 0, err
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil && resp.StatusCode == http.StatusOK {
		return queryResponse{}, resp.StatusCode, err
	}
	return qr, resp.StatusCode, nil
}

// promValue scans a text exposition for an unlabeled sample of the named
// series and returns its value.
func promValue(exposition, name string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v float64
			if _, err := fmt.Sscanf(fields[1], "%g", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}
