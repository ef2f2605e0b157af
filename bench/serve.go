package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"provcompress/internal/cluster"
	"provcompress/internal/provserve"
	"provcompress/internal/types"
	wl "provcompress/internal/workload"
)

// queryTimeout bounds one direct QueryContext attempt.
const queryTimeout = 10 * time.Second

// daemon is the serving layer under test: provserve's handler over one
// Advanced cluster, behind an in-process HTTP server on loopback.
type daemon struct {
	e      *env
	c      *cluster.Cluster
	srv    *provserve.Server
	ts     *httptest.Server
	client *http.Client
}

func (e *env) startDaemon(c *cluster.Cluster) (*daemon, error) {
	// Default Workers, QueueDepth and CacheSize (1024 entries).
	srv, err := provserve.New(provserve.Config{
		Clusters: map[string]*cluster.Cluster{"advanced": c},
		Tracer:   e.tracer,
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &daemon{e: e, c: c, srv: srv, ts: ts, client: ts.Client()}, nil
}

// close stops the HTTP server and the worker pool; the cluster stays
// with its owner.
func (d *daemon) close() {
	d.ts.Close()
	d.srv.Close()
}

func jsonArgs(t types.Tuple) []any {
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
	return args
}

// queryURL is GET /v1/query for the output ev derives, pinned to ev's
// event ID so exactly one tree comes back.
func (d *daemon) queryURL(ev types.Tuple) string {
	out := d.e.wl.output(ev)
	args, _ := json.Marshal(jsonArgs(out)) //nolint:errcheck // strings, ints and bools always marshal
	q := url.Values{}
	q.Set("rel", out.Rel)
	q.Set("args", string(args))
	q.Set("evid", types.HashTuple(ev).Hex())
	return d.ts.URL + "/v1/query?" + q.Encode()
}

// queryReply is the part of provserve's query response the benchmark
// checks.
type queryReply struct {
	Cached bool     `json:"cached"`
	Trees  []string `json:"trees"`
	Hops   int      `json:"hops"`
}

// get issues one query and counts it: a transport error, a non-200
// status (429 included) or an empty tree list is a failed operation.
func (d *daemon) get(u string) (queryReply, bool) {
	sp := d.e.span("bench.http", "GET /v1/query")
	defer sp.End()
	var rep queryReply
	resp, err := d.client.Get(u)
	if !d.e.ops.attempt(err) {
		return rep, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		d.e.ops.fail("read query reply: " + err.Error())
	case resp.StatusCode != http.StatusOK:
		d.e.ops.fail(fmt.Sprintf("query status %d: %s", resp.StatusCode, bytes.TrimSpace(body)))
	case json.Unmarshal(body, &rep) != nil || len(rep.Trees) == 0:
		d.e.ops.fail("query reply without a tree: " + string(bytes.TrimSpace(body)))
	default:
		return rep, true
	}
	return rep, false
}

// post sends one event to POST /v1/events without waiting for quiesce.
func (d *daemon) post(ev types.Tuple) {
	sp := d.e.span("bench.http", "POST /v1/events")
	defer sp.End()
	body, _ := json.Marshal(map[string]any{ //nolint:errcheck // see queryURL
		"events": []map[string]any{{"rel": ev.Rel, "args": jsonArgs(ev)}},
	})
	resp, err := d.client.Post(d.ts.URL+"/v1/events", "application/json", bytes.NewReader(body))
	if !d.e.ops.attempt(err) {
		return
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.e.ops.fail(fmt.Sprintf("post status %d", resp.StatusCode))
	}
}

// coldResult is the samples of the cold queries.
type coldResult struct {
	latMS []float64
	hits  int // must stay 0: every output is asked once
	hops  int
}

// coldClients is the number of closed-loop clients of the cold stage:
// operator tooling that waits for each answer before asking the next.
const coldClients = 2

// serving is the daemon plus the split of the cluster's events between
// the serving stages.
type serving struct {
	d       *daemon
	unasked []types.Tuple // events whose outputs no query has touched yet
	urls    []string      // query URLs of the reader's working set, by Zipf rank
	working []types.Tuple
	zipf    *wl.Zipf
	unsent  []types.Tuple // the writer's remaining events
	cold    coldResult
	mixed   mixedResult
}

// coldStage asks the provenance of not-yet-asked outputs, each exactly
// once, from coldClients closed-loop clients, until budget has passed
// and at least minQueries were answered (or the outputs run out).
func (s *serving) coldStage(budget time.Duration, minQueries int) {
	var (
		next atomic.Int64 // cursor into s.unasked
		done atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(budget)
	for k := 0; k < coldClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			hits, hops := 0, 0
			for int(done.Load()) < minQueries || time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(s.unasked) {
					break
				}
				u := s.d.queryURL(s.unasked[i])
				t := time.Now()
				rep, ok := s.d.get(u)
				if !ok {
					continue
				}
				lat = append(lat, millis(time.Since(t)))
				done.Add(1)
				hops += rep.Hops
				if rep.Cached {
					hits++
				}
			}
			mu.Lock()
			s.cold.latMS = append(s.cold.latMS, lat...)
			s.cold.hits += hits
			s.cold.hops += hops
			mu.Unlock()
		}()
	}
	wg.Wait()
	s.unasked = s.unasked[min(int(next.Load()), len(s.unasked)):]
}

// openLoop runs op(i) for i = 0, 1, … at start + i·interval from one
// goroutine until stop is closed, regardless of how long earlier calls
// took: a slow call delays the next send but not its due time. It
// returns, per call, the latency measured from when the call was due
// (so a stall is charged to every request it held up) and how late the
// call was actually sent.
func openLoop(interval time.Duration, stop <-chan struct{}, now func() time.Time,
	wait func(d time.Duration, stop <-chan struct{}) bool, op func(i int)) (latMS, lagMS []float64) {
	start := now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(now()); d > 0 {
			if !wait(d, stop) {
				return
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := now()
		op(i)
		latMS = append(latMS, millis(now().Sub(due)))
		lagMS = append(lagMS, millis(sent.Sub(due)))
	}
}

// sleepOrStop waits d and reports false if stop closed first.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// mixedResult is the samples of the mixed stage.
type mixedResult struct {
	dur       time.Duration
	readMS    []float64
	hitMS     []float64 // the reads served from the cache
	writeMS   []float64 // from due time
	serviceMS []float64 // POST round trip from send time
	lagMS     []float64
	written   []types.Tuple
}

// mixedStage runs one closed-loop reader drawing outputs of the working
// set Zipf(0.9) beside one open-loop writer that POSTs one event every
// size.writeInterval, for dur — longer if minOps reads or writes would
// otherwise be missing.
func (s *serving) mixedStage(dur time.Duration, minOps int) {
	d, res := s.d, &s.mixed
	var posted atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lat, lag := openLoop(d.e.size.writeInterval, stop, time.Now, sleepOrStop, func(i int) {
			if i >= len(s.unsent) {
				return
			}
			t := time.Now()
			d.post(s.unsent[i])
			res.serviceMS = append(res.serviceMS, millis(time.Since(t)))
			posted.Add(1)
		})
		n := int(posted.Load())
		res.writeMS = append(res.writeMS, lat[:n]...)
		res.lagMS = append(res.lagMS, lag[:n]...)
		res.written = append(res.written, s.unsent[:n]...)
		s.unsent = s.unsent[n:]
	}()
	start := time.Now()
	for reads := 0; time.Since(start) < dur || reads < minOps || int(posted.Load()) < min(minOps, len(s.unsent)); {
		t := time.Now()
		rep, ok := d.get(s.urls[s.zipf.Next()])
		if !ok {
			continue
		}
		reads++
		ms := millis(time.Since(t))
		res.readMS = append(res.readMS, ms)
		if rep.Cached {
			res.hitMS = append(res.hitMS, ms)
		}
	}
	res.dur += time.Since(start)
	close(stop)
	wg.Wait()
}

// directQuery asks the cluster for ev's provenance without HTTP.
func (e *env) directQuery(c *cluster.Cluster, ev types.Tuple) (cluster.QueryResult, bool) {
	sp := e.span("bench.query", "QueryContext")
	res, err := c.QueryContext(context.Background(), e.wl.output(ev), types.HashTuple(ev), queryTimeout)
	sp.End()
	if !e.ops.attempt(err) {
		return res, false
	}
	if len(res.Trees) == 0 {
		e.ops.fail("empty tree for " + ev.String())
		return res, false
	}
	return res, true
}

// verifyServed checks that what the daemon serves for each event of
// sample (cached or not) is byte-identical to a fresh QueryContext.
func (d *daemon) verifyServed(sample []types.Tuple) {
	for _, ev := range sample {
		rep, ok := d.get(d.queryURL(ev))
		if !ok {
			continue
		}
		fresh, ok := d.e.directQuery(d.c, ev)
		if !ok {
			continue
		}
		want := make([]string, len(fresh.Trees))
		for i, t := range fresh.Trees {
			want[i] = t.String()
		}
		d.e.ops.check(equalKeys(rep.Trees, want), "served answer for %s differs from a fresh query", ev)
	}
}

// serverStats reads the daemon's own counters: the "server" block of
// /v1/stats plus the dependency-index gauge only /metrics exports.
func (d *daemon) serverStats() map[string]float64 {
	out := map[string]float64{}
	var stats struct {
		Server  map[string]int64 `json:"server"`
		Tenants map[string]struct {
			RejectedRate  int64 `json:"rejected_rate"`
			RejectedQuota int64 `json:"rejected_quota"`
		} `json:"tenants"`
	}
	resp, err := d.client.Get(d.ts.URL + "/v1/stats")
	if d.e.ops.attempt(err) {
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		d.e.ops.check(err == nil, "decode /v1/stats: %v", err)
	}
	for k, v := range stats.Server {
		out[k] = float64(v)
	}
	for _, tn := range stats.Tenants {
		out["rejected"] += float64(tn.RejectedRate + tn.RejectedQuota)
	}
	resp, err = d.client.Get(d.ts.URL + "/metrics")
	if d.e.ops.attempt(err) {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "provd_cache_dep_keys "); ok {
				v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64) //nolint:errcheck // 0 on a malformed line
				out["cache-dep-keys"] = v
			}
		}
		resp.Body.Close()
	}
	return out
}
