// Package provserve is the serving layer: a long-lived HTTP/JSON daemon
// over one or more live clusters (one per provenance scheme), turning the
// one-shot CLI query path into an online service. It exists because the
// paper's point — compressed provenance makes distributed querying cheap
// enough to use online (§5–§6) — needs a resident process to be visible:
// cold-start CLI runs pay cluster bring-up on every query, while a daemon
// pays it once and then serves queries from a worker pool fronted by a
// key-invalidated result cache.
//
// Serving discipline:
//
//   - Queries run on a bounded worker pool; the HTTP handler never runs a
//     distributed walk on its own goroutine.
//   - Admission control: a bounded pending queue; when it is full the
//     daemon answers 429 with Retry-After instead of queueing unboundedly.
//   - Multi-tenancy: requests carry a tenant label (X-Tenant / ?tenant=)
//     and each configured tenant gets a token-bucket rate limit plus an
//     inflight quota on the worker pool (tenant.go), so one tenant's
//     burst 429s itself, not its neighbors. Per-tenant counters ride the
//     tenant label on /metrics and /v1/stats.
//   - Result cache: an LRU keyed by (scheme, output tuple, event ID)
//     with dependency-indexed invalidation (cache.go, DESIGN.md §14):
//     every entry is tagged with the invalidation-key set its walk
//     touched, the cluster event hook delivers the keys each accepted
//     change fires, and only dependent entries are evicted — a new event
//     evicts nothing of its class's earlier events, so queries stay hot
//     under sustained writes.
//   - Cancellation: the request context is threaded into
//     Cluster.QueryContext, so a disconnected client aborts its in-flight
//     distributed query instead of burning the timeout.
//
// Endpoints: POST /v1/events, GET /v1/query, GET /v1/outputs,
// GET /v1/stats, GET /v1/members (membership view + elastic counters),
// GET /v1/trace/{id} (Chrome trace JSON), GET /readyz (503 while any
// cluster is mid-handoff), GET /metrics (Prometheus text),
// /debug/pprof/*.
package provserve

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"provcompress/internal/cluster"
	"provcompress/internal/metrics"
	"provcompress/internal/trace"
	"provcompress/internal/types"
)

// Config describes the serving daemon.
type Config struct {
	// Clusters maps lowercase scheme names ("exspan", "basic", "advanced",
	// "advanced-ic" — URL-safe, unlike "advanced+ic", whose "+" a query
	// string decodes to a space) to running clusters. At least one is
	// required.
	Clusters map[string]*cluster.Cluster
	// DefaultScheme is used when a query names no scheme; empty picks
	// "advanced" if present, else an arbitrary configured scheme.
	DefaultScheme string
	// Workers is the query worker pool size (default 8).
	Workers int
	// QueueDepth bounds the pending-query queue; a full queue rejects
	// with 429 (default 64).
	QueueDepth int
	// CacheSize bounds the result cache entries (default 1024).
	CacheSize int
	// QueryTimeout bounds each distributed query attempt (default 10s).
	QueryTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// Tracer, when set, is the span collector shared by the configured
	// clusters; it backs GET /v1/trace/{id} and the trace gauges on
	// /metrics. Nil disables the trace endpoint (404).
	Tracer *trace.Collector
	// Tenants configures per-tenant admission budgets (tenant.go). The
	// list may include DefaultTenant to bound unlabeled traffic; any
	// other tenant a request names that is not listed here bills to the
	// default. Empty means single-tenant: everything is "default",
	// unlimited (the global queue is still the backstop).
	Tenants []TenantConfig

	// beforeQuery, when set, runs on the worker goroutine before each
	// admitted query executes. Test hook: lets tests hold workers busy to
	// exercise admission control deterministically.
	beforeQuery func()
}

// Server is the daemon: an http.Handler plus the worker pool behind it.
type Server struct {
	cfg     Config
	schemes []string // sorted configured scheme names
	mux     *http.ServeMux
	cache   *depCache
	// tenants maps tenant name to its admission state; always contains
	// DefaultTenant. tenantNames is the sorted key list for stable
	// /metrics and /v1/stats output.
	tenants     map[string]*tenant
	tenantNames []string

	queue chan *queryJob
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	start time.Time

	// Serving counters.
	events      atomic.Int64
	queries     atomic.Int64
	rejected    atomic.Int64
	queryErrors atomic.Int64
	canceled    atomic.Int64
	inflight    atomic.Int64

	coldLatency *metrics.Histogram // full serve time, cache misses
	hitLatency  *metrics.Histogram // full serve time, cache hits
}

// queryJob is one admitted query traveling from the HTTP handler to a
// worker and back.
type queryJob struct {
	ctx      context.Context
	c        *cluster.Cluster
	out      types.Tuple
	evid     types.ID
	admitSeq uint64 // cache invalidation sequence at admission (depCache.Admit)
	res      cluster.QueryResult
	err      error
	done     chan struct{}
}

// New builds the server and starts its worker pool. Call Close to drain.
func New(cfg Config) (*Server, error) {
	if len(cfg.Clusters) == 0 {
		return nil, fmt.Errorf("provserve: no clusters configured")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 10 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		cfg:         cfg,
		cache:       newDepCache(cfg.CacheSize),
		queue:       make(chan *queryJob, cfg.QueueDepth),
		stop:        make(chan struct{}),
		start:       time.Now(),
		coldLatency: metrics.NewLatencyHistogram(),
		hitLatency:  metrics.NewLatencyHistogram(),
	}
	for name, c := range cfg.Clusters {
		if c == nil {
			return nil, fmt.Errorf("provserve: nil cluster for scheme %q", name)
		}
		s.schemes = append(s.schemes, name)
		// Every accepted state change delivers the invalidation keys it
		// fired; evict exactly the cached results tagged with them. Events
		// are injected per cluster, so one logical event may fire more than
		// once — firing is idempotent on an already-evicted entry.
		c.SetEventHook(func(keys []cluster.InvalKey) { s.cache.Invalidate(keys) })
	}
	s.tenants = make(map[string]*tenant, len(cfg.Tenants)+1)
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("provserve: tenant with empty name")
		}
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("provserve: duplicate tenant %q", tc.Name)
		}
		s.tenants[tc.Name] = newTenant(tc)
	}
	if _, ok := s.tenants[DefaultTenant]; !ok {
		s.tenants[DefaultTenant] = newTenant(TenantConfig{Name: DefaultTenant})
	}
	for name := range s.tenants {
		s.tenantNames = append(s.tenantNames, name)
	}
	sort.Strings(s.tenantNames)
	sort.Strings(s.schemes)
	if cfg.DefaultScheme == "" {
		if _, ok := cfg.Clusters["advanced"]; ok {
			s.cfg.DefaultScheme = "advanced"
		} else {
			s.cfg.DefaultScheme = s.schemes[0]
		}
	} else if _, ok := cfg.Clusters[strings.ToLower(cfg.DefaultScheme)]; !ok {
		return nil, fmt.Errorf("provserve: default scheme %q has no cluster", cfg.DefaultScheme)
	} else {
		s.cfg.DefaultScheme = strings.ToLower(cfg.DefaultScheme)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/members", s.handleMembers)
	mux.HandleFunc("/v1/events", s.handleEvents)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/outputs", s.handleOutputs)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool and fails any queries still queued. It does
// not close the clusters (the caller owns them) and is idempotent.
func (s *Server) Close() {
	s.once.Do(func() {
		close(s.stop)
		s.wg.Wait()
		// Workers are gone; fail whatever is still queued so no handler
		// waits forever. Handlers racing an enqueue against Close also
		// select on s.stop, so nothing new can strand after this drain.
		for {
			select {
			case j := <-s.queue:
				j.err = fmt.Errorf("provserve: server shutting down")
				close(j.done)
			default:
				return
			}
		}
	})
}

// worker runs admitted queries until the server closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

func (s *Server) runJob(j *queryJob) {
	defer close(j.done)
	if s.cfg.beforeQuery != nil {
		s.cfg.beforeQuery()
	}
	if err := j.ctx.Err(); err != nil {
		// The client vanished while the job sat in the queue.
		j.err = err
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	j.res, j.err = j.c.QueryContext(j.ctx, j.out, j.evid, s.cfg.QueryTimeout)
}

// --- request plumbing -------------------------------------------------

// jsonError answers with a JSON error body and the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)}) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// tupleSpec is the wire form of a tuple: a relation name plus JSON-native
// argument values (string, integral number, or bool).
type tupleSpec struct {
	Rel  string `json:"rel"`
	Args []any  `json:"args"`
}

// tuple converts the spec into a typed tuple.
func (ts tupleSpec) tuple() (types.Tuple, error) {
	if ts.Rel == "" {
		return types.Tuple{}, fmt.Errorf("missing relation name")
	}
	if !utf8.ValidString(ts.Rel) {
		// A query's rel comes from the URL, not JSON, so nothing else has
		// checked it; no tuple arriving as JSON can carry such a name.
		return types.Tuple{}, fmt.Errorf("relation name %q is not valid UTF-8", ts.Rel)
	}
	if len(ts.Args) == 0 {
		return types.Tuple{}, fmt.Errorf("tuple %s needs at least the location argument", ts.Rel)
	}
	args := make([]types.Value, len(ts.Args))
	for i, raw := range ts.Args {
		switch v := raw.(type) {
		case string:
			args[i] = types.String(v)
		case bool:
			args[i] = types.Bool(v)
		case float64:
			if v != math.Trunc(v) || math.Abs(v) > 1<<53 {
				return types.Tuple{}, fmt.Errorf("arg %d of %s: %v is not an exact integer", i, ts.Rel, v)
			}
			args[i] = types.Int(int64(v))
		default:
			return types.Tuple{}, fmt.Errorf("arg %d of %s: unsupported JSON type %T", i, ts.Rel, raw)
		}
	}
	return types.NewTuple(ts.Rel, args...), nil
}

// specOf renders a tuple back into its wire form.
func specOf(t types.Tuple) tupleSpec {
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
	return tupleSpec{Rel: t.Rel, Args: args}
}

// schemeOf resolves the scheme query parameter to a configured cluster.
func (s *Server) schemeOf(r *http.Request) (string, *cluster.Cluster, error) {
	name := strings.ToLower(r.URL.Query().Get("scheme"))
	if name == "" {
		name = s.cfg.DefaultScheme
	}
	c, ok := s.cfg.Clusters[name]
	if !ok {
		return "", nil, fmt.Errorf("unknown scheme %q (configured: %s)", name, strings.Join(s.schemes, ", "))
	}
	return name, c, nil
}

// cacheKey builds the result-cache key from scheme + output tuple + event
// ID, exactly the identity of a query's answer.
func cacheKey(scheme string, out types.Tuple, evid types.ID) string {
	return scheme + "|" + string(out.Encode()) + "|" + evid.Hex()
}

// --- endpoints --------------------------------------------------------

// eventsRequest is the POST /v1/events body: one or more input events,
// optionally followed by a quiesce wait so callers can read their writes.
type eventsRequest struct {
	Events []tupleSpec `json:"events"`
	// WaitMS, when positive, blocks until every cluster quiesces (or the
	// wait expires) before responding, so a follow-up query observes the
	// events' full derivations.
	WaitMS int64 `json:"wait_ms"`
}

type eventsResponse struct {
	Accepted int  `json:"accepted"`
	Quiesced bool `json:"quiesced"`
}

// decodeEvents reads a POST /v1/events body and types its events; every
// error is the client's.
func decodeEvents(body io.Reader) (eventsRequest, []types.Tuple, error) {
	var req eventsRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return req, nil, fmt.Errorf("bad events body: %v", err)
	}
	if len(req.Events) == 0 {
		return req, nil, fmt.Errorf("no events")
	}
	tuples := make([]types.Tuple, len(req.Events))
	for i, spec := range req.Events {
		t, err := spec.tuple()
		if err != nil {
			return req, nil, fmt.Errorf("event %d: %v", i, err)
		}
		tuples[i] = t
	}
	return req, tuples, nil
}

// handleEvents injects input events into every configured cluster (each
// scheme maintains provenance for the same stream, which is what makes
// cross-scheme queries comparable).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// One token per request (a batched POST is one admission decision);
	// the per-event count is the tenant's write-volume counter.
	tn := s.tenantOf(r)
	if ok, wait := tn.allow(time.Now()); !ok {
		tn.rejectedRate.Add(1)
		s.rejectTenant(w, tn, "rate", wait)
		return
	}
	req, tuples, err := decodeEvents(r.Body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	accepted := 0
	for _, t := range tuples {
		for _, name := range s.schemes {
			if err := s.cfg.Clusters[name].Inject(t); errors.Is(err, cluster.ErrQueueFull) {
				// The cluster is saturated, not the event malformed.
				s.rejected.Add(1)
				w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
				jsonError(w, http.StatusTooManyRequests, "%v", err)
				return
			} else if err != nil {
				jsonError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		accepted++
		s.events.Add(1)
		tn.events.Add(1)
	}
	quiesced := true
	if req.WaitMS > 0 {
		wait := time.Duration(req.WaitMS) * time.Millisecond
		for _, name := range s.schemes {
			if err := s.cfg.Clusters[name].Quiesce(wait); err != nil {
				quiesced = false
			}
		}
	}
	writeJSON(w, http.StatusOK, eventsResponse{
		Accepted: accepted,
		Quiesced: quiesced,
	})
}

// queryResponse is the GET /v1/query reply.
type queryResponse struct {
	Tuple  string `json:"tuple"`
	Scheme string `json:"scheme"`
	EvID   string `json:"evid,omitempty"`
	Cached bool   `json:"cached"`
	// CacheKeys is the size of the answer's invalidation-key set
	// (cluster.QueryResult.InvalKeys).
	CacheKeys int      `json:"cache_keys"`
	Trees     []string `json:"trees"`
	Hops      int      `json:"hops"`
	// QueryNS is the distributed walk's latency (the cold cost; for a
	// cache hit, the cost the hit avoided). ServeNS is this request's
	// server-side handling time.
	QueryNS int64 `json:"query_ns"`
	ServeNS int64 `json:"serve_ns"`
	// TraceID, when the daemon runs with tracing enabled, names the
	// distributed span tree the walk produced; fetch it from
	// GET /v1/trace/{trace_id}. Cache hits replay the cold run's ID.
	TraceID string `json:"trace_id,omitempty"`
}

// traceIDString renders a trace ID for the wire: 16 hex chars, or empty
// for the zero (untraced) ID.
func traceIDString(id trace.TraceID) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(id))
}

// queryTuple types a query's rel parameter and its args JSON array.
func queryTuple(rel, args string) (types.Tuple, error) {
	var rawArgs []any
	if err := json.Unmarshal([]byte(args), &rawArgs); err != nil {
		return types.Tuple{}, fmt.Errorf("args must be a JSON array: %v", err)
	}
	return tupleSpec{Rel: rel, Args: rawArgs}.tuple()
}

// handleQuery answers a distributed provenance query, consulting the
// result cache first. Parameters: rel (relation name), args (JSON array),
// scheme (optional), evid (optional 40-char hex event ID).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	began := time.Now()
	tn := s.tenantOf(r)
	if ok, wait := tn.allow(began); !ok {
		tn.rejectedRate.Add(1)
		s.rejectTenant(w, tn, "rate", wait)
		return
	}
	scheme, c, err := s.schemeOf(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := r.URL.Query()
	out, err := queryTuple(q.Get("rel"), q.Get("args"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	evid := types.ZeroID
	if hexID := q.Get("evid"); hexID != "" {
		raw, err := hex.DecodeString(hexID)
		if err != nil || len(raw) != len(evid) {
			jsonError(w, http.StatusBadRequest, "evid must be %d hex characters", 2*len(evid))
			return
		}
		copy(evid[:], raw)
	}
	s.queries.Add(1)
	tn.queries.Add(1)

	key := cacheKey(scheme, out, evid)
	if ans, ok := s.cache.Get(key); ok {
		s.hitLatency.ObserveDuration(time.Since(began))
		writeJSON(w, http.StatusOK, queryResponse{
			Tuple: out.String(), Scheme: scheme, EvID: q.Get("evid"),
			Cached: true, CacheKeys: len(ans.Keys),
			Trees: ans.Trees, Hops: ans.Hops,
			QueryNS: ans.ColdNS, ServeNS: time.Since(began).Nanoseconds(),
			TraceID: traceIDString(ans.TraceID),
		})
		return
	}

	// The tenant's inflight quota guards the worker pool, not the cache:
	// hits above never reach here. Released when the handler returns,
	// whatever path it takes.
	if !tn.acquire() {
		tn.rejectedQuota.Add(1)
		s.rejectTenant(w, tn, "inflight-quota", 0)
		return
	}
	defer tn.release()

	// The admission snapshot must precede the walk: a key firing between
	// here and the walk's completion drops the answer at Put.
	j := &queryJob{ctx: r.Context(), c: c, out: out, evid: evid,
		admitSeq: s.cache.Admit(), done: make(chan struct{})}
	select {
	case s.queue <- j:
	case <-s.stop:
		jsonError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
		// Admission control: the pending queue is full. Shed load now —
		// a bounded 429 beats an unbounded goroutine pile-up.
		s.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
		jsonError(w, http.StatusTooManyRequests, "query queue full (%d pending)", len(s.queue))
		return
	}
	select {
	case <-j.done:
	case <-s.stop:
		jsonError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if j.err != nil {
		if r.Context().Err() != nil {
			s.canceled.Add(1)
			return // client is gone; nothing to write
		}
		s.queryErrors.Add(1)
		jsonError(w, http.StatusBadGateway, "query failed: %v", j.err)
		return
	}
	trees := make([]string, len(j.res.Trees))
	for i, t := range j.res.Trees {
		trees[i] = t.String()
	}
	ans := answer{Trees: trees, Hops: j.res.Hops, ColdNS: j.res.Latency.Nanoseconds(),
		Keys: j.res.InvalKeys, AdmitSeq: j.admitSeq, TraceID: j.res.TraceID}
	s.cache.Put(key, ans)
	s.coldLatency.ObserveDuration(time.Since(began))
	writeJSON(w, http.StatusOK, queryResponse{
		Tuple: out.String(), Scheme: scheme, EvID: q.Get("evid"),
		Cached: false, CacheKeys: len(j.res.InvalKeys),
		Trees: trees, Hops: j.res.Hops,
		QueryNS: j.res.Latency.Nanoseconds(), ServeNS: time.Since(began).Nanoseconds(),
		TraceID: traceIDString(j.res.TraceID),
	})
}

// handleOutputs lists the output tuples a scheme's cluster has produced,
// in wire form ready to feed back into /v1/query (the load generator's
// sampling frame).
func (s *Server) handleOutputs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	_, c, err := s.schemeOf(r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	outs := c.AllOutputs()
	specs := make([]tupleSpec, len(outs))
	for i, t := range outs {
		specs[i] = specOf(t)
	}
	// Deterministic order so Zipf ranks are stable across scrapes.
	sort.Slice(specs, func(i, j int) bool {
		a, _ := json.Marshal(specs[i]) //nolint:errcheck
		b, _ := json.Marshal(specs[j]) //nolint:errcheck
		return string(a) < string(b)
	})
	writeJSON(w, http.StatusOK, map[string]any{"outputs": specs})
}

// handleReadyz is the readiness probe: 200 once every configured cluster
// has no partition handoff in flight, 503 while any is still rebalancing.
// (The daemon additionally serves a bare 503 on every path before the
// clusters finish booting — WAL replay happens before this handler is
// even installed, see cmd/provd.)
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	for _, name := range s.schemes {
		if !s.cfg.Clusters[name].Ready() {
			jsonError(w, http.StatusServiceUnavailable, "scheme %s rebalancing: partition handoff in progress", name)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// memberInfo is the wire form of one membership row.
type memberInfo struct {
	Addr  string `json:"addr"`
	Epoch uint64 `json:"epoch"`
	State string `json:"state"`
}

// handleMembers reports the cluster membership view per scheme: the
// merged member rows plus the membership counters (replication,
// handoffs, failovers, rebalance time).
func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := map[string]any{}
	for _, name := range s.schemes {
		c := s.cfg.Clusters[name]
		var rows []memberInfo
		for _, m := range c.Members() {
			rows = append(rows, memberInfo{Addr: string(m.Addr), Epoch: m.Epoch, State: m.State.String()})
		}
		ms := c.MembershipStats()
		stats := map[string]any{"replicas": ms.Replicas, "rebalance_seconds": ms.RebalanceSeconds}
		mc := ms.Counters()
		for _, cn := range mc.Names() {
			stats[strings.ReplaceAll(cn, "-", "_")] = mc.Get(cn)
		}
		resp[name] = map[string]any{"members": rows, "stats": stats}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the GET /v1/stats reply.
type statsResponse struct {
	UptimeNS int64                  `json:"uptime_ns"`
	Server   map[string]int64       `json:"server"`
	Schemes  map[string]schemeStats `json:"schemes"`
	// Tenants reports per-tenant admission counters (always at least the
	// default tenant).
	Tenants map[string]tenantStats `json:"tenants"`
}

// tenantStats is the wire form of one tenant's admission counters.
type tenantStats struct {
	Queries       int64 `json:"queries"`
	Events        int64 `json:"events"`
	Inflight      int64 `json:"inflight"`
	RejectedRate  int64 `json:"rejected_rate"`
	RejectedQuota int64 `json:"rejected_quota"`
}

type schemeStats struct {
	Transport    map[string]int64 `json:"transport"`
	StorageBytes int64            `json:"storage_bytes"`
	Outputs      int              `json:"outputs"`
	// Membership holds the elastic-membership counters (view frames,
	// handoffs, failovers, …; see cluster.MembershipStats).
	Membership map[string]int64 `json:"membership"`
	// Durability is present only when the scheme's cluster runs with a
	// data dir (WAL + snapshots).
	Durability *durabilityStats `json:"durability,omitempty"`
}

// durabilityStats is the wire form of cluster.DurabilityStats.
type durabilityStats struct {
	Fsync              string  `json:"fsync"`
	WALRecords         int64   `json:"wal_records"`
	WALBytes           int64   `json:"wal_bytes"`
	Snapshots          int64   `json:"snapshots"`
	SnapshotBytes      int64   `json:"snapshot_bytes"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	ReplayedRecords    int64   `json:"replayed_records"`
	TornRecords        int64   `json:"torn_records"`
	TornBytes          int64   `json:"torn_bytes"`
	RecoveredNodes     int     `json:"recovered_nodes"`
	RecoverySeconds    float64 `json:"recovery_seconds"`
	Errors             int64   `json:"errors"`
}

func durabilityOf(c *cluster.Cluster) *durabilityStats {
	ds := c.DurabilityStats()
	if !ds.Enabled {
		return nil
	}
	return &durabilityStats{
		Fsync:              ds.Fsync,
		WALRecords:         ds.WALRecords,
		WALBytes:           ds.WALBytes,
		Snapshots:          ds.Snapshots,
		SnapshotBytes:      ds.SnapshotBytes,
		SnapshotAgeSeconds: ds.SnapshotAgeSeconds,
		ReplayedRecords:    ds.ReplayedRecords,
		TornRecords:        ds.TornRecords,
		TornBytes:          ds.TornBytes,
		RecoveredNodes:     ds.RecoveredNodes,
		RecoverySeconds:    ds.RecoverySeconds,
		Errors:             ds.Errors,
	}
}

func (s *Server) serverCounters() *metrics.Counters {
	hits, misses := s.cache.Stats()
	c := metrics.NewCounters()
	c.Add("events", s.events.Load())
	c.Add("queries", s.queries.Load())
	c.Add("cache-hits", hits)
	c.Add("cache-misses", misses)
	// Per-reason invalidation counters (entries dropped): a key firing, a
	// mid-walk race, or capacity pressure killed them.
	for reason, n := range s.cache.Invalidations() {
		c.Add("cache-invalidated-"+reason, n)
	}
	c.Add("rejected", s.rejected.Load())
	c.Add("query-errors", s.queryErrors.Load())
	c.Add("canceled", s.canceled.Load())
	return c
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := statsResponse{
		UptimeNS: time.Since(s.start).Nanoseconds(),
		Server:   map[string]int64{},
		Schemes:  map[string]schemeStats{},
		Tenants:  map[string]tenantStats{},
	}
	for _, name := range s.tenantNames {
		tn := s.tenants[name]
		resp.Tenants[name] = tenantStats{
			Queries:       tn.queries.Load(),
			Events:        tn.events.Load(),
			Inflight:      tn.inflight.Load(),
			RejectedRate:  tn.rejectedRate.Load(),
			RejectedQuota: tn.rejectedQuota.Load(),
		}
	}
	sc := s.serverCounters()
	for _, name := range sc.Names() {
		resp.Server[name] = sc.Get(name)
	}
	for _, name := range s.schemes {
		c := s.cfg.Clusters[name]
		tc := c.TransportStats().Counters()
		tm := map[string]int64{}
		for _, cn := range tc.Names() {
			tm[cn] = tc.Get(cn)
		}
		mc := c.MembershipStats().Counters()
		mm := map[string]int64{}
		for _, cn := range mc.Names() {
			mm[cn] = mc.Get(cn)
		}
		resp.Schemes[name] = schemeStats{
			Transport:    tm,
			StorageBytes: c.TotalStorageBytes(),
			Outputs:      len(c.AllOutputs()),
			Membership:   mm,
			Durability:   durabilityOf(c),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace serves GET /v1/trace/{id}: the named span tree rendered as
// Chrome trace-event JSON (load it in chrome://tracing or Perfetto). The
// ID is the 16-hex-char trace_id a /v1/query response carries. 404 when
// tracing is disabled or the trace is unknown (it may have been evicted
// under the span budget).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.cfg.Tracer == nil {
		jsonError(w, http.StatusNotFound, "tracing disabled (start the daemon with -trace)")
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if raw == "" {
		// No ID: list the collected trace IDs so callers can discover
		// what is fetchable.
		ids := s.cfg.Tracer.TraceIDs()
		hexIDs := make([]string, len(ids))
		for i, id := range ids {
			hexIDs[i] = traceIDString(id)
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": hexIDs})
		return
	}
	id, err := strconv.ParseUint(raw, 16, 64)
	if err != nil || id == 0 {
		jsonError(w, http.StatusBadRequest, "trace ID must be hex (got %q)", raw)
		return
	}
	if len(s.cfg.Tracer.Trace(trace.TraceID(id))) == 0 {
		jsonError(w, http.StatusNotFound, "unknown trace %s (evicted or never collected)", raw)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.cfg.Tracer.WriteChromeTrace(w, trace.TraceID(id)) //nolint:errcheck
}

// writeGCMetrics exports what the garbage collector costs the process, from
// runtime/metrics: its estimated CPU time since start, the heap bytes it
// must scan (pointer-bearing objects), and the heap that survived the last
// cycle. A heap of many small pointer-free objects scans cheaply; these
// tell that apart from a heap that is merely small.
func writeGCMetrics(w io.Writer) {
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/scan/heap:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	rtmetrics.Read(samples)
	for i, name := range []string{"provd_go_gc_cpu_seconds_total", "provd_go_gc_scan_heap_bytes", "provd_go_gc_heap_live_bytes"} {
		switch v := samples[i].Value; v.Kind() {
		case rtmetrics.KindFloat64:
			metrics.WriteGauge(w, name, "", v.Float64())
		case rtmetrics.KindUint64:
			metrics.WriteGauge(w, name, "", float64(v.Uint64()))
		}
	}
}

// handleMetrics renders the Prometheus text exposition: serving counters,
// latency histograms split by cache outcome, and per-scheme transport,
// byte-class, storage, graveyard, and trace series. Every label value
// goes through metrics.PromLabel so a hostile scheme name cannot corrupt
// the scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		jsonError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePrometheus(w, s.serverCounters(), "provd", "")
	metrics.WriteGauge(w, "provd_inflight_queries", "", float64(s.inflight.Load()))
	metrics.WriteGauge(w, "provd_queue_pending", "", float64(len(s.queue)))
	metrics.WriteGauge(w, "provd_queue_capacity", "", float64(cap(s.queue)))
	metrics.WriteGauge(w, "provd_cache_entries", "", float64(s.cache.Len()))
	metrics.WriteGauge(w, "provd_cache_dep_keys", "", float64(s.cache.DepKeys()))
	invals := s.cache.Invalidations()
	for _, reason := range []string{invalVID, invalInflight, invalLRU} {
		metrics.WriteCounter(w, "provd_cache_invalidations_total",
			metrics.PromLabel("reason", reason), invals[reason])
	}
	metrics.WriteGauge(w, "provd_uptime_seconds", "", time.Since(s.start).Seconds())
	writeGCMetrics(w)
	for _, name := range s.tenantNames {
		tn := s.tenants[name]
		label := metrics.PromLabel("tenant", name)
		metrics.WriteCounter(w, "provd_tenant_queries_total", label, tn.queries.Load())
		metrics.WriteCounter(w, "provd_tenant_events_total", label, tn.events.Load())
		metrics.WriteGauge(w, "provd_tenant_inflight", label, float64(tn.inflight.Load()))
		metrics.WriteCounter(w, "provd_tenant_rejected_total",
			label+","+metrics.PromLabel("reason", "rate"), tn.rejectedRate.Load())
		metrics.WriteCounter(w, "provd_tenant_rejected_total",
			label+","+metrics.PromLabel("reason", "inflight-quota"), tn.rejectedQuota.Load())
	}
	s.coldLatency.WritePrometheus(w, "provd_query_seconds", `cache="miss"`)
	s.hitLatency.WritePrometheus(w, "provd_query_seconds", `cache="hit"`)
	if tr := s.cfg.Tracer; tr != nil {
		metrics.WriteGauge(w, "provd_traces", "", float64(tr.TraceCount()))
		metrics.WriteGauge(w, "provd_trace_spans", "", float64(tr.SpanCount()))
		metrics.WriteCounter(w, "provd_trace_spans_dropped_total", "", int64(tr.Dropped()))
	}
	for _, name := range s.schemes {
		c := s.cfg.Clusters[name]
		label := metrics.PromLabel("scheme", name)
		ts := c.TransportStats()
		metrics.WritePrometheus(w, ts.Counters(), "provd_transport", label)
		metrics.WriteGauge(w, "provd_storage_bytes", label, float64(c.TotalStorageBytes()))
		metrics.WriteGauge(w, "provd_graveyard_tuples", label, float64(c.GraveyardSize()))
		metrics.WriteGauge(w, "provd_db_tuples", label, float64(c.DatabaseTuples()))
		// Per-class byte attribution: the three classes sum to the
		// transport byte total by construction (see cluster.linkBytes).
		for _, cl := range []struct {
			class string
			bytes int64
		}{{"base", ts.BytesBase}, {"prov", ts.BytesProv}, {"query", ts.BytesQuery}, {"batch", ts.BytesBatch}} {
			metrics.WriteCounter(w, "provd_bytes_total",
				label+","+metrics.PromLabel("class", cl.class), cl.bytes)
		}
		ms := c.MembershipStats()
		metrics.WritePrometheus(w, ms.Counters(), "provd_membership", label)
		metrics.WriteGauge(w, "provd_membership_replicas", label, float64(ms.Replicas))
		metrics.WriteGauge(w, "provd_rebalance_seconds", label, ms.RebalanceSeconds)
		ready := 0.0
		if c.Ready() {
			ready = 1
		}
		metrics.WriteGauge(w, "provd_ready", label, ready)
		if ds := c.DurabilityStats(); ds.Enabled {
			metrics.WriteCounter(w, "provd_wal_records_total", label, ds.WALRecords)
			metrics.WriteCounter(w, "provd_wal_bytes_total", label, ds.WALBytes)
			metrics.WriteCounter(w, "provd_snapshots_total", label, ds.Snapshots)
			metrics.WriteCounter(w, "provd_snapshot_bytes_total", label, ds.SnapshotBytes)
			metrics.WriteGauge(w, "provd_snapshot_age_seconds", label, ds.SnapshotAgeSeconds)
			metrics.WriteGauge(w, "provd_recovery_replayed_records", label, float64(ds.ReplayedRecords))
			metrics.WriteCounter(w, "provd_recovery_torn_records_total", label, ds.TornRecords)
			metrics.WriteGauge(w, "provd_recovery_seconds", label, ds.RecoverySeconds)
			metrics.WriteCounter(w, "provd_durability_errors_total", label, ds.Errors)
		}
	}
}
