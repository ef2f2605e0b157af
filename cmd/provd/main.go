// Command provd is the provenance query daemon: it boots one real-socket
// cluster per configured provenance scheme (running the -app scenario:
// packet forwarding by default, or the bgp / gossip DELPs) and serves
// distributed provenance queries over HTTP with result caching, admission
// control (optionally per tenant via -tenants), Prometheus metrics, and
// pprof.
//
// Endpoints:
//
//	POST /v1/events    inject input events (JSON; optional quiesce wait)
//	GET  /v1/query     distributed provenance query (rel, args, scheme, evid)
//	GET  /v1/outputs   list output tuples (the query sampling frame)
//	GET  /v1/stats     transport counters + storage bytes + server counters
//	GET  /v1/members   membership view + elastic counters per scheme
//	GET  /readyz       200 when serving; 503 during boot/WAL replay or
//	                   while a partition handoff is rebalancing
//	                   (use -replicas k and -join to run elastically)
//	GET  /v1/trace/ID  one distributed span tree as Chrome trace JSON
//	                   (IDs come from /v1/query trace_id; needs -trace)
//	GET  /metrics      Prometheus text exposition
//	GET  /debug/pprof  runtime profiles
//
// Usage:
//
//	provd [-listen 127.0.0.1:8463] [-schemes advanced,basic,exspan] [-nodes 8]
//	      [-app forwarding|bgp|gossip] [-tenants name=qps[:burst[:inflight]],...] [-trace]
//
// Quickstart:
//
//	provd &
//	curl -s -XPOST localhost:8463/v1/events -d \
//	  '{"events":[{"rel":"packet","args":["n0","n0","n7","hello"]}],"wait_ms":2000}'
//	curl -s 'localhost:8463/v1/query?rel=recv&args=["n7","n0","n7","hello"]'
//	curl -s localhost:8463/metrics | grep provd_cache
//
// The -selftest flag boots the daemon on a random port, drives it over
// real HTTP (inject, cold query per scheme, cached re-query, /metrics
// scrape, Zipf load phase), prints the benchmark report, and exits
// non-zero on any violated expectation — `make serve-smoke` runs exactly
// this.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"provcompress/internal/cluster"
	"provcompress/internal/provserve"
	"provcompress/internal/scenario"
	"provcompress/internal/store"
	"provcompress/internal/trace"
	"provcompress/internal/types"
)

func main() {
	boot := registerBoot(flag.CommandLine)
	listen := flag.String("listen", "127.0.0.1:8463", "HTTP listen address (use :0 for a random port)")
	schemes := flag.String("schemes", "advanced,basic,exspan", "comma-separated provenance schemes to serve")
	workers := flag.Int("workers", 8, "query worker pool size")
	queue := flag.Int("queue", 64, "pending-query queue bound (full queue answers 429)")
	cacheSize := flag.Int("cache", 1024, "result cache entries")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "per-attempt distributed query timeout")
	selftest := flag.Bool("selftest", false, "boot on a random port, run the HTTP smoke + load phase, and exit")
	recoverSmoke := flag.Bool("recover-smoke", false, "run the crash-recovery smoke test (spawns child provd processes on a temp -data-dir, kill -9 mid-load, asserts query equivalence) and exit")
	traced := flag.Bool("trace", false, "collect distributed spans for every event and query; serves them on /v1/trace/{id}")
	tenants := flag.String("tenants", "", "per-tenant admission limits as name=qps[:burst[:inflight]],... (e.g. acme=100:20:8,free=5); requests pick a tenant via X-Tenant or ?tenant=, unknown labels bill the default tenant")
	flag.Parse()

	names := splitList(strings.ToLower(*schemes))
	if len(names) == 0 {
		log.Fatal("provd: no schemes configured")
	}
	tenantCfgs, err := parseTenants(*tenants)
	if err != nil {
		log.Fatalf("provd: %v", err)
	}
	if *recoverSmoke {
		if err := runRecoverSmoke(os.Stdout); err != nil {
			log.Fatalf("provd: recover-smoke FAILED: %v", err)
		}
		fmt.Println("provd: recover-smoke ok")
		return
	}
	if *selftest {
		*listen = "127.0.0.1:0"
	}

	// One collector shared by every scheme's cluster: spans carry the
	// scheme as an attribute, so a mixed trace stays attributable.
	var tracer *trace.Collector
	if *traced {
		tracer = trace.NewCollector(0)
	}

	// Listen before booting the clusters so /readyz answers 503 during
	// WAL replay and elastic joins instead of connection-refused; the
	// real handler is swapped in once the serving layer is up. The box
	// keeps the atomic.Value's concrete type constant across the swap.
	type handlerBox struct{ h http.Handler }
	var handler atomic.Value
	handler.Store(handlerBox{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"booting: cluster recovery in progress"}`)
	})})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(handlerBox).h.ServeHTTP(w, r)
	})}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	addr := ln.Addr().String()
	fmt.Printf("provd listening on http://%s (schemes %s, %d nodes, %d workers, queue %d)\n",
		addr, strings.Join(names, ","), boot.nodes, *workers, *queue)

	clusters := make(map[string]*cluster.Cluster, len(names))
	for _, name := range names {
		c, err := boot.boot(name, tracer)
		if err != nil {
			log.Fatalf("provd: boot %s cluster: %v", name, err)
		}
		defer c.Close()
		clusters[name] = c
	}

	srv, err := provserve.New(provserve.Config{
		Clusters:      clusters,
		DefaultScheme: names[0],
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheSize:     *cacheSize,
		QueryTimeout:  *queryTimeout,
		Tracer:        tracer,
		Tenants:       tenantCfgs,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	handler.Store(handlerBox{srv.Handler()})

	if *selftest {
		err := provserve.SelfTest(provserve.SelfTestConfig{
			BaseURL: "http://" + addr,
			Schemes: names,
			Nodes:   boot.nodes,
			Out:     os.Stdout,
		})
		shutdown(httpSrv)
		if err != nil {
			log.Fatalf("provd: selftest FAILED: %v", err)
		}
		fmt.Println("provd: selftest ok")
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("provd: %v, shutting down\n", s)
		shutdown(httpSrv)
		// Clean shutdown: flush the WAL and write a final snapshot on
		// every durable cluster, so the next boot recovers instantly with
		// zero replay. No-op without -data-dir.
		for name, c := range clusters {
			if err := c.Checkpoint(); err != nil {
				log.Printf("provd: final checkpoint %s: %v", name, err)
			}
		}
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}
}

// shutdown drains the HTTP server with a bounded grace period.
func shutdown(s *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx) //nolint:errcheck
}

// parseTenants decodes the -tenants flag: a comma-separated list of
// name=qps[:burst[:inflight]] specs. qps 0 means unlimited rate; inflight
// 0 means unlimited concurrent cold queries.
func parseTenants(s string) ([]provserve.TenantConfig, error) {
	var out []provserve.TenantConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, limits, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenants: bad spec %q (want name=qps[:burst[:inflight]])", part)
		}
		cfg := provserve.TenantConfig{Name: name}
		fields := strings.Split(limits, ":")
		if len(fields) > 3 {
			return nil, fmt.Errorf("-tenants: bad spec %q (too many fields)", part)
		}
		for i, f := range fields {
			if f == "" {
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("-tenants: bad spec %q: field %q", part, f)
			}
			switch i {
			case 0:
				cfg.QPS = v
			case 1:
				cfg.Burst = int(v)
			case 2:
				cfg.MaxInflight = int(v)
			}
		}
		out = append(out, cfg)
	}
	return out, nil
}

// bootFlags are the topology, scheme, fault-injection and durability
// options of the clusters provd boots, one per served scheme.
type bootFlags struct {
	app, scheme, join, dataDir, fsync                        string
	nodes, resetAfter, graveyardCap, replicas, snapshotEvery int
	drop, delay                                              float64
	delayFor, fsyncInterval                                  time.Duration
	faultSeed                                                int64
}

// registerBoot installs the cluster bring-up flags on fs and returns the
// struct they populate.
func registerBoot(fs *flag.FlagSet) *bootFlags {
	f := &bootFlags{}
	fs.IntVar(&f.nodes, "nodes", 8, "cluster size (topology shape per -app)")
	fs.StringVar(&f.app, "app", "forwarding", fmt.Sprintf("deployed application scenario: %s", strings.Join(scenario.Names(), ", ")))
	fs.StringVar(&f.scheme, "scheme", "advanced", "provenance scheme: exspan, basic, or advanced")
	fs.Float64Var(&f.drop, "drop", 0, "fault injection: per-attempt probability a frame write is dropped")
	fs.Float64Var(&f.delay, "delay", 0, "fault injection: per-attempt probability a frame write stalls")
	fs.DurationVar(&f.delayFor, "delay-for", 5*time.Millisecond, "fault injection: how long a stalled write waits")
	fs.IntVar(&f.resetAfter, "reset-after", 0, "fault injection: reset each link once after N successful writes")
	fs.Int64Var(&f.faultSeed, "fault-seed", 1, "fault injection: RNG seed (runs with the same seed inject the same faults)")
	fs.IntVar(&f.graveyardCap, "graveyard-cap", 0, "max deleted tuples retained per node for provenance VID resolution (0 = unbounded)")
	fs.IntVar(&f.replicas, "replicas", 0, "k-way provenance replication factor; queries fail over to replicas when a member is down (0 = off)")
	fs.StringVar(&f.join, "join", "", "comma-separated member addresses to join elastically after boot (e.g. n8,n9)")
	fs.StringVar(&f.dataDir, "data-dir", "", "directory for the durable provenance store (WAL + snapshots); empty runs in-memory only")
	fs.StringVar(&f.fsync, "fsync", "always", "WAL fsync policy: always (per record), interval, or off")
	fs.DurationVar(&f.fsyncInterval, "fsync-interval", 50*time.Millisecond, "flush period under -fsync=interval")
	fs.IntVar(&f.snapshotEvery, "snapshot-every", 10000, "checkpoint a node after this many WAL records (0 = only on clean shutdown)")
	return f
}

// boot builds the -app scenario's topology, boots one cluster running its
// DELP under scheme (empty means -scheme) with spans going to tracer (nil
// means untraced), loads the scenario's base tuples unless the cluster
// recovered them, and joins the -join members. The caller must Close the
// cluster.
func (f *bootFlags) boot(scheme string, tracer *trace.Collector) (*cluster.Cluster, error) {
	if f.nodes < 2 {
		return nil, fmt.Errorf("need at least 2 nodes, have %d", f.nodes)
	}
	if scheme == "" {
		scheme = f.scheme
	}
	sc, err := scenario.Get(f.app)
	if err != nil {
		return nil, err
	}
	// Validate the policy spelling even on a volatile run, so a typo'd
	// -fsync fails fast instead of being discovered the day -data-dir is
	// finally set.
	policy, err := store.ParseSyncPolicy(f.fsync)
	if err != nil {
		return nil, err
	}
	g := sc.Topology(f.nodes)
	cfg := cluster.Config{
		Prog:         sc.Prog(),
		Funcs:        sc.Funcs(),
		Nodes:        g.Nodes(),
		Scheme:       scheme,
		Tracer:       tracer,
		GraveyardCap: f.graveyardCap,
		Replicas:     f.replicas,
	}
	if f.drop > 0 || f.delay > 0 || f.resetAfter > 0 {
		cfg.Faults = &cluster.FaultPlan{Seed: f.faultSeed, Drop: f.drop, Delay: f.delay,
			DelayFor: f.delayFor, ResetAfter: f.resetAfter}
	}
	recovering := false
	if f.dataDir != "" {
		// Per-app, per-scheme subdirectory: a daemon serving several
		// schemes (or re-deployed with a different -app) from one
		// -data-dir must not replay one state machine's log into another.
		cfg.DataDir = filepath.Join(f.dataDir, f.app, scheme)
		cfg.Durability = store.Options{
			Fsync:         policy,
			FsyncInterval: f.fsyncInterval,
			SnapshotEvery: f.snapshotEvery,
		}
		recovering = dirHasState(cfg.DataDir)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	// A recovered cluster already holds its base tuples (and everything
	// since); reloading them would be harmless no-op inserts, but skipping
	// keeps the recovery counters honest.
	if !recovering {
		if err := c.LoadBase(sc.Base(g)); err != nil {
			c.Close()
			return nil, err
		}
	}
	// Elastic joins happen after the base load: each newcomer enters
	// through the membership protocol (gossip, bootstrap handoff, Up), so
	// a -join run exercises the same path a live scale-out would.
	for _, addr := range splitList(f.join) {
		if err := c.Join(types.NodeAddr(addr)); err != nil {
			c.Close()
			return nil, fmt.Errorf("join %s: %w", addr, err)
		}
	}
	return c, nil
}

// splitList parses a comma-separated flag into trimmed, deduplicated,
// non-empty items in their first-seen order.
func splitList(s string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		item := strings.TrimSpace(part)
		if item == "" || seen[item] {
			continue
		}
		seen[item] = true
		out = append(out, item)
	}
	return out
}

// dirHasState reports whether a scheme data dir holds prior state to
// recover (any snapshot or WAL file in any node subdirectory).
func dirHasState(dir string) bool {
	for _, pattern := range []string{"*.snap", "*.log"} {
		if m, _ := filepath.Glob(filepath.Join(dir, "*", pattern)); len(m) > 0 {
			return true
		}
	}
	return false
}
