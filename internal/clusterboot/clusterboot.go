// Package clusterboot is the shared bring-up path for the binaries that
// run a real-socket cluster (cmd/provquery, cmd/provd): one set of
// topology/scheme/fault-injection flags, one way to turn them into a
// running, route-loaded cluster. Keeping the construction in one place
// means the one-shot CLI and the long-lived daemon cannot drift in how
// they interpret the same flags.
package clusterboot

import (
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"provcompress/internal/cluster"
	"provcompress/internal/scenario"
	"provcompress/internal/store"
	"provcompress/internal/topo"
	"provcompress/internal/trace"
	"provcompress/internal/types"
)

// Flags bundles the cluster bring-up options shared by the binaries.
type Flags struct {
	// Nodes is the cluster size; the topology shape is the scenario's
	// (chain for forwarding/bgp, binary out-tree for gossip).
	Nodes int
	// App names the deployed scenario (see internal/scenario.Names).
	App string
	// Scheme is the default provenance scheme (exspan, basic, advanced).
	Scheme string
	// Fault injection knobs (all zero means no FaultPlan).
	Drop       float64
	Delay      float64
	DelayFor   time.Duration
	ResetAfter int
	FaultSeed  int64
	// GraveyardCap bounds each node's deleted-tuple graveyard
	// (0 = unbounded; see engine.Database.SetGraveyardCap).
	GraveyardCap int
	// Replicas is the k of k-way provenance replication: each member
	// ships its provenance records to k rendezvous-placed replicas, and
	// queries fail over to them when the owner is down (0 = off).
	Replicas int
	// Join lists member addresses to add elastically after boot
	// (comma-separated, e.g. "n8,n9"): each joins through the membership
	// protocol — view gossip, bootstrap partition handoff, then Up.
	Join string
	// DataDir, when non-empty, makes the cluster durable: each node keeps
	// a WAL + snapshots under DataDir/<scheme>/<node>/ and recovers from
	// them on boot and restart. Empty keeps the cluster in-memory only.
	DataDir string
	// Fsync selects the WAL sync policy (always, interval, off).
	Fsync string
	// FsyncInterval is the flush period under -fsync=interval.
	FsyncInterval time.Duration
	// SnapshotEvery checkpoints a node after this many WAL records
	// (0 = only explicit checkpoints, e.g. clean shutdown).
	SnapshotEvery int
	// Tracer, when set programmatically by the binary (the -trace flags
	// differ per cmd, so it is not a shared flag), enables distributed
	// span collection on the booted cluster.
	Tracer *trace.Collector
}

// Register installs the shared flags on fs (use flag.CommandLine for a
// binary's global flag set) and returns the struct they populate.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Nodes, "nodes", 8, "cluster size (topology shape per -app)")
	fs.StringVar(&f.App, "app", "forwarding", fmt.Sprintf("deployed application scenario: %s", strings.Join(scenario.Names(), ", ")))
	fs.StringVar(&f.Scheme, "scheme", "advanced", "provenance scheme: exspan, basic, or advanced")
	fs.Float64Var(&f.Drop, "drop", 0, "fault injection: per-attempt probability a frame write is dropped")
	fs.Float64Var(&f.Delay, "delay", 0, "fault injection: per-attempt probability a frame write stalls")
	fs.DurationVar(&f.DelayFor, "delay-for", 5*time.Millisecond, "fault injection: how long a stalled write waits")
	fs.IntVar(&f.ResetAfter, "reset-after", 0, "fault injection: reset each link once after N successful writes")
	fs.Int64Var(&f.FaultSeed, "fault-seed", 1, "fault injection: RNG seed (runs with the same seed inject the same faults)")
	fs.IntVar(&f.GraveyardCap, "graveyard-cap", 0, "max deleted tuples retained per node for provenance VID resolution (0 = unbounded)")
	fs.IntVar(&f.Replicas, "replicas", 0, "k-way provenance replication factor; queries fail over to replicas when a member is down (0 = off)")
	fs.StringVar(&f.Join, "join", "", "comma-separated member addresses to join elastically after boot (e.g. n8,n9)")
	fs.StringVar(&f.DataDir, "data-dir", "", "directory for the durable provenance store (WAL + snapshots); empty runs in-memory only")
	fs.StringVar(&f.Fsync, "fsync", "always", "WAL fsync policy: always (per record), interval, or off")
	fs.DurationVar(&f.FsyncInterval, "fsync-interval", 50*time.Millisecond, "flush period under -fsync=interval")
	fs.IntVar(&f.SnapshotEvery, "snapshot-every", 10000, "checkpoint a node after this many WAL records (0 = only on clean shutdown)")
	return f
}

// Durability returns the store options the flags describe; the error names
// a bad -fsync spelling.
func (f *Flags) Durability() (store.Options, error) {
	policy, err := store.ParseSyncPolicy(f.Fsync)
	if err != nil {
		return store.Options{}, err
	}
	return store.Options{
		Fsync:         policy,
		FsyncInterval: f.FsyncInterval,
		SnapshotEvery: f.SnapshotEvery,
	}, nil
}

// Plan returns the FaultPlan the flags describe, or nil when no fault
// injection was requested.
func (f *Flags) Plan() *cluster.FaultPlan {
	if f.Drop <= 0 && f.Delay <= 0 && f.ResetAfter <= 0 {
		return nil
	}
	return &cluster.FaultPlan{
		Seed:       f.FaultSeed,
		Drop:       f.Drop,
		Delay:      f.Delay,
		DelayFor:   f.DelayFor,
		ResetAfter: f.ResetAfter,
	}
}

// Boot builds the scenario's topology (-app, default packet forwarding on
// a chain), boots one cluster running its DELP under the given scheme
// (empty means f.Scheme), and loads the scenario's base tuples. The caller
// owns the returned cluster and must Close it.
func (f *Flags) Boot(scheme string) (*cluster.Cluster, *topo.Graph, error) {
	if f.Nodes < 2 {
		return nil, nil, fmt.Errorf("clusterboot: need at least 2 nodes, have %d", f.Nodes)
	}
	if scheme == "" {
		scheme = f.Scheme
	}
	app := f.App
	if app == "" {
		app = "forwarding"
	}
	sc, err := scenario.Get(app)
	if err != nil {
		return nil, nil, err
	}
	g := sc.Topology(f.Nodes)
	base := sc.Base(g)
	cfg := cluster.Config{
		Prog:         sc.Prog(),
		Funcs:        sc.Funcs(),
		Nodes:        g.Nodes(),
		Scheme:       scheme,
		Faults:       f.Plan(),
		Tracer:       f.Tracer,
		GraveyardCap: f.GraveyardCap,
		Replicas:     f.Replicas,
	}
	// Validate the policy spelling even on a volatile run, so a typo'd
	// -fsync fails fast instead of being discovered the day -data-dir is
	// finally set.
	opts, err := f.Durability()
	if err != nil {
		return nil, nil, err
	}
	recovering := false
	if f.DataDir != "" {
		// Per-app, per-scheme subdirectory: a daemon serving several
		// schemes (or re-deployed with a different -app) from one
		// -data-dir must not replay one state machine's log into another.
		cfg.DataDir = filepath.Join(f.DataDir, app, scheme)
		cfg.Durability = opts
		recovering = dirHasState(cfg.DataDir)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	// A recovered cluster already holds its base tuples (and everything
	// since); reloading them would be harmless no-op inserts, but skipping
	// keeps the recovery counters honest.
	if !recovering {
		if err := c.LoadBase(base); err != nil {
			c.Close()
			return nil, nil, err
		}
	}
	// Elastic joins happen after the base load: each newcomer enters
	// through the membership protocol (gossip, bootstrap handoff, Up), so
	// a -join run exercises the same path a live scale-out would.
	for _, addr := range splitJoin(f.Join) {
		if err := c.Join(types.NodeAddr(addr)); err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("clusterboot: join %s: %w", addr, err)
		}
	}
	return c, g, nil
}

// splitJoin parses the -join flag into trimmed, deduplicated addresses.
func splitJoin(s string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		addr := strings.TrimSpace(part)
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		out = append(out, addr)
	}
	return out
}

// dirHasState reports whether a scheme data dir holds prior state to
// recover (any snapshot or WAL file in any node subdirectory).
func dirHasState(dir string) bool {
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*"))
	if err != nil {
		return false
	}
	for _, m := range matches {
		base := filepath.Base(m)
		if filepath.Ext(base) == ".snap" || filepath.Ext(base) == ".log" {
			return true
		}
	}
	return false
}
