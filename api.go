package provcompress

import (
	"fmt"
	"time"

	"provcompress/internal/analysis"
	"provcompress/internal/apps"
	"provcompress/internal/cluster"
	"provcompress/internal/core"
	"provcompress/internal/engine"
	"provcompress/internal/metrics"
	"provcompress/internal/ndlog"
	"provcompress/internal/netsim"
	"provcompress/internal/provserve"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/trace"
	"provcompress/internal/types"
)

// Core data types.
type (
	// Value is a typed attribute value (int, string, or bool).
	Value = types.Value
	// Tuple is a relation instance; its first attribute is the location.
	Tuple = types.Tuple
	// ID is a 160-bit content hash (VID/RID/EVID).
	ID = types.ID
	// NodeAddr names a node of the distributed system.
	NodeAddr = types.NodeAddr
	// Program is a parsed NDlog program.
	Program = ndlog.Program
	// FuncMap registers user-defined functions callable from rule bodies.
	FuncMap = ndlog.FuncMap
	// Graph is an undirected network topology with link parameters.
	Graph = topo.Graph
	// Routes holds shortest-path next hops for every node pair.
	Routes = topo.Routes
	// Tree is a provenance tree (Appendix A of the paper).
	Tree = core.Tree
	// QueryResult is the outcome of a distributed provenance query.
	QueryResult = core.QueryResult
	// QueryCostModel calibrates query-time computation cost.
	QueryCostModel = core.QueryCostModel
	// Maintainer is a provenance maintenance scheme (ExSPAN, Basic,
	// Advanced, Advanced+IC).
	Maintainer = core.Maintainer
	// Runtime is the execution engine coupling a program, a network, and a
	// maintenance scheme.
	Runtime = engine.Runtime
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = types.Int
	// Str builds a string value.
	Str = types.String
	// Bool builds a boolean value.
	Bool = types.Bool
	// NewTuple builds a tuple from a relation name and values.
	NewTuple = types.NewTuple
	// HashTuple computes a tuple's VID.
	HashTuple = types.HashTuple
	// ZeroID is the absent identifier (query "all derivations").
	ZeroID = types.ZeroID
)

// Program handling.
var (
	// Parse parses NDlog source.
	Parse = ndlog.Parse
	// ParseDELP parses NDlog source and validates the DELP restriction
	// (Definition 1).
	ParseDELP = ndlog.ParseDELP
	// EquivalenceKeys runs the static analysis of Section 5.2, returning
	// the key attribute indexes of the program's input event relation.
	EquivalenceKeys = analysis.EquivalenceKeys
)

// DependencyDOT renders the attribute-level dependency graph of a program
// in Graphviz format (Figure 17 style).
func DependencyDOT(p *Program) string {
	return analysis.BuildGraph(p).DOT()
}

// Bundled applications (Figures 1 and 19, plus ARP, BGP, and gossip).
var (
	// ForwardingProgram returns the packet-forwarding DELP of Figure 1.
	ForwardingProgram = apps.Forwarding
	// DNSProgram returns the DNS resolution DELP of Figure 19.
	DNSProgram = apps.DNS
	// ARPProgram returns the ARP DELP.
	ARPProgram = apps.ARP
	// BGPProgram returns the BGP-style interdomain routing DELP.
	BGPProgram = apps.BGP
	// GossipProgram returns the epidemic rumor-dissemination DELP.
	GossipProgram = apps.Gossip
	// BuiltinFuncs returns the UDF registry the bundled programs need.
	BuiltinFuncs = apps.Funcs
)

// MergePrograms combines several DELPs into one rule set for joint
// deployment, sharing textually identical rules (Section 8 future work).
var MergePrograms = ndlog.MergePrograms

// NewMultiSystem deploys several DELPs jointly on one network: every
// program's rules fire on the shared event streams, provenance chains may
// interleave rules of different programs, and — under the Advanced schemes
// — chains shared across programs are stored once. Under those schemes the
// merged rule set must pass the same applicability check as NewSystem's.
func NewMultiSystem(g *Graph, progs []*Program, scheme string, funcs FuncMap) (*System, error) {
	maint, err := newMaintainer(scheme, progs...)
	if err != nil {
		return nil, err
	}
	sched := &sim.Scheduler{}
	net := netsim.New(sched, g)
	rt, err := engine.NewMultiRuntime(net, progs, funcs, maint)
	if err != nil {
		return nil, err
	}
	return &System{Runtime: rt, Scheme: maint, sched: sched}, nil
}

// Topology constructors.
var (
	// NewGraph returns an empty topology.
	NewGraph = topo.NewGraph
	// Fig2 builds the paper's 3-node running example; Fig2Routes returns
	// its route table tuples.
	Fig2 = topo.Fig2
	// Fig2Routes returns the route tuples of Figure 2.
	Fig2Routes = topo.Fig2Routes
	// Line builds a chain topology.
	Line = topo.Line
	// GenTransitStub builds the Section 6.1 evaluation topology.
	GenTransitStub = topo.GenTransitStub
	// DefaultTransitStub is the paper's 100-node configuration.
	DefaultTransitStub = topo.DefaultTransitStub
	// GenDNSTree builds the Section 6.2 nameserver hierarchy.
	GenDNSTree = topo.GenDNSTree
	// DefaultDNSTree is the paper's 100-server configuration.
	DefaultDNSTree = topo.DefaultDNSTree
)

// Real-socket cluster deployment (the paper's Section 6.1.3 physical
// testbed): one TCP listener per node, binary frames on the wire, a
// transport that closes, redials, backs off and retries on any failed
// write, deterministic fault injection on the links' connections, and
// node crash/restart.
type (
	// Cluster is a set of live nodes on loopback TCP.
	Cluster = cluster.Cluster
	// ClusterConfig describes the cluster to boot, including transport
	// tuning and an optional fault plan.
	ClusterConfig = cluster.Config
	// TransportConfig tunes the cluster's fault-tolerant sender: its
	// retry budget and backoff cap (the queue bound, the dial and write
	// timeouts and the batch linger are fixed).
	TransportConfig = cluster.TransportConfig
	// TransportStats snapshots the transport counters (dials, redials,
	// retries, drops, suppressed duplicates, ...).
	TransportStats = cluster.TransportStats
	// FaultPlan deterministically injects socket failures into the
	// links' connections (failed writes, stalls, one-shot torn frames)
	// keyed off a seed.
	FaultPlan = cluster.FaultPlan
)

// NewCluster boots a real-socket cluster from a ClusterConfig.
var NewCluster = cluster.New

// ErrQueueFull is the refusal a Cluster's Inject wraps when the event's
// origin stayed saturated for the whole admission wait; match it with
// errors.Is and offer the event again later.
var ErrQueueFull = cluster.ErrQueueFull

// Distributed tracing: set ClusterConfig.Tracer and one injected event or
// one distributed query yields a single parent-linked span tree across
// every node it touched, exportable as Chrome trace JSON
// (chrome://tracing / Perfetto). TraceID names one distributed trace
// (zero = untraced).
type TraceID = trace.TraceID

// Load generation against the serving daemon (cmd/provd: a long-lived
// HTTP/JSON service over live clusters with a key-invalidated result
// cache and admission control).
type (
	// LoadConfig drives the Zipf-sampled query load generator.
	LoadConfig = provserve.LoadConfig
	// LoadReport is the generator's QPS + p50/p95/p99 summary.
	LoadReport = provserve.LoadReport
)

// RunLoad hammers a running daemon with Zipf-sampled queries.
var RunLoad = provserve.RunLoad

// Histogram is a fixed-bucket, concurrency-safe latency histogram with
// p50/p95/p99 estimation and Prometheus exposition, a measurement helper
// for serving-style workloads.
type Histogram = metrics.Histogram

var (
	// NewHistogram builds a histogram over explicit bucket bounds.
	NewHistogram = metrics.NewHistogram
	// NewLatencyHistogram builds a histogram over the default latency
	// buckets (50µs..30s).
	NewLatencyHistogram = metrics.NewLatencyHistogram
	// WritePrometheus renders counters in Prometheus text exposition.
	WritePrometheus = metrics.WritePrometheus
)

// Scheme names accepted by NewSystem, NewMultiSystem and NewCluster.
const (
	SchemeExSPAN   = core.SchemeExSPAN
	SchemeBasic    = core.SchemeBasic
	SchemeAdvanced = core.SchemeAdvanced
	// SchemeAdvancedInterClass additionally shares rule-execution nodes
	// across equivalence classes (Section 5.4); "advanced-ic" in URLs.
	SchemeAdvancedInterClass = core.SchemeAdvancedInterClass
)

// System couples a DELP, a simulated network over a topology, and a
// provenance maintenance scheme, with a synchronous convenience API.
type System struct {
	// Runtime exposes the underlying engine for advanced use.
	Runtime *Runtime
	// Scheme is the provenance maintainer in use.
	Scheme Maintainer

	sched *sim.Scheduler
}

// NewSystem builds a ready-to-run system: one engine node per topology
// node, the program deployed on all of them, provenance maintained by the
// named scheme. funcs may be nil if the program calls no UDFs. Under the
// Advanced schemes it refuses, as NewCluster does, a program whose outputs
// of one equivalence class may land on different nodes.
func NewSystem(g *Graph, prog *Program, scheme string, funcs FuncMap) (*System, error) {
	if err := prog.ValidateDELP(); err != nil {
		return nil, err
	}
	maint, err := newMaintainer(scheme, prog)
	if err != nil {
		return nil, err
	}
	sched := &sim.Scheduler{}
	net := netsim.New(sched, g)
	rt := engine.NewRuntime(net, prog, funcs, maint)
	return &System{Runtime: rt, Scheme: maint, sched: sched}, nil
}

// newMaintainer resolves a scheme name against the deployed programs
// (core.ResolveScheme) and builds its simulator maintainer.
func newMaintainer(scheme string, progs ...*Program) (*core.SimMaintainer, error) {
	name, err := core.ResolveScheme(scheme, progs...)
	if err != nil {
		return nil, err
	}
	return core.NewScheme(name)
}

// LoadBase installs base (slow-changing) tuples at the nodes named by
// their location specifiers.
func (s *System) LoadBase(tuples ...Tuple) error {
	return s.Runtime.LoadBase(tuples)
}

// Inject schedules an input event at the current virtual time.
func (s *System) Inject(ev Tuple) { s.Runtime.Inject(ev) }

// InjectAt schedules an input event at an absolute virtual time.
func (s *System) InjectAt(t time.Duration, ev Tuple) { s.Runtime.InjectAt(t, ev) }

// InsertSlow inserts into a slow-changing table at runtime (triggering the
// sig broadcast under the Advanced schemes, Section 5.5).
func (s *System) InsertSlow(t Tuple) { s.Runtime.InsertSlow(t) }

// DeleteSlow deletes from a slow-changing table at runtime.
func (s *System) DeleteSlow(t Tuple) { s.Runtime.DeleteSlow(t) }

// Run executes the simulation until quiescence and returns the first
// evaluation error, if any.
func (s *System) Run() error {
	s.sched.Run()
	if errs := s.Runtime.Errors(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// Now returns the current virtual time.
func (s *System) Now() time.Duration { return s.sched.Now() }

// Outputs returns the output tuples produced so far.
func (s *System) Outputs() []Tuple {
	outs := s.Runtime.Outputs()
	tuples := make([]Tuple, len(outs))
	for i, o := range outs {
		tuples[i] = o.Tuple
	}
	return tuples
}

// Query synchronously retrieves the provenance of an output tuple: it
// issues the distributed query, drives the simulation until the result
// arrives, and returns it. Pass ZeroID as evid to retrieve every stored
// derivation, or a specific event hash to select one (Section 5.6).
func (s *System) Query(out Tuple, evid ID) (QueryResult, error) {
	var res QueryResult
	done := false
	s.Scheme.QueryProvenance(out, evid, func(r QueryResult) { res = r; done = true })
	s.sched.Run()
	if !done {
		return QueryResult{}, fmt.Errorf("provcompress: query for %s did not complete", out)
	}
	return res, nil
}

// StorageBytes returns the provenance storage at one node.
func (s *System) StorageBytes(addr NodeAddr) int64 { return s.Scheme.StorageBytes(addr) }

// TotalStorageBytes returns the provenance storage across all nodes.
func (s *System) TotalStorageBytes() int64 { return s.Scheme.TotalStorageBytes() }

// NetworkBytes returns the total bytes carried on the wire so far.
func (s *System) NetworkBytes() int64 { return s.Runtime.Net.TotalBytes() }

// RunFor executes the simulation for d of virtual time.
func (s *System) RunFor(d time.Duration) error {
	s.sched.RunFor(d)
	if errs := s.Runtime.Errors(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// DumpTables renders the scheme's provenance tables for the given nodes in
// the paper's Tables 1-4 style (all nodes when none are named).
func (s *System) DumpTables(nodes ...NodeAddr) string {
	src, ok := s.Scheme.(core.TableSource)
	if !ok {
		return ""
	}
	if len(nodes) == 0 {
		nodes = s.Runtime.Net.Graph().Nodes()
	}
	return core.DumpTables(src, nodes)
}

// ReplayTrees reconstructs provenance by re-executing a program from its
// non-deterministic inputs (slow-changing tuples and one input event) —
// the reactive maintenance strategy of Section 3.2. It returns the trees
// of every derived tuple keyed by VID.
var ReplayTrees = core.ReplayTrees
