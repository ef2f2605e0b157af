package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/cluster"
	"provcompress/internal/core"
	"provcompress/internal/store"
	"provcompress/internal/trace"
	"provcompress/internal/types"
)

// quiesceTimeout bounds one Quiesce; hitting it is a failed operation.
const quiesceTimeout = 60 * time.Second

// opCounter counts every operation a run attempts against the program
// (Inject, Quiesce, query, POST, re-open, output check) and the ones that
// failed, keeping the first few failure messages for the report.
type opCounter struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	msgs []string
}

// attempt counts one operation and records err as its failure, if any.
func (o *opCounter) attempt(err error) bool {
	o.attempted.Add(1)
	if err == nil {
		return true
	}
	o.fail(err.Error())
	return false
}

func (o *opCounter) fail(msg string) {
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.msgs) < 8 {
		o.msgs = append(o.msgs, msg)
	}
	o.mu.Unlock()
}

// check counts one correctness check of the oracle.
func (o *opCounter) check(ok bool, format string, args ...any) {
	o.attempted.Add(1)
	if !ok {
		o.fail(fmt.Sprintf(format, args...))
	}
}

// env is what every stage of a run shares.
type env struct {
	wl   *workload
	seed int64
	size sizing
	// tracer is nil on untraced passes; the trace API is nil-safe, so
	// the stages call it unconditionally.
	tracer *trace.Collector
	outDir string
	ops    *opCounter
	dirSeq int
	// sink receives the twins' results so the compiler cannot discard
	// the calls that produce them.
	sink any
}

// span opens one of the benchmark's own root spans around a call into a
// layer. They are recorded from this package only; the cluster's spans
// (inject, process, rule, walk, reconstruct, query) form their own trees.
func (e *env) span(kind, name string) *trace.ActiveSpan {
	return e.tracer.StartSpan(trace.SpanContext{}, "bench", kind, name)
}

// boot starts a cluster for the workload's program. base is nil when the
// cluster recovers its state from dataDir.
func (e *env) boot(scheme, dataDir string, base []types.Tuple) (*cluster.Cluster, error) {
	sp := e.span("bench.new", "cluster.New")
	c, err := cluster.New(cluster.Config{
		Prog:    e.wl.prog(),
		Funcs:   apps.Funcs(),
		Nodes:   line.Nodes(),
		Scheme:  scheme,
		Tracer:  e.tracer,
		DataDir: dataDir,
		// The flush policy of every durable cluster in the benchmark:
		// interval fsync at the store's default 50 ms, no automatic
		// snapshots, so recovery replays the whole log.
		Durability: store.Options{Fsync: store.SyncInterval},
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	if base != nil {
		if err := c.LoadBase(base); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// tempDir makes a fresh data directory under the run's output directory
// (inside the checkout, never the system temp dir).
func (e *env) tempDir() (string, error) {
	e.dirSeq++
	dir := filepath.Join(e.outDir, "tmp", fmt.Sprintf("%s-%d-%d", e.wl.name, os.Getpid(), e.dirSeq))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// meter is a snapshot of the process-wide resource counters the ingest
// metrics are deltas of.
type meter struct {
	cpu     time.Duration // user + system
	mallocs uint64
	heap    uint64 // HeapAlloc, meaningful only after a forced GC
}

// readMeter reads CPU time and the allocation count first and only then,
// if asked, forces a collection for the live-heap reading, so the GC it
// triggers is not charged to the measured phase.
func readMeter(gc bool) meter {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := meter{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
	if gc {
		// Twice: the first collection only queues what finalizers and
		// sync.Pool victims still hold.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m.heap = ms.HeapAlloc
	}
	return m
}

// windowSample is one ingest window: W events injected from one
// goroutine, then Quiesce.
type windowSample struct {
	seconds  float64 // inject start → Quiesce return
	rate     float64 // events/s over that time
	injectUS float64 // mean Inject call, µs
	drainMS  float64 // last Inject return → Quiesce return
}

// ingestWindow injects evs from the calling goroutine and waits for the
// cluster to settle.
func (e *env) ingestWindow(c *cluster.Cluster, evs []types.Tuple) windowSample {
	start := time.Now()
	for _, ev := range evs {
		sp := e.span("bench.inject", "Inject")
		err := c.Inject(ev)
		sp.End()
		e.ops.attempt(err)
	}
	injected := time.Now()
	sp := e.span("bench.quiesce", "Quiesce")
	err := c.Quiesce(quiesceTimeout)
	sp.End()
	e.ops.attempt(err)
	end := time.Now()
	return windowSample{
		seconds:  end.Sub(start).Seconds(),
		rate:     float64(len(evs)) / end.Sub(start).Seconds(),
		injectUS: float64(injected.Sub(start).Microseconds()) / float64(len(evs)),
		drainMS:  millis(end.Sub(injected)),
	}
}

// ingestRound is one round on a fresh cluster: set-up (boot, base load
// and one warm-up window that dials every link and builds the join
// indexes), then the measured windows.
type ingestRound struct {
	c       *cluster.Cluster
	evs     []types.Tuple // every event the round generated; evs[:injected] went in
	inject  int
	setup   time.Duration
	windows []windowSample
	events  int // events in the measured windows

	// Deltas over the measured windows.
	cpu       time.Duration
	mallocs   uint64
	heap      int64
	storage   int64
	transport cluster.TransportStats
	walBytes  int64
	walRecs   int64
}

// subTransport returns a − b over the transport counters the benchmark
// reads; Drops folds in the queue drops.
func subTransport(a, b cluster.TransportStats) cluster.TransportStats {
	return cluster.TransportStats{
		Sends:        a.Sends - b.Sends,
		Retries:      a.Retries - b.Retries,
		Drops:        a.Drops + a.QueueDrops - b.Drops - b.QueueDrops,
		QueryRetries: a.QueryRetries - b.QueryRetries,
		Batches:      a.Batches - b.Batches,
		BatchFrames:  a.BatchFrames - b.BatchFrames,
		BytesTotal:   a.BytesTotal - b.BytesTotal,
		BytesBase:    a.BytesBase - b.BytesBase,
		BytesProv:    a.BytesProv - b.BytesProv,
		BytesQuery:   a.BytesQuery - b.BytesQuery,
		BytesBatch:   a.BytesBatch - b.BytesBatch,
	}
}

// runIngestRound boots a cluster (durable when dataDir is set), warms it
// up with warm events and ingests `windows` measured windows. reserve
// extra events are generated and provisioned in the base tuples but not
// injected; the serving stages use them as the writer's events. The
// cluster is left open for the caller.
func (e *env) runIngestRound(round, windows, warm, reserve int, dataDir string) (*ingestRound, error) {
	w := e.size.window
	r := &ingestRound{inject: warm + windows*w}
	r.evs = e.wl.events(e.seed, round, r.inject+reserve)
	base := e.wl.base(r.evs)

	start := time.Now()
	c, err := e.boot(core.SchemeAdvanced, dataDir, base)
	if !e.ops.attempt(err) {
		return nil, err
	}
	r.c = c
	e.ingestWindow(c, r.evs[:warm])
	r.setup = time.Since(start)

	m0 := readMeter(true)
	st0, ts0, ds0 := c.TotalStorageBytes(), c.TransportStats(), c.DurabilityStats()
	for i := 0; i < windows; i++ {
		r.windows = append(r.windows, e.ingestWindow(c, r.evs[warm+i*w:warm+(i+1)*w]))
	}
	m1 := readMeter(true)
	ds1 := c.DurabilityStats()
	r.events = windows * w
	r.cpu = m1.cpu - m0.cpu
	r.mallocs = m1.mallocs - m0.mallocs
	r.heap = int64(m1.heap) - int64(m0.heap)
	r.storage = c.TotalStorageBytes() - st0
	r.transport = subTransport(c.TransportStats(), ts0)
	r.walBytes = ds1.WALBytes - ds0.WALBytes
	r.walRecs = ds1.WALRecords - ds0.WALRecords
	e.ops.check(ds1.Errors == 0, "durability errors: %d", ds1.Errors)
	e.checkOutputs(c, r.evs[:r.inject])
	return r, nil
}

// outputKeys returns the cluster's outputs as a sorted list of encoded
// tuples, the form in which two output multisets are compared.
func outputKeys(outs []types.Tuple) []string {
	keys := make([]string, len(outs))
	for i, t := range outs {
		keys[i] = string(t.Encode())
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkOutputs verifies the cluster derived exactly one expected output
// per injected event and nothing else.
func (e *env) checkOutputs(c *cluster.Cluster, injected []types.Tuple) {
	want := make([]types.Tuple, len(injected))
	for i, ev := range injected {
		want[i] = e.wl.output(ev)
	}
	got := c.AllOutputs()
	e.ops.check(equalKeys(outputKeys(got), outputKeys(want)),
		"%s outputs: got %d, want %d or contents differ", c.DataDir(), len(got), len(want))
}

// checkAccounting verifies the transport's byte classes sum to its total
// and returns the drift (cluster.accounting_drift_bytes, must be 0).
func (e *env) checkAccounting(c *cluster.Cluster) int64 {
	ts := c.TransportStats()
	drift := ts.BytesTotal - (ts.BytesBase + ts.BytesProv + ts.BytesQuery + ts.BytesBatch)
	e.ops.check(drift == 0, "byte-class sums differ from wire total by %d", drift)
	return drift
}
