package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"provcompress/internal/cluster"
	"provcompress/internal/types"
	wl "provcompress/internal/workload"
)

// sizing is the reference sizing of one run on the 2-core box. Event
// counts per round are fixed, so set-up time, recovery time and the
// per-event counts do not depend on how fast the box is; --seconds only
// decides how many cycles run. To shrink a run cut cycles and windows
// per round, not the window.
//
// The durable rounds are kept small (a short warm-up, two windows): the
// sandbox's disk sits behind a rate limiter that refills at about 3 MB/s,
// and runs that each logged 100 MB under interval fsync drained it within
// an hour, after which every run on the machine took four times as long.
type sizing struct {
	window        int           // events between two Quiesce calls
	memWindows    int           // measured windows per in-memory round
	minCycles     int           // cycles, at least (each has one durable and one in-memory round)
	durWindows    int           // measured windows per durable round
	durWarm       int           // warm-up events of a durable round
	reopens       int           // times each durable round's directory is re-opened
	coldMin       int           // cold queries, at least (the traced run's p99 needs 1000)
	directQueries int           // QueryContext calls without HTTP (per-layer only)
	mixedMinOps   int           // reads and writes of the mixed stage, at least
	workingSet    int           // outputs the mixed-stage reader draws from (4× the cache)
	reserve       int           // events provisioned for the mixed-stage writer
	writeInterval time.Duration // open-loop writer period
	oracleEvents  int           // events replayed on ExSPAN and Advanced, and through the twins
	oracleSamples int           // outputs whose trees are compared
	tailBeyond    int           // samples a percentile needs beyond it (minBeyond, except in the smoke test)
}

func referenceSizing(w *workload) sizing {
	return sizing{
		window:        w.window,
		memWindows:    w.memWindows,
		minCycles:     3,
		durWindows:    w.durWindows,
		durWarm:       w.window / 5,
		reopens:       2,
		workingSet:    4096,
		reserve:       1500,
		writeInterval: 10 * time.Millisecond,
		oracleEvents:  2 * w.window,
		oracleSamples: 100,
		tailBeyond:    minBeyond,
	}
}

// A pass alternates durable and in-memory ingest rounds, one pair per
// cycle, then serves from the last in-memory cluster. The machine's speed
// drifts over tens of seconds, so the ingest metrics take their samples
// from rounds spread over the whole pass rather than from one block of
// it. --seconds decides the number of cycles and the length of the two
// serving stages.
const (
	cycleSeconds = 7.5
	coldShare    = 0.13
	mixedShare   = 0.27
)

// lifecycle is everything one pass over the service lifecycle collected.
type lifecycle struct {
	mem      []*ingestRound
	direct   coldResult // QueryContext without HTTP
	directTS cluster.TransportStats
	cold     coldResult
	coldTS   cluster.TransportStats // transport delta over the cold stage
	mixed    mixedResult
	server   map[string]float64 // daemon counters after the mixed stage
	serveTS  cluster.TransportStats
	drift    int64
	dur      []*ingestRound
	recover  []float64 // seconds per re-open
	ratio    float64
}

// stageBudget converts a share of the run's seconds into a duration.
func stageBudget(seconds, share float64) time.Duration {
	return time.Duration(seconds * share * float64(time.Second))
}

// runLifecycle drives one pass. withOracle is false on the reduced
// passes of a traced run, which only need the stages' counters.
func (e *env) runLifecycle(seconds float64, withOracle bool) (*lifecycle, error) {
	lc := &lifecycle{}
	cycles := max(e.size.minCycles, int(seconds/cycleSeconds))
	start := time.Now()
	var last *ingestRound
	for i := 0; i < cycles; i++ {
		// A cycle takes about cycleSeconds on the reference box. A pass
		// that has fallen to a third of that pace (a starved VM) gives
		// up its remaining cycles rather than overrun the time the
		// driver allows a run; the metrics keep their definitions and
		// lose samples.
		if i >= 2 && time.Since(start) > time.Duration(3*float64(i)*cycleSeconds*float64(time.Second)) {
			break
		}
		if last != nil {
			last.c.Close()
			last.c, last.evs = nil, nil
		}
		// Durable ingest; the cluster is closed and re-opened from its
		// directory, and must come back with the outputs it had.
		if err := e.durableRound(lc, 2*i+1); err != nil {
			return nil, err
		}
		// In-memory ingest on a fresh cluster; the last one goes on to
		// serve.
		round, err := e.runIngestRound(2*i, e.size.memWindows, e.size.window, e.size.reserve, "")
		if err != nil {
			return nil, err
		}
		lc.mem = append(lc.mem, round)
		last = round
	}

	srv, err := e.startServing(lc, last)
	if err != nil {
		last.c.Close()
		return nil, err
	}
	ts0 := last.c.TransportStats()
	srv.coldStage(stageBudget(seconds, coldShare), e.size.coldMin)
	lc.coldTS = subTransport(last.c.TransportStats(), ts0)
	srv.mixedStage(stageBudget(seconds, mixedShare), e.size.mixedMinOps)
	lc.cold, lc.mixed = srv.cold, srv.mixed
	e.finishServing(lc, srv, last)
	srv.d.close()
	last.c.Close()
	last.c, last.evs = nil, nil

	if withOracle {
		evs := e.wl.events(e.seed, 0, e.size.oracleEvents)
		lc.ratio = e.oraclePass(evs)
	}
	return lc, nil
}

// startServing puts the daemon over a filled cluster and splits the
// round's events: the tail is the reader's working set, the outputs below
// it are asked once each (first by the direct queries of a traced run,
// then by the cold stage), the reserve feeds the writer.
func (e *env) startServing(lc *lifecycle, round *ingestRound) (*serving, error) {
	d, err := e.startDaemon(round.c)
	if !e.ops.attempt(err) {
		return nil, err
	}
	injected := round.evs[:round.inject]
	ws := min(e.size.workingSet, len(injected)/2)
	srv := &serving{
		d:       d,
		unasked: injected[:len(injected)-ws],
		working: injected[len(injected)-ws:],
		zipf:    wl.NewZipf(rand.New(rand.NewSource(e.seed)), ws, 0.9),
		unsent:  round.evs[round.inject:],
	}
	for _, ev := range srv.working {
		srv.urls = append(srv.urls, d.queryURL(ev))
	}

	nd := min(e.size.directQueries, len(srv.unasked)/2)
	ts0 := round.c.TransportStats()
	for _, ev := range srv.unasked[:nd] {
		t := time.Now()
		if res, ok := e.directQuery(round.c, ev); ok {
			lc.direct.latMS = append(lc.direct.latMS, millis(time.Since(t)))
			lc.direct.hops += res.Hops
		}
	}
	srv.unasked = srv.unasked[nd:]
	lc.directTS = subTransport(round.c.TransportStats(), ts0)
	return srv, nil
}

// finishServing runs the serving stages' oracle once they are over:
// nothing was refused, the cold stage never hit the cache, what the daemon
// serves equals a fresh query, and the cluster holds exactly the outputs
// of the events it was given.
func (e *env) finishServing(lc *lifecycle, srv *serving, round *ingestRound) {
	c := srv.d.c
	e.ops.attempt(c.Quiesce(quiesceTimeout))
	e.ops.check(lc.cold.hits == 0, "cold stage saw %d cache hits, want 0", lc.cold.hits)
	lc.server = srv.d.serverStats()
	e.ops.check(lc.server["rejected"] == 0, "%v requests rejected with 429", lc.server["rejected"])

	n := e.size.oracleSamples
	srv.d.verifyServed(sampleEvents(srv.working, n*3/4, e.seed))
	srv.d.verifyServed(sampleEvents(lc.mixed.written, n/4, e.seed))
	e.checkOutputs(c, append(append([]types.Tuple(nil), round.evs[:round.inject]...), lc.mixed.written...))
	lc.drift = e.checkAccounting(c)
	lc.serveTS = c.TransportStats()
}

// durableRound ingests one round into a data directory, closes the
// cluster and re-opens it from the directory, timing each re-open.
func (e *env) durableRound(lc *lifecycle, round int) error {
	dir, err := e.tempDir()
	if !e.ops.attempt(err) {
		return err
	}
	defer os.RemoveAll(dir)
	r, err := e.runIngestRound(round, e.size.durWindows, e.size.durWarm, 0, dir)
	if err != nil {
		return err
	}
	lc.dur = append(lc.dur, r)
	before := outputKeys(r.c.AllOutputs())
	r.c.Close()
	r.c, r.evs = nil, nil

	// Close writes no snapshot, so every re-open replays the same log.
	for i := 0; i < e.size.reopens; i++ {
		start := time.Now()
		c, err := e.boot("", dir, nil)
		took := time.Since(start)
		if !e.ops.attempt(err) {
			return fmt.Errorf("re-open %s: %w", dir, err)
		}
		lc.recover = append(lc.recover, took.Seconds())
		e.ops.check(equalKeys(before, outputKeys(c.AllOutputs())), "outputs after re-open differ from outputs before close")
		c.Close()
	}
	return nil
}
