package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"

	"provcompress/internal/trace"
)

// perLayerDefs are the metrics of single layers (layer = package name),
// emitted by the traced run. README.md says how each is measured and
// which end-to-end metric it should move.
var perLayerDefs = []metricDef{
	{"types.hash_ns_per_tuple", "ns"},
	{"types.hash_allocs_per_tuple", "count"},
	{"types.encode_ns_per_tuple", "ns"},
	{"engine.eval_ns_per_event", "ns"},
	{"engine.eval_allocs_per_event", "count"},
	{"engine.firings_per_event", "count"},
	{"engine.insert_ns_per_tuple", "ns"},
	{"engine.lookup_vid_ns", "ns"},
	{"core.inject_ns_per_event", "ns"},
	{"core.fire_ns_per_firing", "ns"},
	{"core.output_ns_per_event", "ns"},
	{"core.maintain_allocs_per_event", "count"},
	{"core.exist_true_ratio", "ratio"},
	{"core.storage_bytes_per_event", "bytes"},
	{"core.persist_ns_per_kib", "ns"},
	{"wire.tuple_encode_ns", "ns"},
	{"wire.tuple_decode_ns", "ns"},
	{"wire.batch_append_ns_per_frame", "ns"},
	{"wire.batch_decode_ns_per_frame", "ns"},
	{"wire.batch_compress_ratio", "ratio"},
	{"wire.allocs_per_frame", "count"},
	{"store.append_ns_per_record", "ns"},
	{"store.append_bytes_per_record", "bytes"},
	{"store.sync_ms", "ms"},
	{"store.checkpoint_ms", "ms"},
	{"store.replay_ns_per_record", "ns"},
	{"cluster.inject_call_us", "us"},
	{"cluster.drain_ms_per_window", "ms"},
	{"cluster.hops_per_event", "count"},
	{"cluster.sends_per_event", "count"},
	{"cluster.frames_per_batch", "count"},
	{"cluster.bytes_base_per_event", "bytes"},
	{"cluster.bytes_prov_per_event", "bytes"},
	{"cluster.bytes_batch_per_event", "bytes"},
	{"cluster.wal_records_per_event", "count"},
	{"cluster.retries", "count"},
	{"cluster.drops", "count"},
	{"cluster.accounting_drift_bytes", "bytes"},
	{"cluster.residual_us_per_event", "us"},
	{"query_cold_p99_ms", "ms"},
	{"serve_read_p99_ms", "ms"},
	{"serve_write_p99_ms", "ms"},
	{"cluster.query_p50_ms", "ms"},
	{"cluster.query_hops_mean", "count"},
	{"cluster.bytes_query_per_query", "bytes"},
	{"cluster.query_retries", "count"},
	{"cluster.span_process_self_us", "us"},
	{"cluster.span_rule_self_us", "us"},
	{"cluster.span_walk_self_us", "us"},
	{"cluster.span_reconstruct_self_us", "us"},
	{"cluster.span_query_wait_us", "us"},
	{"provserve.cold_overhead_ms", "ms"},
	{"provserve.hit_p50_ms", "ms"},
	{"provserve.post_event_p50_ms", "ms"},
	{"provserve.invalidations_per_write", "count"},
	{"provserve.evictions_lru", "count"},
	{"provserve.cache_dep_keys", "count"},
	{"provserve.rejected_429", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans_per_event", "count"},
	{"trace.dropped_spans", "count"},
	{"bench.writer_lag_p99_ms", "ms"},
}

// tracedSizing is the reduced sizing of the traced run: a fifth of the
// window, fewer rounds, so that every span of the pass fits in memory
// and the Chrome trace stays loadable. The untraced reference pass of
// the same run uses the same sizing, which is what makes
// trace.overhead_ratio a like-for-like ratio.
func tracedSizing(w *workload) sizing {
	s := referenceSizing(w)
	s.window = w.window / 5
	s.memWindows = 3
	s.durWarm = s.window / 5
	s.minCycles = 2
	// Enough requests for the three p99s this run reports.
	s.coldMin = 1000
	s.mixedMinOps = 1000 + minBeyond
	s.reserve = 1500
	s.directQueries = 300
	return s
}

// spanBudget is the traced pass's span budget: large enough that nothing
// is evicted (trace.dropped_spans must be 0).
const spanBudget = 1 << 22

// Shares of --seconds the two passes of a traced run get.
const (
	referencePassShare = 0.5
	tracedPassShare    = 0.25
)

// tracedRun produces the per-layer metrics: an untraced reference pass
// for the program's own counters, the layer twins, then the same pass
// again with a span collector handed to the cluster and the daemon.
func (e *env) tracedRun(seconds float64) (metrics, error) {
	ref, err := e.runLifecycle(seconds*referencePassShare, false)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}

	m, twinUS := e.runTwins(e.wl.events(e.seed, 0, e.size.oracleEvents))

	// The traced pass is one cycle of two windows: about 10^5 spans.
	e.tracer = trace.NewCollector(spanBudget)
	e.size.coldMin, e.size.mixedMinOps, e.size.minCycles, e.size.memWindows = 0, 0, 1, 2
	tr, err := e.runLifecycle(seconds*tracedPassShare, false)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if err := e.writeTrace(); err != nil {
		return nil, err
	}
	spans := collectSpanStats(e.tracer)

	// cluster: counters of the untraced reference pass.
	mem := ref.mem
	var events, sends, batches, batchFrames, base, prov, batch, retries, drops float64
	var injectUS, drainMS []float64
	for _, r := range mem {
		events += float64(r.events)
		sends += float64(r.transport.Sends)
		batches += float64(r.transport.Batches)
		batchFrames += float64(r.transport.BatchFrames)
		base += float64(r.transport.BytesBase)
		prov += float64(r.transport.BytesProv)
		batch += float64(r.transport.BytesBatch)
		retries += float64(r.transport.Retries)
		drops += float64(r.transport.Drops)
		for _, w := range r.windows {
			injectUS = append(injectUS, w.injectUS)
			drainMS = append(drainMS, w.drainMS)
		}
	}
	e2e, err := ref.endToEnd()
	if err != nil {
		return nil, err
	}
	if err := ref.tails(m, e.size.tailBeyond); err != nil {
		return nil, err
	}
	m["cluster.inject_call_us"] = summarize(injectUS)
	m["cluster.drain_ms_per_window"] = summarize(drainMS)
	m["cluster.sends_per_event"] = single(sends / events)
	m["cluster.frames_per_batch"] = single(batchFrames / max(batches, 1))
	m["cluster.bytes_base_per_event"] = single(base / events)
	m["cluster.bytes_prov_per_event"] = single(prov / events)
	m["cluster.bytes_batch_per_event"] = single(batch / events)
	m["cluster.wal_records_per_event"] = overRounds(ref.dur, func(r *ingestRound) float64 { return perEvent(float64(r.walRecs), r.events) })
	m["cluster.retries"] = single(retries + float64(ref.serveTS.Retries))
	m["cluster.drops"] = single(drops + float64(ref.serveTS.Drops+ref.serveTS.QueueDrops))
	m["cluster.accounting_drift_bytes"] = single(float64(ref.drift))
	// What no leaf layer owns: locks, channels, goroutine hand-offs,
	// syscalls. By construction twin time + residual = CPU per event.
	m["cluster.residual_us_per_event"] = single(e2e["ingest_cpu_us_per_event"].Value - twinUS)

	// cluster, query side: direct QueryContext, no HTTP.
	direct := float64(len(ref.direct.latMS))
	m["cluster.query_p50_ms"] = summarize(ref.direct.latMS)
	m["cluster.query_hops_mean"] = single(float64(ref.direct.hops) / direct)
	m["cluster.bytes_query_per_query"] = single(float64(ref.directTS.BytesQuery) / direct)
	m["cluster.query_retries"] = single(float64(ref.directTS.QueryRetries + ref.coldTS.QueryRetries))

	// cluster: self time of the spans the cluster emits, traced pass.
	inject := float64(spans.count["inject"])
	m["cluster.hops_per_event"] = single(float64(spans.count["process"]) / inject)
	m["cluster.span_process_self_us"] = single(spans.meanSelfUS("process"))
	m["cluster.span_rule_self_us"] = single(spans.meanSelfUS("rule"))
	m["cluster.span_walk_self_us"] = single(spans.meanSelfUS("walk"))
	m["cluster.span_reconstruct_self_us"] = single(spans.meanSelfUS("reconstruct"))
	m["cluster.span_query_wait_us"] = single(spans.waitUS / float64(max(spans.queries, 1)))

	// provserve: latencies of the reference pass and the daemon's own
	// counters after its mixed stage.
	writes := float64(len(ref.mixed.written))
	m["provserve.cold_overhead_ms"] = single(e2e["query_cold_p50_ms"].Value - m["cluster.query_p50_ms"].Value)
	m["provserve.hit_p50_ms"] = summarizeOrZero(ref.mixed.hitMS)
	m["provserve.post_event_p50_ms"] = summarize(ref.mixed.serviceMS)
	m["provserve.invalidations_per_write"] = single((ref.server["cache-invalidated-class"] + ref.server["cache-invalidated-vid"]) / writes)
	m["provserve.evictions_lru"] = single(ref.server["cache-invalidated-lru"])
	m["provserve.cache_dep_keys"] = single(ref.server["cache-dep-keys"])
	m["provserve.rejected_429"] = single(ref.server["rejected"])

	// trace: what tracing costs and whether it kept everything.
	m["trace.overhead_ratio"] = single(median(windowRates(ref.mem)) / median(windowRates(tr.mem)))
	m["trace.spans_per_event"] = single(float64(spans.count["inject"]+spans.count["process"]+spans.count["rule"]) / inject)
	m["trace.dropped_spans"] = single(float64(e.tracer.Dropped()))
	e.ops.check(e.tracer.Dropped() == 0, "collector dropped %d spans", e.tracer.Dropped())

	lag, err := latencyPercentile(ref.mixed.lagMS, 99, e.size.tailBeyond)
	if err != nil {
		return nil, fmt.Errorf("bench.writer_lag_p99_ms: %w", err)
	}
	m["bench.writer_lag_p99_ms"] = lag
	return m, nil
}

// writeTrace renders every collected span as one Chrome trace document,
// checks it the way a consumer would, and stores it gzipped (Perfetto
// and chrome://tracing open .json.gz).
func (e *env) writeTrace() error {
	var doc bytes.Buffer
	if err := e.tracer.WriteChromeTraceAll(&doc); err != nil {
		return err
	}
	n, err := trace.ValidateChrome(doc.Bytes())
	e.ops.check(err == nil, "chrome trace invalid: %v", err)
	e.ops.check(n == e.tracer.SpanCount(), "chrome trace has %d spans, collector %d", n, e.tracer.SpanCount())

	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(e.outDir, fmt.Sprintf("trace-%s-seed%d.json.gz", e.wl.name, e.seed)))
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write(doc.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
