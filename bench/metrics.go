package main

import (
	"fmt"
	"math"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json repeats
// the names, units and directions (and fixes the end-to-end bounds); the
// smoke test holds the two lists equal.
type metricDef struct {
	name string
	unit string
}

// endToEndDefs are the metrics a user of the service sees, measured on
// every workload with tracing off.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ingest_events_per_s", "events/s"},
	{"ingest_cpu_us_per_event", "us"},
	{"allocs_per_event", "count"},
	{"live_heap_bytes_per_event", "bytes"},
	{"storage_bytes_per_event", "bytes"},
	{"wire_bytes_per_event", "bytes"},
	{"storage_ratio_vs_exspan", "ratio"},
	{"durable_events_per_s", "events/s"},
	{"wal_bytes_per_event", "bytes"},
	{"recovery_s", "s"},
	{"query_cold_p50_ms", "ms"},
	{"serve_qps", "1/s"},
	{"serve_write_p50_ms", "ms"},
	{"serve_hit_ratio", "ratio"},
}

// metrics is one pass's named summaries.
type metrics map[string]Summary

func perEvent(total float64, events int) float64 { return total / float64(events) }

// overRounds summarizes one per-round figure of the given rounds.
func overRounds(rounds []*ingestRound, f func(r *ingestRound) float64) Summary {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return summarize(xs)
}

// perEventOverRounds is a per-event cost of the whole stage: the total
// over every round divided by every round's events. The quartiles are
// those of the per-round costs.
func perEventOverRounds(rounds []*ingestRound, total func(r *ingestRound) float64) Summary {
	var sum float64
	events := 0
	for _, r := range rounds {
		sum += total(r)
		events += r.events
	}
	s := overRounds(rounds, func(r *ingestRound) float64 { return perEvent(total(r), r.events) })
	return s.reporting(perEvent(sum, events))
}

func windowRates(rounds []*ingestRound) []float64 {
	var xs []float64
	for _, r := range rounds {
		for _, w := range r.windows {
			xs = append(xs, w.rate)
		}
	}
	return xs
}

// stageRate is the stage's throughput: all measured events over all
// measured window time. A window lasts a third of a second and a garbage
// collection or a neighbour's burst slows single windows by half, so the
// median window is what the stage did between disturbances, not what it
// sustained; the quartiles of the per-window rates show that spread.
func stageRate(rounds []*ingestRound) Summary {
	var seconds float64
	events := 0
	for _, r := range rounds {
		events += r.events
		for _, w := range r.windows {
			seconds += w.seconds
		}
	}
	return summarize(windowRates(rounds)).reporting(float64(events) / seconds)
}

// latencyPercentile summarizes a latency distribution around one of its
// percentiles: the reported value is the percentile, the quartiles and
// the count describe the distribution it was taken from.
func latencyPercentile(ms []float64, p float64, beyond int) (Summary, error) {
	v, err := percentile(ms, p, beyond)
	if err != nil {
		return Summary{}, err
	}
	return summarize(ms).reporting(v), nil
}

// endToEnd turns a lifecycle pass into the end-to-end metrics.
func (lc *lifecycle) endToEnd() (metrics, error) {
	reads := len(lc.mixed.readMS)
	if reads == 0 || len(lc.cold.latMS) == 0 || len(lc.mixed.writeMS) == 0 {
		return nil, fmt.Errorf("a serving stage completed no request")
	}
	return metrics{
		"setup_s":             overRounds(lc.mem, func(r *ingestRound) float64 { return r.setup.Seconds() }),
		"ingest_events_per_s": stageRate(lc.mem),
		"ingest_cpu_us_per_event": perEventOverRounds(lc.mem, func(r *ingestRound) float64 {
			return float64(r.cpu.Microseconds())
		}),
		"allocs_per_event":          perEventOverRounds(lc.mem, func(r *ingestRound) float64 { return float64(r.mallocs) }),
		"live_heap_bytes_per_event": perEventOverRounds(lc.mem, func(r *ingestRound) float64 { return float64(r.heap) }),
		"storage_bytes_per_event":   perEventOverRounds(lc.mem, func(r *ingestRound) float64 { return float64(r.storage) }),
		"wire_bytes_per_event":      perEventOverRounds(lc.mem, func(r *ingestRound) float64 { return float64(r.transport.BytesTotal) }),
		"storage_ratio_vs_exspan":   single(lc.ratio),
		"durable_events_per_s":      stageRate(lc.dur),
		"wal_bytes_per_event":       perEventOverRounds(lc.dur, func(r *ingestRound) float64 { return float64(r.walBytes) }),
		"recovery_s":                summarize(lc.recover),
		"query_cold_p50_ms":         summarize(lc.cold.latMS),
		"serve_qps":                 summarize(lc.mixed.readMS).reporting(float64(reads) / lc.mixed.dur.Seconds()),
		"serve_write_p50_ms":        summarize(lc.mixed.writeMS),
		"serve_hit_ratio":           single(float64(len(lc.mixed.hitMS)) / float64(reads)),
	}, nil
}

// tails are the p99 latencies. A burst of a few milliseconds from the
// machine lands straight in them, so they are reported with the
// per-layer metrics, from the untraced reference pass, and carry no
// regression bound.
func (lc *lifecycle) tails(m metrics, beyond int) error {
	for name, ms := range map[string][]float64{
		"query_cold_p99_ms":  lc.cold.latMS,
		"serve_read_p99_ms":  lc.mixed.readMS,
		"serve_write_p99_ms": lc.mixed.writeMS,
	} {
		s, err := latencyPercentile(ms, 99, beyond)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = s
	}
	return nil
}

// checkFinite rejects a metric set holding a value the report cannot
// carry (NaN or ±Inf from an empty sample or a zero divisor).
func (m metrics) checkFinite() error {
	for name, s := range m {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	return nil
}
