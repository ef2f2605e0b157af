package main

import (
	"sort"
	"time"

	"provcompress/internal/trace"
)

type interval struct{ start, end time.Duration }

// covered returns how much of [lo, hi] the intervals cover, counting
// overlapping parts once and ignoring what lies outside [lo, hi].
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.start, iv.end = max(iv.start, lo), min(iv.end, hi)
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	return total + cur.end - cur.start
}

// spanTimes holds, for each span of one trace, its self time — its
// duration minus the part of that interval its child spans cover — and
// the part its whole subtree (every descendant) covers.
type spanTimes struct {
	span    trace.Span
	self    time.Duration
	subtree time.Duration // covered by descendants, within the span
}

// traceTimes computes self and subtree-covered time for the spans of
// one trace. Children that overlap each other or run past their parent's
// end (a hop processed after the sender's span closed) are counted once
// and only inside the parent, so covered time never exceeds duration.
func traceTimes(spans []trace.Span) []spanTimes {
	children := map[trace.SpanID][]int{}
	for i, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	var descendants func(id trace.SpanID, into []interval) []interval
	descendants = func(id trace.SpanID, into []interval) []interval {
		for _, i := range children[id] {
			into = append(into, interval{spans[i].Start, spans[i].End})
			into = descendants(spans[i].ID, into)
		}
		return into
	}
	out := make([]spanTimes, len(spans))
	for i, sp := range spans {
		var direct []interval
		for _, j := range children[sp.ID] {
			direct = append(direct, interval{spans[j].Start, spans[j].End})
		}
		dur := sp.End - sp.Start
		out[i] = spanTimes{
			span:    sp,
			self:    dur - covered(direct, sp.Start, sp.End),
			subtree: covered(descendants(sp.ID, nil), sp.Start, sp.End),
		}
	}
	return out
}

// spanStats aggregates a collector's spans by kind.
type spanStats struct {
	count   map[string]int
	selfUS  map[string]float64 // summed self time per kind
	waitUS  float64            // query spans: duration minus what their subtree covers
	queries int
}

func collectSpanStats(c *trace.Collector) spanStats {
	st := spanStats{count: map[string]int{}, selfUS: map[string]float64{}}
	for _, id := range c.TraceIDs() {
		for _, t := range traceTimes(c.Trace(id)) {
			st.count[t.span.Kind]++
			st.selfUS[t.span.Kind] += float64(t.self.Nanoseconds()) / 1e3
			if t.span.Kind == "query" {
				st.queries++
				st.waitUS += float64((t.span.End - t.span.Start - t.subtree).Nanoseconds()) / 1e3
			}
		}
	}
	return st
}

// meanSelfUS is the mean self time of one span of the given kind.
func (st spanStats) meanSelfUS(kind string) float64 {
	if st.count[kind] == 0 {
		return 0
	}
	return st.selfUS[kind] / float64(st.count[kind])
}
