package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"provcompress/internal/trace"
	"provcompress/internal/types"
)

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	s := summarize([]float64{9, 1, 5, 3, 7})
	if s.Median != 5 || s.Q1 != 3 || s.Q3 != 7 || s.N != 5 {
		t.Fatalf("summarize = %+v, want median 5, quartiles 3 and 7, n 5", s)
	}
	// Even count: quartiles interpolate between order statistics.
	s = summarize([]float64{1, 2, 3, 4})
	if s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Fatalf("summarize(1..4) = %+v", s)
	}
	if !math.IsNaN(summarize(nil).Median) {
		t.Fatal("empty sample must not summarize to a number")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 1000 samples: the p99 is the 990th, with exactly 10 beyond it.
	if v, err := percentile(xs, 99, minBeyond); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 99, minBeyond); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[:20], 50, minBeyond); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(xs[:19], 50, minBeyond); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(xs, p, minBeyond); err == nil {
			t.Fatalf("percentile %v accepted", p)
		}
	}
}

func span(id, parent trace.SpanID, kind string, start, end int) trace.Span {
	return trace.Span{Trace: 1, ID: id, Parent: parent, Kind: kind,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []trace.Span{
		span(1, 0, "query", 0, 100),
		span(2, 1, "walk", 10, 40),         // child
		span(3, 1, "walk", 30, 60),         // overlaps 2 by 10 ms
		span(4, 2, "rule", 15, 25),         // grandchild, nested in 2
		span(5, 1, "reconstruct", 90, 130), // runs 30 ms past its parent
	}
	times := map[trace.SpanID]spanTimes{}
	for _, st := range traceTimes(spans) {
		times[st.span.ID] = st
	}
	ms := func(d time.Duration) int { return int(d / time.Millisecond) }
	// Root: children cover [10,60] and [90,100] = 60 ms of its 100.
	if got := ms(times[1].self); got != 40 {
		t.Errorf("root self = %d ms, want 40", got)
	}
	if got := ms(times[1].subtree); got != 60 {
		t.Errorf("root subtree cover = %d ms, want 60", got)
	}
	// Span 2 lasts 30 ms, its child covers 10.
	if got := ms(times[2].self); got != 20 {
		t.Errorf("span 2 self = %d ms, want 20", got)
	}
	if got := ms(times[3].self); got != 30 {
		t.Errorf("leaf self = %d ms, want its duration 30", got)
	}
	for id, st := range times {
		dur := st.span.End - st.span.Start
		if st.self < 0 || st.self > dur || st.subtree > dur {
			t.Errorf("span %d: self %v, subtree %v outside [0, %v]", id, st.self, st.subtree, dur)
		}
	}
}

// fakeClock advances only when the loop waits or an operation takes time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	stop := make(chan struct{})
	interval := 10 * time.Millisecond
	// Call 1 stalls 25 ms; every other call takes 1 ms.
	cost := map[int]time.Duration{1: 25 * time.Millisecond}
	wait := func(d time.Duration, stop <-chan struct{}) bool {
		select {
		case <-stop:
			return false
		default:
			clock.t = clock.t.Add(d)
			return true
		}
	}
	calls := 0
	lat, lag := openLoop(interval, stop, clock.now, wait, func(i int) {
		c, ok := cost[i]
		if !ok {
			c = time.Millisecond
		}
		clock.t = clock.t.Add(c)
		if calls++; calls == 5 {
			close(stop)
		}
	})
	// Due at 0, 10, 20, 30, 40 ms. Call 1 runs 10→35, so call 2 (due 20)
	// is sent at 35 and call 3 (due 30) at 36; call 4 is on time again.
	wantLag := []float64{0, 0, 15, 6, 0}
	wantLat := []float64{1, 25, 16, 7, 1}
	if !reflect.DeepEqual(lag, wantLag) {
		t.Errorf("lag = %v, want %v", lag, wantLag)
	}
	if !reflect.DeepEqual(lat, wantLat) {
		t.Errorf("latency from due time = %v, want %v", lat, wantLat)
	}
}

// classShape maps each event to the index of its class in order of first
// appearance: equal shapes mean equal sharing structure.
func classShape(w *workload, evs []types.Tuple) []int {
	seen := map[string]int{}
	shape := make([]int, len(evs))
	for i, ev := range evs {
		c := w.class(ev)
		if _, ok := seen[c]; !ok {
			seen[c] = len(seen)
		}
		shape[i] = seen[c]
	}
	return shape
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a := w.events(7, 0, 300)
		b := w.events(7, 0, 300)
		c := w.events(8, 0, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different events", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same events", w.name)
		}
		if reflect.DeepEqual(a, w.events(7, 1, 300)) {
			t.Errorf("%s: different rounds gave the same events", w.name)
		}
		if !reflect.DeepEqual(classShape(w, a), classShape(w, c)) {
			t.Errorf("%s: class structure depends on the seed", w.name)
		}
		for _, ev := range a[:20] {
			if out := w.output(ev); out.Loc() == "" || w.prog().OutputRelations()[out.Rel] == false {
				t.Errorf("%s: %s is not an output of the program", w.name, out)
			}
		}
	}
	// The two workloads sit at the two ends of sharing.
	shared := classShape(&sharedWorkload, sharedWorkload.events(1, 0, 560))
	distinct := classShape(&distinctWorkload, distinctWorkload.events(1, 0, 560))
	if max := maxOf(shared); max != 55 {
		t.Errorf("shared workload has %d classes, want 56", max+1)
	}
	if max := maxOf(distinct); max != 559 {
		t.Errorf("distinct workload has %d classes in 560 events, want 560", max+1)
	}
	if len(sharedWorkload.events(1, 0, 1)[0].Args[3].AsString()) != 40 {
		t.Error("shared workload payload is not 40 characters")
	}
}

func maxOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func TestWindowSamples(t *testing.T) {
	rounds := []*ingestRound{
		{events: 200, mallocs: 1000, windows: []windowSample{{rate: 100}, {rate: 300}}},
		{events: 200, mallocs: 3000, windows: []windowSample{{rate: 200}}},
	}
	if got := windowRates(rounds); !reflect.DeepEqual(got, []float64{100, 300, 200}) {
		t.Errorf("windowRates = %v", got)
	}
	s := overRounds(rounds, func(r *ingestRound) float64 { return perEvent(float64(r.mallocs), r.events) })
	if s.Median != 10 || s.N != 2 {
		t.Errorf("allocs per event over rounds = %+v, want median 10 of 2", s)
	}
}
