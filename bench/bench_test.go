package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeSizing runs every stage at a size that finishes in about a second.
// It checks the plumbing, not the numbers: percentiles are taken from
// whatever few samples there are.
func smokeSizing(w *workload, traced bool) sizing {
	s := sizing{
		window:        w.window / 100,
		memWindows:    2,
		minCycles:     1,
		durWindows:    1,
		durWarm:       w.window / 500,
		reopens:       1,
		coldMin:       10,
		workingSet:    32,
		reserve:       100,
		writeInterval: 5 * time.Millisecond,
		oracleEvents:  w.window / 50,
		oracleSamples: 4,
		tailBeyond:    0,
	}
	if traced {
		s.directQueries = 5
	}
	return s
}

func smokeRun(t *testing.T, w *workload, traced bool) (*env, *Result) {
	t.Helper()
	e := &env{wl: w, seed: 5, size: smokeSizing(w, traced), outDir: t.TempDir(), ops: &opCounter{}}
	res, err := e.run(1, traced)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
	}
	t.Logf("%s traced=%v: %d operations in %.1f s", w.name, traced, res.Attempted, res.WallS)
	return e, res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts a result carries exactly the metrics BENCHMARK.json
// names for its mode, each once, finite and with the declared unit.
func checkEmitted(t *testing.T, res *Result, want []benchMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		s, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, m.Name)
			continue
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			t.Errorf("%s: metric %s = %v", res.Workload, m.Name, s.Value)
		}
		if res.Units[m.Name] != m.Unit || m.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", res.Workload, m.Name, res.Units[m.Name], m.Unit)
		}
	}
	// The driver's line carries the same set.
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]driverMetric
	}
	if err := json.Unmarshal(line, &parsed); err != nil || parsed.Correct == nil || parsed.Attempted == nil || parsed.Failed == nil {
		t.Fatalf("driver line %s: %v", line, err)
	}
	if len(parsed.Metrics) != len(want) {
		t.Errorf("driver line has %d metrics, want %d", len(parsed.Metrics), len(want))
	}
}

func TestBenchmarkSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}

	// The file's own limits.
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	setup := false
	for _, m := range bf.EndToEnd {
		unique(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range bf.PerLayer {
		unique(m.Name)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}

	// The file and the program name the same workloads and metrics.
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	for i, d := range endToEndDefs {
		if i >= len(bf.EndToEnd) || bf.EndToEnd[i].Name != d.name || bf.EndToEnd[i].Unit != d.unit {
			t.Errorf("end-to-end metric %d: program has %s [%s], BENCHMARK.json differs", i, d.name, d.unit)
		}
	}
	for i, d := range perLayerDefs {
		if i >= len(bf.PerLayer) || bf.PerLayer[i].Name != d.name || bf.PerLayer[i].Unit != d.unit {
			t.Errorf("per-layer metric %d: program has %s [%s], BENCHMARK.json differs", i, d.name, d.unit)
		}
	}

	// The four runs mostly wait (fsync, settle windows, open-loop
	// sleeps), so they run side by side.
	for _, w := range workloads {
		t.Run(w.name+"/end-to-end", func(t *testing.T) {
			t.Parallel()
			_, res := smokeRun(t, w, false)
			checkEmitted(t, res, bf.EndToEnd)
			for _, m := range bf.EndToEnd {
				// At this size the cache may never be hit.
				if res.Metrics[m.Name].Value == 0 && m.Name != "serve_hit_ratio" {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			t.Parallel()
			e, res := smokeRun(t, w, true)
			checkEmitted(t, res, bf.PerLayer)
			if v := res.Metrics["trace.dropped_spans"].Value; v != 0 {
				t.Errorf("%v spans dropped", v)
			}
			if v := res.Metrics["cluster.accounting_drift_bytes"].Value; v != 0 {
				t.Errorf("byte classes drift from the wire total by %v", v)
			}
			// Children never cover more than their parent lasted.
			spans := 0
			for _, id := range e.tracer.TraceIDs() {
				for _, st := range traceTimes(e.tracer.Trace(id)) {
					spans++
					dur := st.span.End - st.span.Start
					if st.self < 0 || st.self > dur || st.subtree < 0 || st.subtree > dur {
						t.Fatalf("span %d (%s): self %v, subtree cover %v, duration %v", st.span.ID, st.span.Kind, st.self, st.subtree, dur)
					}
				}
			}
			if spans == 0 {
				t.Error("traced run collected no span")
			}
			traces, _ := filepath.Glob(filepath.Join(e.outDir, "trace-*.json.gz")) //nolint:errcheck // pattern is constant
			if len(traces) != 1 {
				t.Errorf("%d Chrome trace files written, want 1", len(traces))
			}
		})
	}
}

func TestRecordAndCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(ingest float64) string {
		rec := newRecord(9, 1, false)
		rec.Results = []*Result{{
			Workload: "shared", Correct: true, Attempted: 10,
			Metrics: map[string]Summary{"ingest_events_per_s": single(ingest), "allocs_per_event": single(100)},
			Units:   map[string]string{"ingest_events_per_s": "events/s", "allocs_per_event": "count"},
		}}
		rec.End = time.Now().UTC()
		path, err := rec.write(filepath.Join(dir, strings.ReplaceAll(time.Now().Format("150405.000000000"), ".", "")))
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, near, far := write(30000), write(31000), write(50000)

	rec, err := loadRecord(a)
	if err != nil {
		t.Fatal(err)
	}
	if rec.GoVersion == "" || rec.GOMAXPROCS < 1 || rec.NProc < 1 || rec.Seed != 9 || rec.Start.IsZero() || rec.End.Before(rec.Start) || rec.GitSHA == "" {
		t.Errorf("record lacks run metadata: %+v", rec)
	}

	benchmark := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if err := compareRecords(&out, benchmark, a, near); err != nil {
		t.Errorf("records 3%% apart must agree: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "agree") {
		t.Errorf("compare output names no verdict:\n%s", out.String())
	}
	out.Reset()
	if err := compareRecords(&out, benchmark, a, far); err == nil || !strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("records 67%% apart must disagree: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(a); err != nil {
		t.Error(err)
	}
}
