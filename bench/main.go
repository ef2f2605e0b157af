// Command bench is the repository's one repeatable benchmark. It runs
// the provenance service through its whole lifecycle — in-memory ingest,
// cold queries, mixed serving, durable ingest with a re-open — on two
// workloads that differ in how much provenance their events share,
// checks every output against an oracle, and prints each metric by name.
// README.md in this directory is the glossary.
//
//	go run ./bench -seed 7                 every workload, tracing off
//	go run ./bench -seed 7 -trace 1        the traced run: per-layer metrics
//	go run ./bench -workload shared -seed 7 -seconds 30 -trace 0
//	go run ./bench -compare a.json b.json  do two run records agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: run all, write a run record)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds      = flag.Float64("seconds", 30, "how long one workload measures")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run, per-layer metrics")
		outDir       = flag.String("out", "bench/out", "directory for run records, traces and durable data (inside the checkout)")
		compare      = flag.Bool("compare", false, "compare two run records given as arguments against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *traced == 1, *outDir, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, traced bool, outDir string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two run records")
		}
		return compareRecords(os.Stdout, "BENCHMARK.json", args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	selected := workloads
	if workloadName != "" {
		w := workloadByName(workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		selected = []*workload{w}
	}
	rec := newRecord(seed, seconds, traced)
	ok := true
	for _, w := range selected {
		res, err := runWorkload(w, seed, seconds, traced, outDir)
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		res.print(os.Stdout)
		rec.Results = append(rec.Results, res)
		ok = ok && res.Correct
	}
	rec.End = time.Now().UTC()
	if workloadName != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object. A failed check is reported in it ("correct": false).
		line, err := json.Marshal(rec.Results[0].driverLine())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	path, err := rec.write(outDir)
	if err != nil {
		return err
	}
	fmt.Println("run record:", path)
	if !ok {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// Result is one workload's outcome in one run.
type Result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]Summary `json:"metrics"`
	Units     map[string]string  `json:"units"`
	WallS     float64            `json:"wall_s"`
}

// runWorkload runs one workload at its reference sizing: the untraced
// lifecycle for the end-to-end metrics, or the traced run for the
// per-layer ones.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, outDir string) (*Result, error) {
	size := referenceSizing(w)
	if traced {
		size = tracedSizing(w)
	}
	e := &env{wl: w, seed: seed, size: size, outDir: outDir, ops: &opCounter{}}
	return e.run(seconds, traced)
}

func (e *env) run(seconds float64, traced bool) (*Result, error) {
	start := time.Now()
	var (
		m    metrics
		defs []metricDef
		err  error
	)
	if traced {
		defs = perLayerDefs
		m, err = e.tracedRun(seconds)
	} else {
		defs = endToEndDefs
		var lc *lifecycle
		if lc, err = e.runLifecycle(seconds, true); err == nil {
			m, err = lc.endToEnd()
		}
	}
	if err == nil {
		err = m.checkFinite()
	}
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workload:  e.wl.name,
		Traced:    traced,
		Attempted: e.ops.attempted.Load(),
		Failed:    e.ops.failed.Load(),
		Failures:  e.ops.msgs,
		Metrics:   m,
		Units:     map[string]string{},
		WallS:     time.Since(start).Seconds(),
	}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Units[d.name] = d.unit
	}
	if len(m) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(m), len(defs))
	}
	return res, nil
}

// print lists every metric by name with its unit, quartiles and sample
// count, then the operation counts.
func (r *Result) print(w io.Writer) {
	mode := "end-to-end, tracing off"
	if r.Traced {
		mode = "per-layer, traced run"
	}
	fmt.Fprintf(w, "workload %s (%s)\n", r.Workload, mode)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %-9s q1 %.4f q3 %.4f n %d\n", name, s.Value, r.Units[name], s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; wall %.1f s\n", r.Attempted, r.Failed, r.WallS)
	for _, msg := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", msg)
	}
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

func (r *Result) driverLine() driverResult {
	out := driverResult{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	for name, s := range r.Metrics {
		out.Metrics[name] = driverMetric{Value: s.Value, Unit: r.Units[name]}
	}
	return out
}
