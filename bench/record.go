package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Record is what one run leaves behind: where and when it ran, and per
// workload every metric's median, quartiles and sample count plus the
// attempted and failed operations.
type Record struct {
	GitSHA     string    `json:"git_sha"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	Results    []*Result `json:"results"`
}

func newRecord(seed int64, seconds float64, traced bool) *Record {
	return &Record{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Start:      time.Now().UTC(),
	}
}

// gitSHA names the commit under test; a checkout without git metadata
// (an exported tree) reports "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (r *Record) write(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	mode := "e2e"
	if r.Traced {
		mode = "traced"
	}
	path := filepath.Join(outDir, fmt.Sprintf("run-%s-seed%d-%s.json", mode, r.Seed, r.Start.Format("20060102T150405")))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func loadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareRecords prints, per workload and metric, whether two run
// records agree: an end-to-end metric agrees when the medians differ by
// no more than its bound in BENCHMARK.json, as a share of the first
// record's median. Per-layer metrics have no bound; their difference is
// listed for reading. It returns an error when any bounded metric
// disagrees or a workload failed operations.
func compareRecords(w io.Writer, benchmarkPath, pathA, pathB string) error {
	bf, err := loadBenchmarkFile(benchmarkPath)
	if err != nil {
		return err
	}
	a, err := loadRecord(pathA)
	if err != nil {
		return err
	}
	b, err := loadRecord(pathB)
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Fprintf(w, "a: %s seed %d %s\nb: %s seed %d %s\n", pathA, a.Seed, a.GitSHA, pathB, b.Seed, b.GitSHA)
	disagree := 0
	for _, ra := range a.Results {
		var rb *Result
		for _, r := range b.Results {
			if r.Workload == ra.Workload && r.Traced == ra.Traced {
				rb = r
			}
		}
		if rb == nil {
			fmt.Fprintf(w, "workload %s: missing from b\n", ra.Workload)
			disagree++
			continue
		}
		fmt.Fprintf(w, "workload %s: failed operations a %d/%d, b %d/%d\n", ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		if ra.Failed+rb.Failed > 0 {
			disagree++
		}
		names := make([]string, 0, len(ra.Metrics))
		for name := range ra.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sa := ra.Metrics[name]
			sb, ok := rb.Metrics[name]
			if !ok {
				fmt.Fprintf(w, "  %-36s missing from b\n", name)
				disagree++
				continue
			}
			diff := 0.0
			if sa.Value != 0 {
				diff = math.Abs(sb.Value-sa.Value) / math.Abs(sa.Value)
			} else if sb.Value != 0 {
				diff = math.Inf(1)
			}
			verdict := "no bound"
			if bound, ok := bounds[name]; ok {
				verdict = "agree"
				if diff > bound {
					verdict = "DISAGREE"
					disagree++
				}
				verdict += fmt.Sprintf(" (bound %.0f%%)", bound*100)
			}
			fmt.Fprintf(w, "  %-36s a %14.4f  b %14.4f  %s  diff %5.1f%%  %s\n", name, sa.Value, sb.Value, ra.Units[name], diff*100, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metrics or workloads disagree", disagree)
	}
	return nil
}
