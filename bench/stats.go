package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary is one metric of one run. Value is the figure the metric
// reports: the median of its samples unless the glossary says otherwise
// (a percentile, or a ratio of whole-run totals). Median, the quartiles
// and N describe the samples (windows, rounds or requests) under it.
type Summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// millis is d in milliseconds at microsecond resolution, the unit and
// resolution of every latency sample.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the two nearest order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarize reports the median and quartiles of xs.
func summarize(xs []float64) Summary {
	s := sortedCopy(xs)
	m := quantile(s, 0.5)
	return Summary{Value: m, Median: m, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// summarizeOrZero is summarize for a sample that may be empty because
// the layer it describes did no work (no read hit the cache): 0, not NaN.
func summarizeOrZero(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return summarize(xs)
}

// single wraps a value measured once per run (a count ratio, a total).
func single(v float64) Summary { return Summary{Value: v, Median: v, Q1: v, Q3: v, N: 1} }

// reporting returns the summary of the samples with v as the reported
// figure in place of their median.
func (s Summary) reporting(v float64) Summary {
	s.Value = v
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the value is one outlier, not a percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs as the
// nearest-rank order statistic. It refuses a percentile that has fewer
// than beyond samples beyond it; at minBeyond a p99 needs 1000 samples.
func percentile(xs []float64, p float64, beyond int) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0,100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if n == 0 || n-rank < beyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, n-rank, beyond)
	}
	return sortedCopy(xs)[max(rank, 1)-1], nil
}
