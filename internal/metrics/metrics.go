// Package metrics provides the measurement helpers used to regenerate the
// paper's evaluation figures: CDFs of per-node rates, time series of
// storage and bandwidth, growth-rate estimation, and aligned text tables
// for terminal output.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Series is a time series of measurements.
type Series struct {
	Times  []time.Duration
	Values []float64
}

// Add appends a point.
func (s *Series) Add(t time.Duration, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Times) }

// Last returns the final value (0 if empty).
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// GrowthRate fits the average growth per second between the first and last
// points.
func (s *Series) GrowthRate() float64 {
	if len(s.Values) < 2 {
		return 0
	}
	dt := (s.Times[len(s.Times)-1] - s.Times[0]).Seconds()
	if dt <= 0 {
		return 0
	}
	return (s.Values[len(s.Values)-1] - s.Values[0]) / dt
}

// CDF holds an empirical cumulative distribution.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Percentile returns the p-quantile (p in [0,1]) by nearest-rank.
func (c *CDF) Percentile(p float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(p*float64(len(c.sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx]
}

// Points returns (value, fraction) pairs suitable for plotting the CDF.
func (c *CDF) Points() (xs, ys []float64) {
	xs = append([]float64(nil), c.sorted...)
	ys = make([]float64, len(xs))
	for i := range xs {
		ys[i] = float64(i+1) / float64(len(xs))
	}
	return xs, ys
}

// Mean averages the samples.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Median returns the middle sample.
func Median(samples []float64) float64 {
	return NewCDF(samples).Percentile(0.5)
}

// HumanBytes renders a byte count with a binary-ish decimal unit, e.g.
// "11.8 GB".
func HumanBytes(n int64) string {
	const unit = 1000
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %cB", float64(n)/float64(div), "KMGTPE"[exp])
}

// HumanRate renders a bit-per-second rate, e.g. "5.0 Mbps".
func HumanRate(bitsPerSecond float64) string {
	switch {
	case bitsPerSecond >= 1e9:
		return fmt.Sprintf("%.2f Gbps", bitsPerSecond/1e9)
	case bitsPerSecond >= 1e6:
		return fmt.Sprintf("%.2f Mbps", bitsPerSecond/1e6)
	case bitsPerSecond >= 1e3:
		return fmt.Sprintf("%.2f Kbps", bitsPerSecond/1e3)
	default:
		return fmt.Sprintf("%.0f bps", bitsPerSecond)
	}
}

// FormatTable renders an aligned text table with a header row.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
