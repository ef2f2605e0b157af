package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestSeries(t *testing.T) {
	var s Series
	if s.Len() != 0 || s.Last() != 0 || s.GrowthRate() != 0 {
		t.Error("empty series not zero")
	}
	s.Add(0, 100)
	s.Add(10*time.Second, 1100)
	if s.Len() != 2 || s.Last() != 1100 {
		t.Errorf("series = %+v", s)
	}
	if got := s.GrowthRate(); got != 100 {
		t.Errorf("GrowthRate = %v, want 100/s", got)
	}
	// Single point: no rate.
	var one Series
	one.Add(time.Second, 5)
	if one.GrowthRate() != 0 {
		t.Error("single-point growth rate nonzero")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4, 5})
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.At(3); got != 0.6 {
		t.Errorf("At(3) = %v, want 0.6", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v", got)
	}
	if got := c.Percentile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := c.Percentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := c.Percentile(1); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	xs, ys := c.Points()
	if len(xs) != 5 || ys[4] != 1.0 || xs[0] != 1 {
		t.Errorf("Points = %v, %v", xs, ys)
	}
	empty := NewCDF(nil)
	if empty.At(1) != 0 || empty.Percentile(0.5) != 0 {
		t.Error("empty CDF not zero")
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean wrong")
	}
	if Median([]float64{9, 1, 5}) != 5 {
		t.Error("median wrong")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{1500, "1.5 KB"},
		{11_800_000_000, "11.8 GB"},
	}
	for _, tc := range cases {
		if got := HumanBytes(tc.n); got != tc.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestHumanRate(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{500, "500 bps"},
		{476_000, "476.00 Kbps"},
		{5_000_000, "5.00 Mbps"},
		{1_500_000_000, "1.50 Gbps"},
	}
	for _, tc := range cases {
		if got := HumanRate(tc.v); got != tc.want {
			t.Errorf("HumanRate(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable(
		[]string{"scheme", "storage"},
		[][]string{{"ExSPAN", "11.8 GB"}, {"Advanced", "0.9 GB"}},
	)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "scheme") || !strings.Contains(lines[0], "storage") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[3], "Advanced") {
		t.Errorf("row = %q", lines[3])
	}
	// Columns aligned: "storage" starts at the same offset in each line.
	off := strings.Index(lines[0], "storage")
	if strings.Index(lines[2], "11.8") != off {
		t.Errorf("misaligned table:\n%s", out)
	}
}
