package workload

import (
	"math/rand"
	"testing"
	"time"

	"provcompress/internal/types"
)

// TestBurstyExactMultipleClosedForm pins the fence-post behavior of the
// bursty generator: for a horizon d = m*Period (BurstLen an exact multiple
// of the event interval), exactly m full bursts fire plus the single event
// opening the burst that starts at the horizon itself —
// m*(BurstLen/interval + 1) + 1 events.
func TestBurstyExactMultipleClosedForm(t *testing.T) {
	w := Bursty{Period: time.Second, BurstLen: 200 * time.Millisecond, Rate: 10}
	// interval = 100ms; per full burst: t = 0, 100ms, 200ms → 3 events.
	times := w.Times(3 * time.Second)
	want := 3*3 + 1
	if len(times) != want {
		t.Fatalf("bursty events = %d, want %d", len(times), want)
	}
	if times[len(times)-1] != 3*time.Second {
		t.Errorf("last event at %v, want 3s (horizon edge)", times[len(times)-1])
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("times not strictly increasing at %d: %v", i, times[:i+1])
		}
	}

	// Non-multiple horizon: the partial cycle contributes only the events
	// that fit.
	if got := w.Times(2550 * time.Millisecond); len(got) != 9 {
		t.Errorf("non-multiple events = %d, want 9", len(got))
	}
	// Zero horizon: the single event at t=0.
	if got := w.Times(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("zero-horizon events = %v, want [0]", got)
	}
}

// TestBurstyClosedFormProperty sweeps seeded random configurations whose
// parameters divide evenly and checks Times against the closed form.
func TestBurstyClosedFormProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		interval := time.Duration(1+rng.Intn(20)) * 10 * time.Millisecond
		perBurst := 1 + rng.Intn(5) // events per burst window = perBurst (j = 0..perBurst-1)
		burstLen := time.Duration(perBurst-1) * interval
		period := burstLen + time.Duration(1+rng.Intn(5))*interval
		m := 1 + rng.Intn(4)
		w := Bursty{Period: period, BurstLen: burstLen, Rate: float64(time.Second) / float64(interval)}
		d := time.Duration(m) * period
		want := m*perBurst + 1
		if got := w.Times(d); len(got) != want {
			t.Fatalf("trial %d: %+v horizon %v: events = %d, want %d",
				trial, w, d, len(got), want)
		}
	}
}

// TestDeletionStormOps pins the storm sequence: Waves insert+delete passes
// over the tuple set, then the restoring re-insert.
func TestDeletionStormOps(t *testing.T) {
	tuples := []types.Tuple{
		types.NewTuple("route", types.String("n1"), types.String("a"), types.String("n2")),
		types.NewTuple("route", types.String("n1"), types.String("b"), types.String("n2")),
	}
	s := DeletionStorm{Tuples: tuples, Waves: 3, Restore: true}
	ops := s.Ops()
	if want := 3*2*len(tuples) + len(tuples); len(ops) != want {
		t.Fatalf("ops = %d, want %d", len(ops), want)
	}
	// First wave: all inserts, then all deletes.
	for i := 0; i < len(tuples); i++ {
		if !ops[i].Insert || ops[len(tuples)+i].Insert {
			t.Fatalf("wave 0 malformed at %d", i)
		}
	}
	// Tail: the restoring inserts.
	for _, op := range ops[len(ops)-len(tuples):] {
		if !op.Insert {
			t.Fatal("restore pass contains a delete")
		}
	}
	// Deterministic.
	again := s.Ops()
	for i := range ops {
		if ops[i].Insert != again[i].Insert || !ops[i].Tuple.Equal(again[i].Tuple) {
			t.Fatal("DeletionStorm.Ops not deterministic")
		}
	}
}
