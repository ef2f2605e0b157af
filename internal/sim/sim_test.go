package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v, want [1 2 3]", got)
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
	if s.queue.Len() != 0 {
		t.Errorf("%d events left after Run, want 0", s.queue.Len())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of insertion order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	var s Scheduler
	var fired []time.Duration
	s.After(time.Second, func() {
		fired = append(fired, s.Now())
		s.After(time.Second, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Errorf("fired = %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	var s Scheduler
	var count int
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(5 * time.Second)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", s.Now())
	}
	if s.queue.Len() != 5 {
		t.Errorf("pending = %d, want 5", s.queue.Len())
	}
	s.RunFor(2 * time.Second)
	if count != 7 || s.Now() != 7*time.Second {
		t.Errorf("after RunFor: count = %d, Now = %v", count, s.Now())
	}
	// RunUntil advances the clock even with nothing to do.
	s.Run()
	s.RunUntil(time.Minute)
	if s.Now() != time.Minute {
		t.Errorf("Now = %v, want 1m", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var s Scheduler
	s.After(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("At in the past should panic")
		}
	}()
	s.At(time.Millisecond, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	var s Scheduler
	defer func() {
		if recover() == nil {
			t.Error("negative After should panic")
		}
	}()
	s.After(-time.Second, func() {})
}

func TestReentrantRunPanics(t *testing.T) {
	var s Scheduler
	var recovered bool
	s.After(time.Second, func() {
		defer func() { recovered = recover() != nil }()
		s.Run()
	})
	s.Run()
	if !recovered {
		t.Error("re-entrant Run should panic")
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var s Scheduler
		r := rand.New(rand.NewSource(seed))
		var fired []time.Duration
		for i := 0; i < 200; i++ {
			s.After(time.Duration(r.Intn(1000))*time.Millisecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		return fired
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatal("different event counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Monotone firing times.
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("time went backwards: %v after %v", a[i], a[i-1])
		}
	}
}
