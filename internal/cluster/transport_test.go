package cluster

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/types"
)

func TestTransportConfigDefaults(t *testing.T) {
	tc := TransportConfig{}.withDefaults()
	if tc.RetryBudget <= 0 || tc.BackoffMax <= 0 {
		t.Errorf("defaults left a zero field: %+v", tc)
	}
	// Explicit settings survive.
	tc = TransportConfig{RetryBudget: 9, BackoffMax: time.Second}.withDefaults()
	if tc.RetryBudget != 9 || tc.BackoffMax != time.Second {
		t.Errorf("explicit settings overridden: %+v", tc)
	}
}

// TestHaltSettlesEveryFrame races senders against halt while the link's
// first write stalls: the batch being written, a full queue behind it,
// senders blocked for room, and senders arriving as the link halts.
// Every frame counted in flight must settle — by the writer if the link
// admitted it before halt, by its sender otherwise — with no grace
// window to lean on.
func TestHaltSettlesEveryFrame(t *testing.T) {
	c, err := New(Config{
		Prog:   apps.Forwarding(),
		Funcs:  apps.Funcs(),
		Nodes:  []types.NodeAddr{"a", "b"},
		Faults: &FaultPlan{Delay: 1, DelayFor: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	n := c.node("a")
	tr := n.transportTo("b")
	send := func() {
		if err := n.send("b", []byte{1, 2, 3}, classBase, 0); err != nil {
			t.Error(err)
		}
	}
	// Fill the queue behind the first batch, whose write stalls.
	total := 0
	for stalled := false; !stalled; total++ {
		send()
		tr.mu.Lock()
		stalled = len(tr.sched.waiting) == queueLen && len(tr.sched.batch) > 0 && !tr.sched.open
		tr.mu.Unlock()
	}
	var wg sync.WaitGroup
	wave := func() {
		for i := 0; i < 16; i++ {
			total++
			wg.Add(1)
			go func() {
				defer wg.Done()
				send()
			}()
		}
	}
	wave()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		if strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*transport).enqueue(") == 16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("senders never blocked on the full queue")
		}
	}
	wave()
	tr.halt()
	wg.Wait()
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatalf("frames left unsettled after halt: %v", err)
	}
	if s := c.TransportStats(); s.Drops+s.QueueDrops != int64(total) || s.Sends != 0 {
		t.Errorf("%d drops + %d queue drops, %d sends; want all %d frames dropped unsent", s.Drops, s.QueueDrops, s.Sends, total)
	}
}

func TestBackoffBoundedAndGrowing(t *testing.T) {
	n := &Node{addr: "a", c: &Cluster{tcfg: TransportConfig{}.withDefaults()}, links: make(map[types.NodeAddr]*linkBytes)}
	tr := newTransport(n, "b", nil)
	prevCap := time.Duration(0)
	for attempt := 1; attempt <= 12; attempt++ {
		d := tr.backoff(attempt)
		if d <= 0 {
			t.Fatalf("backoff(%d) = %v", attempt, d)
		}
		if d > tr.cfg.BackoffMax {
			t.Fatalf("backoff(%d) = %v exceeds cap %v", attempt, d, tr.cfg.BackoffMax)
		}
		// The deterministic floor (half the doubled base) grows until the cap.
		floor := backoffBase
		for i := 1; i < attempt; i++ {
			floor *= 2
			if floor >= tr.cfg.BackoffMax {
				floor = tr.cfg.BackoffMax
				break
			}
		}
		if d < floor/2 {
			t.Fatalf("backoff(%d) = %v below floor %v", attempt, d, floor/2)
		}
		if floor/2 < prevCap {
			t.Fatalf("floor shrank at attempt %d", attempt)
		}
		prevCap = floor / 2
	}
}

func TestFaultPlanDeterminism(t *testing.T) {
	plan := &FaultPlan{Seed: 99, Drop: 0.2, Delay: 0.1, ResetAfter: 5}
	draw := func() []faultAction {
		l := plan.link("a", "b")
		var seq []faultAction
		for i := 0; i < 200; i++ {
			a := l.next()
			if a == faultNone || a == faultDelay {
				l.sent() // pretend the write succeeded
			}
			seq = append(seq, a)
		}
		return seq
	}
	first, second := draw(), draw()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("fault sequence diverged at %d: %v vs %v", i, first[i], second[i])
		}
	}
	resets := 0
	for _, a := range first {
		if a == faultReset {
			resets++
		}
	}
	if resets != 1 {
		t.Errorf("one-shot reset fired %d times", resets)
	}
}

func TestFaultPlanNilSafe(t *testing.T) {
	var plan *FaultPlan
	if plan.link("a", "b") != nil {
		t.Fatal("nil plan produced a fault stream")
	}
	c, err := New(Config{Prog: apps.Forwarding(), Funcs: apps.Funcs(), Nodes: []types.NodeAddr{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := c.dialer(c.node("a"), "b")()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*faultConn); ok {
		t.Error("a link without a plan dialed a fault connection")
	}
}

func TestLinkFaultsOneShotReset(t *testing.T) {
	plan := &FaultPlan{Seed: 1, ResetAfter: 3}
	l := plan.link("x", "y")
	for i := 0; i < 3; i++ {
		if a := l.next(); a != faultNone {
			t.Fatalf("fault %v before the reset threshold", a)
		}
		l.sent()
	}
	if a := l.next(); a != faultReset {
		t.Fatalf("expected reset after %d sends, got %v", plan.ResetAfter, a)
	}
	for i := 0; i < 10; i++ {
		if a := l.next(); a != faultNone {
			t.Fatalf("reset is not one-shot: %v", a)
		}
		l.sent()
	}
}

func TestSeenDuplicate(t *testing.T) {
	n := &Node{lastSeq: make(map[types.NodeAddr]*seqTracker)}
	cases := []struct {
		inc, seq uint64
		dup      bool
	}{
		{0, 1, false}, // first delivery
		{0, 1, true},  // exact redelivery
		{0, 2, false}, // next in stream
		{0, 2, true},  // redelivery again
		{0, 1, true},  // stale duplicate
		{0, 5, false}, // reordered ahead
		{0, 3, false}, // reordered first delivery still accepted
		{0, 3, true},  // ...but its duplicate is not
		{1, 1, false}, // sender restarted: fresh stream
		{0, 9, true},  // frame from the old incarnation
		{1, 2, false},
	}
	for i, tc := range cases {
		if got := n.seenDuplicate("peer", tc.inc, tc.seq); got != tc.dup {
			t.Errorf("case %d (inc=%d seq=%d): dup=%v, want %v", i, tc.inc, tc.seq, got, tc.dup)
		}
	}
	// Streams are tracked per sender.
	if n.seenDuplicate("other", 0, 1) {
		t.Error("fresh sender flagged as duplicate")
	}
}

func TestTransportStatsRendering(t *testing.T) {
	s := TransportStats{Dials: 3, Retries: 2, Drops: 1, LateResults: 4}
	c := s.Counters()
	if c.Get("dials") != 3 || c.Get("retries") != 2 || c.Get("drops") != 1 || c.Get("late-results") != 4 {
		t.Errorf("counters = %v", c)
	}
	out := s.String()
	for _, want := range []string{"dials", "retries", "late-results", "counter", "value"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered stats missing %q:\n%s", want, out)
		}
	}
}

func TestTransportStatsAccumulate(t *testing.T) {
	var live transportStats
	live.dials.Add(2)
	live.sends.Add(7)
	live.faultResets.Add(1)
	var s TransportStats
	s.accumulate(&live)
	s.accumulate(&live)
	if s.Dials != 4 || s.Sends != 14 || s.FaultResets != 2 {
		t.Errorf("accumulate = %+v", s)
	}
}
