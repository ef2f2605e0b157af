package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provcompress/internal/types"
)

// TestQueryContextCanceled pins the cancellation contract: a context
// canceled before (or while) a query waits aborts the wait with ctx.Err()
// instead of burning the per-attempt timeout.
func TestQueryContextCanceled(t *testing.T) {
	c := fig2Cluster(t)
	ev := pkt("n1", "n1", "n3", "data")
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	out := recvT("n3", "n1", "n3", "data")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := c.QueryContext(ctx, out, types.ZeroID, 30*time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled query took %v; should abort immediately", elapsed)
	}

	// A live context still answers.
	res, err := c.QueryContext(context.Background(), out, types.ZeroID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) == 0 {
		t.Fatal("no trees from live-context query")
	}

	// A deadline in the past is equivalent to an immediate cancel.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := c.QueryContext(dctx, out, types.ZeroID, 10*time.Second); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEventHookFires pins where invalidation keys fire: an accepted Inject
// fires nothing, each output landing fires the landed output's VID key,
// every accepted InsertSlow its tuple's VID key, and clearing the hook
// stops the calls.
func TestEventHookFires(t *testing.T) {
	c := fig2Cluster(t)
	var mu sync.Mutex
	fired := map[InvalKey]int{}
	total := func() int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, k := range fired {
			n += k
		}
		return n
	}
	c.SetEventHook(func(keys []InvalKey) {
		mu.Lock()
		defer mu.Unlock()
		for _, k := range keys {
			fired[k]++
		}
	})

	if err := c.Inject(pkt("n1", "n1", "n3", "a")); err != nil {
		t.Fatal(err)
	}
	if err := c.Inject(pkt("n1", "n1", "n3", "b")); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Both derivations reached their output tuples: each landing fired the
	// output's VID key, and nothing else fired — the injections themselves
	// are not invalidation events.
	mu.Lock()
	for _, payload := range []string{"a", "b"} {
		if k := VIDInvalKey(types.HashTuple(recvT("n3", "n1", "n3", payload))); fired[k] != 1 {
			t.Errorf("landing of recv %q fired its VID key %d times, want 1", payload, fired[k])
		}
	}
	if len(fired) != 2 {
		t.Errorf("2 injects + 2 landings fired %d distinct keys, want the 2 landed outputs' only", len(fired))
	}
	mu.Unlock()

	slow := types.NewTuple("link", types.String("n1"), types.String("n1"), types.String("n3"))
	before := total()
	if err := c.InsertSlow(slow); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if k := VIDInvalKey(types.HashTuple(slow)); fired[k] != 1 {
		t.Errorf("slow insert fired its VID key %d times, want 1", fired[k])
	}
	mu.Unlock()
	// A duplicate slow insert is not an accepted change.
	if err := c.InsertSlow(slow); err != nil {
		t.Fatal(err)
	}
	if got := total(); got != before+1 {
		t.Fatalf("hook fired %d keys after slow insert + duplicate, want %d", got, before+1)
	}
	c.SetEventHook(nil)
	if err := c.Inject(pkt("n1", "n1", "n3", "c")); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := total(); got != before+1 {
		t.Fatalf("hook fired %d keys after clearing, want %d", got, before+1)
	}
}

// TestInsertSlowFiresKeyBeforeBroadcast: the tuple is in the database as
// soon as the insert is accepted, so its key must fire even when the sig
// broadcast that follows fails — here because the inserting node is dead
// and its sends are refused.
func TestInsertSlowFiresKeyBeforeBroadcast(t *testing.T) {
	c := fig2Cluster(t)
	var fired atomic.Int64
	slow := types.NewTuple("link", types.String("n1"), types.String("n1"), types.String("n3"))
	want := VIDInvalKey(types.HashTuple(slow))
	c.SetEventHook(func(keys []InvalKey) {
		for _, k := range keys {
			if k == want {
				fired.Add(1)
			}
		}
	})
	c.Node("n1").Kill()
	if err := c.InsertSlow(slow); err == nil {
		t.Fatal("InsertSlow on a killed node: broadcast did not fail; the test needs the send error")
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("accepted slow insert whose broadcast failed fired its key %d times, want 1", got)
	}
}
