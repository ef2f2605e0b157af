package provserve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"provcompress/internal/cluster"
)

func TestDepCacheBasics(t *testing.T) {
	c := newDepCache(4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	// "a" depends on keys {2, 5}; "b" only on {8}.
	c.Put("a", answer{Hops: 1, Keys: []uint64{2, 5}})
	c.Put("b", answer{Hops: 2, Keys: []uint64{8}})
	if ans, ok := c.Get("a"); !ok || ans.Hops != 1 {
		t.Fatalf("Get(a) = %+v, %v", ans, ok)
	}
	// Firing key 5 evicts "a" and only "a".
	if n := c.Invalidate([]uint64{5}); n != 1 {
		t.Fatalf("Invalidate(5) evicted %d, want 1", n)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry served after its key fired")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("independent entry evicted")
	}
	if got := c.Invalidations()[invalVID]; got != 1 {
		t.Fatalf("vid invalidations = %d, want 1", got)
	}
	// Firing key 2 finds no dependents left.
	if n := c.Invalidate([]uint64{2}); n != 0 {
		t.Fatalf("Invalidate(2) evicted %d, want 0", n)
	}
}

func TestDepCacheInflightDrop(t *testing.T) {
	c := newDepCache(4)
	seq := c.Admit()
	// Key 6 fires while the walk is (notionally) running.
	c.Invalidate([]uint64{6})
	// The in-flight answer touched key 6: dropped at Put.
	c.Put("a", answer{Keys: []uint64{4, 6}, AdmitSeq: seq})
	if _, ok := c.Get("a"); ok {
		t.Fatal("answer admitted before a key firing was served")
	}
	if got := c.Invalidations()[invalInflight]; got != 1 {
		t.Fatalf("inflight invalidations = %d, want 1", got)
	}
	// An answer whose keys did not fire since admission is kept.
	c.Put("b", answer{Keys: []uint64{4}, AdmitSeq: seq})
	if _, ok := c.Get("b"); !ok {
		t.Fatal("untouched in-flight answer dropped")
	}
	// A fresh admission after the firing may cache the same keys.
	c.Put("c", answer{Keys: []uint64{6}, AdmitSeq: c.Admit()})
	if _, ok := c.Get("c"); !ok {
		t.Fatal("re-admitted answer dropped")
	}
}

func TestDepCacheLRUEviction(t *testing.T) {
	c := newDepCache(2)
	seq := c.Admit()
	c.Put("a", answer{Hops: 1, Keys: []uint64{2}, AdmitSeq: seq})
	c.Put("b", answer{Hops: 2, Keys: []uint64{4}, AdmitSeq: seq})
	// Touch "a" so "b" is the eviction victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", answer{Hops: 3, Keys: []uint64{6}, AdmitSeq: seq})
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU victim b still cached")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want resident", k)
		}
	}
	if got := c.Invalidations()[invalLRU]; got != 1 {
		t.Fatalf("lru invalidations = %d, want 1", got)
	}
	// The victim was unindexed: firing its key finds nothing.
	if n := c.Invalidate([]uint64{4}); n != 0 {
		t.Fatalf("Invalidate(4) evicted %d after LRU removal, want 0", n)
	}
}

func TestDepCacheReplace(t *testing.T) {
	c := newDepCache(2)
	c.Put("a", answer{Hops: 1, Keys: []uint64{2}})
	c.Put("a", answer{Hops: 9, Keys: []uint64{4}})
	if c.Len() != 1 {
		t.Fatalf("len = %d after replacing a key, want 1", c.Len())
	}
	if ans, ok := c.Get("a"); !ok || ans.Hops != 9 {
		t.Fatalf("Get(a) = %+v, %v; want replaced answer", ans, ok)
	}
	// The replacement re-tagged the entry: the old key is dead, the new
	// one evicts.
	if n := c.Invalidate([]uint64{2}); n != 0 {
		t.Fatalf("stale tag still indexed: evicted %d", n)
	}
	if n := c.Invalidate([]uint64{4}); n != 1 {
		t.Fatalf("replacement tag not indexed: evicted %d", n)
	}
}

func TestDepCacheMinCapacity(t *testing.T) {
	c := newDepCache(0) // clamps to 1
	c.Put("a", answer{})
	c.Put("b", answer{})
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (capacity clamp)", c.Len())
	}
}

// TestDepCacheHammer drives concurrent Get/Put/Invalidate traffic through
// the cache under the race detector (make verify runs the suite with
// -race). Beyond freedom from data races it checks the one invariant
// observable mid-storm: an answer must never be served after one of its
// keys fired post-admission — enforced here by making each worker
// invalidate a key and then verify that no entry tagged with it and
// admitted before the firing is still there (another worker may
// legitimately admit and cache a fresh one in between).
func TestDepCacheHammer(t *testing.T) {
	const (
		workers = 8
		rounds  = 2000
		keys    = 32
	)
	c := newDepCache(64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				k := uint64(rng.Intn(keys))
				name := fmt.Sprintf("e%d", rng.Intn(96))
				switch rng.Intn(10) {
				case 0, 1, 2:
					before := c.Admit()
					c.Invalidate([]uint64{k})
					// Eager eviction is synchronous, and Put drops what was
					// admitted earlier: nothing admitted at or before `before`
					// and tagged with k may survive the call.
					if ans, ok := c.Get(fmt.Sprintf("tag%d", k)); ok && ans.AdmitSeq <= before {
						t.Errorf("entry tag%d (admitted at %d) served after its key %d fired past %d",
							k, ans.AdmitSeq, k, before)
						return
					}
				case 3, 4, 5:
					seq := c.Admit()
					// Entries named tag<k> are tagged exactly {k}, so the
					// invalidate arm above can check them.
					c.Put(fmt.Sprintf("tag%d", k), answer{Keys: []uint64{k}, AdmitSeq: seq})
				case 6:
					seq := c.Admit()
					c.Put(name, answer{Keys: []uint64{k, k + keys}, AdmitSeq: seq})
				default:
					c.Get(name)
				}
			}
		}(w)
	}
	wg.Wait()
	c.Len()
	c.DepKeys()
	c.Stats()
	c.Invalidations()
}

// TestCacheHitRateUnderSameClassWriter is the floor the keyed cache was
// built for: Zipf readers over preloaded outputs race a writer landing a
// new event every 500us in the very class every read target belongs to.
// Each new event adds a prov row under its own event ID and touches
// nothing a cached answer was built from (§5.3), so the hit rate must stay
// above one half while the writer actually writes.
func TestCacheHitRateUnderSameClassWriter(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Clusters: map[string]*cluster.Cluster{"advanced": newTestCluster(t, 5, "advanced")},
	})
	events := make([]tupleSpec, 12)
	for i := range events {
		events[i] = packetSpec("n0", "n4", fmt.Sprintf("pre-%d", i))
	}
	if er := postEvents(t, ts.URL, 60_000, events...); er.Accepted != len(events) || !er.Quiesced {
		t.Fatalf("preload = %+v", er)
	}

	rep, err := RunMixedLoad(MixedLoadConfig{
		LoadConfig:    LoadConfig{BaseURL: ts.URL, Requests: 800, Concurrency: 8, Alpha: 0.9, Seed: 1},
		WriteInterval: 500 * time.Microsecond,
		WriteSrc:      "n0",
		WriteDst:      "n4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 || rep.WriteErrors > 0 {
		t.Fatalf("%d query errors, %d write errors", rep.Errors, rep.WriteErrors)
	}
	if rep.Writes == 0 {
		t.Fatal("writer landed no events; the run is degenerate")
	}
	if rep.HitRate <= 0.5 {
		t.Fatalf("hit rate %.3f under sustained same-class writes, want > 0.5\n%s", rep.HitRate, rep)
	}
}
