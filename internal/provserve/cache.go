package provserve

import (
	"container/list"
	"sync"

	"provcompress/internal/trace"
)

// answer is the cached form of one completed provenance query: the
// rendered trees, the cost stats of the cold run that produced it, and
// the invalidation tags that decide when it dies.
type answer struct {
	Trees  []string
	Hops   int
	ColdNS int64 // the cold query's cluster-side latency, nanoseconds
	// Keys is the sorted invalidation-key set the answer's walk touched
	// (cluster.QueryResult.InvalKeys); firing any of them evicts the
	// entry.
	Keys []uint64
	// AdmitSeq is the cache invalidation sequence snapshot taken before
	// the walk ran (Admit); Put drops the answer if any of its keys was
	// invalidated after that point.
	AdmitSeq uint64
	// TraceID names the cold run's span tree (zero when tracing is off);
	// hits replay it so a cached answer stays explorable.
	TraceID trace.TraceID
}

// Invalidation reasons, the label values of
// provd_cache_invalidations_total{reason}.
const (
	invalVID      = "vid"      // a key fired (output landing, slow insert/delete, graveyard eviction, regained predecessor)
	invalInflight = "inflight" // answer raced a key firing mid-walk and was dropped at Put
	invalLRU      = "lru"      // capacity eviction
)

// depCache is a fixed-capacity LRU keyed by (scheme, output tuple, event
// ID) with dependency-indexed invalidation: every entry carries the
// invalidation-key set its walk touched, and a reverse index from key to
// entries makes firing a key evict exactly the dependents — unrelated
// entries stay hot (DESIGN.md §14).
//
// Answers computed concurrently with an invalidation are handled by an
// admission sequence: Admit snapshots the global invalidation counter
// before the walk runs, Invalidate records per key when it last fired,
// and Put drops any answer one of whose keys fired after its admission.
// Together with eager eviction under the same mutex this is airtight:
// an entry present when a key fires is removed; an answer in flight when
// it fires is dropped at Put; an answer admitted after the firing saw
// the post-invalidation cluster state and may be kept.
//
// lastInval is pruned by raising `floor` (the value assumed for keys
// missing from the map): conservative — pruning can only drop more
// in-flight answers, never serve a stale one.
type depCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	// deps indexes live entries by invalidation key.
	deps map[uint64]map[*list.Element]struct{}

	seq       uint64            // global invalidation sequence
	lastInval map[uint64]uint64 // key -> seq of its last firing
	floor     uint64            // assumed lastInval for keys absent from the map

	hits, misses  int64
	invalidations map[string]int64 // reason -> entries dropped
}

// lastInvalCap bounds the lastInval map; past it the map is cleared and
// the floor raised to the current sequence (see depCache doc).
const lastInvalCap = 1 << 16

type cacheItem struct {
	key string
	ans answer
}

func newDepCache(capacity int) *depCache {
	if capacity < 1 {
		capacity = 1
	}
	return &depCache{
		cap:           capacity,
		ll:            list.New(),
		items:         make(map[string]*list.Element, capacity),
		deps:          make(map[uint64]map[*list.Element]struct{}),
		lastInval:     make(map[uint64]uint64),
		invalidations: make(map[string]int64),
	}
}

// Admit snapshots the invalidation sequence; call it before running the
// query whose answer will be Put with this snapshot.
func (c *depCache) Admit() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Get returns the cached answer for key, if present.
func (c *depCache) Get(key string) (answer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return answer{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheItem).ans, true
}

// Put stores an answer unless one of its keys was invalidated after the
// answer's admission snapshot — that answer may reflect pre-invalidation
// cluster state and is dropped (counted as an inflight invalidation).
// An existing entry for the key is replaced.
func (c *depCache) Put(key string, ans answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range ans.Keys {
		if c.lastInvalOf(k) > ans.AdmitSeq {
			c.invalidations[invalInflight]++
			return
		}
	}
	if el, ok := c.items[key]; ok {
		c.unindex(el)
		el.Value.(*cacheItem).ans = ans
		c.index(el)
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheItem{key: key, ans: ans})
	c.items[key] = el
	c.index(el)
	for c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back(), invalLRU)
	}
}

// Invalidate fires a set of invalidation keys: it bumps the sequence,
// records the firing per key, and evicts every entry tagged with any of
// them. It returns the number of entries evicted.
func (c *depCache) Invalidate(keys []uint64) int {
	if len(keys) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	evicted := 0
	for _, k := range keys {
		c.lastInval[k] = c.seq
		for el := range c.deps[k] {
			c.removeLocked(el, invalVID)
			evicted++
		}
	}
	if len(c.lastInval) > lastInvalCap {
		c.lastInval = make(map[uint64]uint64)
		c.floor = c.seq
	}
	return evicted
}

// lastInvalOf returns when k last fired; keys pruned from (or never in)
// the map report the floor. Caller holds mu.
func (c *depCache) lastInvalOf(k uint64) uint64 {
	if v, ok := c.lastInval[k]; ok {
		return v
	}
	return c.floor
}

// index adds an entry to the reverse key index. Caller holds mu.
func (c *depCache) index(el *list.Element) {
	for _, k := range el.Value.(*cacheItem).ans.Keys {
		m := c.deps[k]
		if m == nil {
			m = make(map[*list.Element]struct{})
			c.deps[k] = m
		}
		m[el] = struct{}{}
	}
}

// unindex removes an entry from the reverse key index. Caller holds mu.
func (c *depCache) unindex(el *list.Element) {
	for _, k := range el.Value.(*cacheItem).ans.Keys {
		if m := c.deps[k]; m != nil {
			delete(m, el)
			if len(m) == 0 {
				delete(c.deps, k)
			}
		}
	}
}

// removeLocked drops one entry, unindexing it and counting the reason.
// Caller holds mu.
func (c *depCache) removeLocked(el *list.Element, reason string) {
	c.unindex(el)
	c.ll.Remove(el)
	delete(c.items, el.Value.(*cacheItem).key)
	c.invalidations[reason]++
}

// Len returns the number of live entries.
func (c *depCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// DepKeys returns the number of distinct invalidation keys currently
// indexing entries — the provd_cache_dep_keys gauge.
func (c *depCache) DepKeys() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.deps)
}

// Stats returns the lookup counters.
func (c *depCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Invalidations snapshots the per-reason eviction counters.
func (c *depCache) Invalidations() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.invalidations))
	for r, n := range c.invalidations {
		out[r] = n
	}
	return out
}
