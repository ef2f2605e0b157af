package provserve

import (
	"fmt"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/cluster"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// checkedQuery serves recv(@dst,src,dst,payload) over HTTP and asserts
// the answer — cached or cold — is byte-identical to a fresh recomputation
// on the underlying cluster. Returns the response for cached-flag checks.
func checkedQuery(t *testing.T, c *cluster.Cluster, baseURL, src, dst, payload string) queryResponse {
	t.Helper()
	spec := tupleSpec{Rel: "recv", Args: []any{dst, src, dst, payload}}
	qr, resp := get(t, baseURL, spec)
	if resp.StatusCode != 200 {
		t.Fatalf("query recv(@%s,%s,%s,%s): status %d", dst, src, dst, payload, resp.StatusCode)
	}
	out, err := spec.tuple()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(out, types.ZeroID, 10*time.Second)
	if err != nil {
		t.Fatalf("oracle query %v: %v", out, err)
	}
	oracle := make([]string, len(res.Trees))
	for i, tr := range res.Trees {
		oracle[i] = tr.String()
	}
	if served, fresh := sortedTrees(qr.Trees), sortedTrees(oracle); served != fresh {
		t.Fatalf("stale answer for recv(@%s,%s,%s,%s) (cached=%v):\nserved:\n  %s\noracle:\n  %s",
			dst, src, dst, payload, qr.Cached, served, fresh)
	}
	return qr
}

// TestChaosCacheInvalidation extends the chaos suite to the serving tier:
// a seeded plan of frame drops, write stalls, and one-shot connection
// resets runs under a hot cache while rounds of fresh events hit one
// equivalence class, and a node is kill-9'd and restarted mid-sequence.
// The properties:
//
//   - every served answer matches a fresh recomputation (the oracle), and
//     each round's new event is first answered cold;
//   - invalidation is exact: a round's event evicts no entry — the
//     previous rounds' answers for its own class and the untouched class
//     alike stay cache hits, through drops, retries and the restarts;
//   - the transport's byte-class accounting stays exact under the faults.
func TestChaosCacheInvalidation(t *testing.T) {
	g := topo.Line(4, "n")
	c, err := cluster.New(cluster.Config{
		Prog:   apps.Forwarding(),
		Funcs:  apps.Funcs(),
		Nodes:  g.Nodes(),
		Scheme: "advanced",
		Faults: &cluster.FaultPlan{
			Seed:       23,
			Drop:       0.06,
			Delay:      0.04,
			DelayFor:   2 * time.Millisecond,
			ResetAfter: 8,
		},
		Transport: cluster.TransportConfig{RetryBudget: 12, BackoffMax: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Clusters: map[string]*cluster.Cluster{"advanced": c}})

	// Warm the cache: one event in the hot class (n0->n3, which rounds
	// will keep touching) and one in a cold class (n3->n0, which nothing
	// after this touches).
	er := postEvents(t, ts.URL, 30000, packetSpec("n0", "n3", "hot-0"), packetSpec("n3", "n0", "cold-0"))
	if er.Accepted != 2 || !er.Quiesced {
		t.Fatalf("warmup inject = %+v", er)
	}
	checkedQuery(t, c, ts.URL, "n0", "n3", "hot-0")
	checkedQuery(t, c, ts.URL, "n3", "n0", "cold-0")
	if qr := checkedQuery(t, c, ts.URL, "n3", "n0", "cold-0"); !qr.Cached {
		t.Fatal("cold-class re-query not served from cache")
	}

	const rounds = 6
	for r := 1; r <= rounds; r++ {
		if r == 2 || r == 4 {
			// Kill -9 a relay node and revive it; the transport's
			// retry/backoff bridges the outage, and the cache must stay
			// exact across the restart.
			c.Node("n2").Kill()
			if err := c.Restart("n2"); err != nil {
				t.Fatalf("round %d: restart n2: %v", r, err)
			}
		}
		payload := fmt.Sprintf("hot-%d", r)
		er := postEvents(t, ts.URL, 30000, packetSpec("n0", "n3", payload))
		if er.Accepted != 1 || !er.Quiesced {
			t.Fatalf("round %d inject = %+v", r, er)
		}
		// The event added a prov row under its own event ID only: the
		// previous round's answer for this class is still cached and still
		// what the oracle computes, and the new event's is cold.
		prev := fmt.Sprintf("hot-%d", r-1)
		if qr := checkedQuery(t, c, ts.URL, "n0", "n3", prev); !qr.Cached {
			t.Fatalf("round %d: same-class event evicted the entry of %s", r, prev)
		}
		if qr := checkedQuery(t, c, ts.URL, "n0", "n3", payload); qr.Cached {
			t.Fatalf("round %d: first query of %s claims cached", r, payload)
		}
		// The untouched class rides through every round as a hit.
		if qr := checkedQuery(t, c, ts.URL, "n3", "n0", "cold-0"); !qr.Cached {
			t.Fatalf("round %d: untouched-class entry was evicted", r)
		}
	}

	if got := s.cache.Invalidations()[invalVID]; got != 0 {
		t.Fatalf("same-class writes evicted %d entries, want 0", got)
	}
	stats := c.TransportStats()
	if stats.BytesTotal == 0 {
		t.Fatal("no bytes accounted")
	}
	if sum := stats.BytesBase + stats.BytesProv + stats.BytesQuery + stats.BytesBatch; sum != stats.BytesTotal {
		t.Fatalf("byte-class accounting drift: base %d + prov %d + query %d + batch %d = %d, total %d",
			stats.BytesBase, stats.BytesProv, stats.BytesQuery, stats.BytesBatch, sum, stats.BytesTotal)
	}
	if stats.Retries == 0 && stats.Drops == 0 {
		t.Fatal("fault plan injected no observable faults; chaos run degenerate")
	}
}
