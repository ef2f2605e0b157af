package topo

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"provcompress/internal/types"
)

// TestShortestPathsPropertyRandomGraphs drives Dijkstra over random
// connected graphs with testing/quick: every returned path must be a real
// walk over existing links ending at the destination, and the hop counts
// must match the path lengths.
func TestShortestPathsPropertyRandomGraphs(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(15)
		g := Random(n, r.Intn(10), seed, "v")
		routes := g.ShortestPaths()
		nodes := g.Nodes()
		for _, src := range nodes {
			for _, dst := range nodes {
				if src == dst {
					continue
				}
				path := routes.Path(src, dst)
				if path == nil {
					t.Logf("seed %d: no path %s -> %s in connected graph", seed, src, dst)
					return false
				}
				if path[0] != src || path[len(path)-1] != dst {
					t.Logf("seed %d: path endpoints wrong: %v", seed, path)
					return false
				}
				for i := 1; i < len(path); i++ {
					if _, ok := g.FindLink(path[i-1], path[i]); !ok {
						t.Logf("seed %d: non-adjacent hop %s -> %s", seed, path[i-1], path[i])
						return false
					}
				}
				if routes.Hops(src, dst) != len(path)-1 {
					t.Logf("seed %d: hops %d != path length %d", seed, routes.Hops(src, dst), len(path)-1)
					return false
				}
				// The next hop is the second node of the path.
				if next, ok := routes.NextHop(src, dst); !ok || next != path[1] {
					t.Logf("seed %d: NextHop %v != %v", seed, next, path[1])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestShortestPathsOptimality checks, on random weighted graphs, that the
// chosen path's total latency is minimal, by comparing against a
// brute-force Bellman-Ford relaxation.
func TestShortestPathsOptimality(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		g := NewGraph()
		// Random connected graph with random latencies.
		var nodes []string
		for i := 0; i < n; i++ {
			nodes = append(nodes, string(rune('a'+i)))
			g.AddNode(types.NodeAddr(nodes[i]))
			if i > 0 {
				g.MustAddLink(types.NodeAddr(nodes[r.Intn(i)]), types.NodeAddr(nodes[i]),
					time.Duration(1+r.Intn(20))*time.Millisecond, 1_000_000)
			}
		}
		for e := 0; e < n; e++ {
			a, b := nodes[r.Intn(n)], nodes[r.Intn(n)]
			if a == b {
				continue
			}
			if _, ok := g.FindLink(types.NodeAddr(a), types.NodeAddr(b)); ok {
				continue
			}
			g.MustAddLink(types.NodeAddr(a), types.NodeAddr(b),
				time.Duration(1+r.Intn(20))*time.Millisecond, 1_000_000)
		}

		routes := g.ShortestPaths()

		// Bellman-Ford ground truth.
		const inf = time.Hour
		for _, src := range g.Nodes() {
			dist := make(map[types.NodeAddr]time.Duration)
			for _, v := range g.Nodes() {
				dist[v] = inf
			}
			dist[src] = 0
			for i := 0; i < g.NumNodes(); i++ {
				for _, l := range g.Links() {
					if dist[l.A]+l.Latency < dist[l.B] {
						dist[l.B] = dist[l.A] + l.Latency
					}
					if dist[l.B]+l.Latency < dist[l.A] {
						dist[l.A] = dist[l.B] + l.Latency
					}
				}
			}
			for _, dst := range g.Nodes() {
				if src == dst {
					continue
				}
				path := routes.Path(src, dst)
				if path == nil {
					t.Fatalf("seed %d: no path %s -> %s", seed, src, dst)
				}
				var total time.Duration
				for i := 1; i < len(path); i++ {
					l, _ := g.FindLink(path[i-1], path[i])
					total += l.Latency
				}
				if total != dist[dst] {
					t.Errorf("seed %d: path %s -> %s costs %v, optimum %v",
						seed, src, dst, total, dist[dst])
				}
			}
		}
	}
}

// Random builds a connected random graph: a random spanning tree plus extra
// cross edges.
func Random(n, extraEdges int, seed int64, prefix string) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := NewGraph()
	nodes := make([]types.NodeAddr, n)
	for i := range nodes {
		nodes[i] = types.NodeAddr(fmt.Sprintf("%s%d", prefix, i))
		g.AddNode(nodes[i])
		if i > 0 {
			g.MustAddLink(nodes[r.Intn(i)], nodes[i], SimpleLatency, SimpleBandwidth)
		}
	}
	for e := 0; e < extraEdges; e++ {
		for tries := 0; tries < 32; tries++ {
			a, b := nodes[r.Intn(n)], nodes[r.Intn(n)]
			if a == b {
				continue
			}
			if _, ok := g.FindLink(a, b); ok {
				continue
			}
			g.MustAddLink(a, b, SimpleLatency, SimpleBandwidth)
			break
		}
	}
	return g
}

// NextHop returns the first hop from src towards dst.
func (r *Routes) NextHop(src, dst types.NodeAddr) (types.NodeAddr, bool) {
	n, ok := r.next[src][dst]
	return n, ok
}
