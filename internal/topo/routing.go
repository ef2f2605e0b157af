package topo

import (
	"container/heap"
	"sort"
	"time"

	"provcompress/internal/types"
)

// Routes holds shortest-path next-hop tables for every ordered node pair,
// the output of the route precomputation step of Section 6.1 ("we
// pre-computed the shortest path between s and d ... the routes are stored
// in the route tables at each node").
type Routes struct {
	next map[types.NodeAddr]map[types.NodeAddr]types.NodeAddr
	hops map[types.NodeAddr]map[types.NodeAddr]int
}

// ShortestPaths runs Dijkstra from every node with link latency as the edge
// cost (ties broken by hop count, then lexicographic next hop, making the
// result deterministic).
func (g *Graph) ShortestPaths() *Routes {
	r := &Routes{
		next: make(map[types.NodeAddr]map[types.NodeAddr]types.NodeAddr, len(g.nodes)),
		hops: make(map[types.NodeAddr]map[types.NodeAddr]int, len(g.nodes)),
	}
	for _, src := range g.nodes {
		r.next[src], r.hops[src] = g.dijkstra(src)
	}
	return r
}

type pqItem struct {
	node types.NodeAddr
	cost time.Duration
	hops int
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].cost != q[j].cost {
		return q[i].cost < q[j].cost
	}
	if q[i].hops != q[j].hops {
		return q[i].hops < q[j].hops
	}
	return q[i].node < q[j].node
}
func (q pq) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)   { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// dijkstra returns, for one source, the first hop towards every destination
// and the hop count of the chosen path.
func (g *Graph) dijkstra(src types.NodeAddr) (map[types.NodeAddr]types.NodeAddr, map[types.NodeAddr]int) {
	type state struct {
		cost    time.Duration
		hops    int
		prev    types.NodeAddr
		settled bool
	}
	states := map[types.NodeAddr]*state{src: {}}
	q := &pq{{node: src}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		st := states[it.node]
		if st.settled {
			continue
		}
		st.settled = true
		for _, m := range g.Neighbors(it.node) {
			l, _ := g.FindLink(it.node, m)
			nc := st.cost + l.Latency
			nh := st.hops + 1
			ms, ok := states[m]
			if !ok {
				states[m] = &state{cost: nc, hops: nh, prev: it.node}
				heap.Push(q, pqItem{node: m, cost: nc, hops: nh})
				continue
			}
			if ms.settled {
				continue
			}
			if nc < ms.cost || nc == ms.cost && nh < ms.hops {
				ms.cost, ms.hops, ms.prev = nc, nh, it.node
				heap.Push(q, pqItem{node: m, cost: nc, hops: nh})
			}
		}
	}
	next := make(map[types.NodeAddr]types.NodeAddr, len(states)-1)
	hops := make(map[types.NodeAddr]int, len(states)-1)
	for dst, st := range states {
		if dst == src {
			continue
		}
		// Walk back to the neighbor of src.
		hop := dst
		for states[hop].prev != src {
			hop = states[hop].prev
		}
		next[dst] = hop
		hops[dst] = st.hops
	}
	return next, hops
}

// Hops returns the path length in hops from src to dst (0 if src == dst or
// unreachable; Path tells them apart).
func (r *Routes) Hops(src, dst types.NodeAddr) int { return r.hops[src][dst] }

// Path returns the node sequence from src to dst inclusive, or nil if
// unreachable.
func (r *Routes) Path(src, dst types.NodeAddr) []types.NodeAddr {
	if src == dst {
		return []types.NodeAddr{src}
	}
	path := []types.NodeAddr{src}
	cur := src
	for cur != dst {
		n, ok := r.next[cur][dst]
		if !ok {
			return nil
		}
		path = append(path, n)
		cur = n
	}
	return path
}

// RouteTuples materializes the next-hop tables as route(@src, dst, next)
// base tuples for the forwarding application of Figure 1.
func (r *Routes) RouteTuples() []types.Tuple {
	var out []types.Tuple
	srcs := make([]types.NodeAddr, 0, len(r.next))
	for s := range r.next {
		srcs = append(srcs, s)
	}
	sortAddrs(srcs)
	for _, s := range srcs {
		dsts := make([]types.NodeAddr, 0, len(r.next[s]))
		for d := range r.next[s] {
			dsts = append(dsts, d)
		}
		sortAddrs(dsts)
		for _, d := range dsts {
			out = append(out, types.NewTuple("route",
				types.String(string(s)), types.String(string(d)), types.String(string(r.next[s][d]))))
		}
	}
	return out
}

func sortAddrs(xs []types.NodeAddr) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
