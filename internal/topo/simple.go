package topo

import (
	"fmt"
	"time"

	"provcompress/internal/types"
)

// Default link parameters for the small hand-built topologies.
const (
	SimpleLatency   = 2 * time.Millisecond
	SimpleBandwidth = 50_000_000
)

// Line builds a chain prefix0 -- prefix1 -- ... -- prefix(n-1).
func Line(n int, prefix string) *Graph {
	g := NewGraph()
	var prev types.NodeAddr
	for i := 0; i < n; i++ {
		cur := types.NodeAddr(fmt.Sprintf("%s%d", prefix, i))
		g.AddNode(cur)
		if i > 0 {
			g.MustAddLink(prev, cur, SimpleLatency, SimpleBandwidth)
		}
		prev = cur
	}
	return g
}

// Fig2 builds the running example of the paper's Figure 2: n1 -- n2 -- n3.
// The forwarding route tables of the figure (route(@n1,n3,n2) and
// route(@n2,n3,n3)) are returned by Fig2Routes.
func Fig2() *Graph {
	g := NewGraph()
	g.MustAddLink("n1", "n2", SimpleLatency, SimpleBandwidth)
	g.MustAddLink("n2", "n3", SimpleLatency, SimpleBandwidth)
	return g
}

// Fig2Routes returns the route base tuples of Figure 2, directing n1's and
// n2's traffic for destination n3.
func Fig2Routes() []types.Tuple {
	return []types.Tuple{
		types.NewTuple("route", types.String("n1"), types.String("n3"), types.String("n2")),
		types.NewTuple("route", types.String("n2"), types.String("n3"), types.String("n3")),
	}
}
