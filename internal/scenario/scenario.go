// Package scenario is the registry of deployable DELP scenarios: each
// entry bundles a program with the topology shape it runs over, its
// slow-changing base tuples, a deterministic input-event generator, and a
// slow-churn generator for deletion storms. provd's cluster bring-up
// (-app) and provserve's soak test resolve scenarios by name, so every
// deployment of an application looks the same.
package scenario

import (
	"fmt"
	"sort"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/ndlog"
	"provcompress/internal/topo"
	"provcompress/internal/types"
	"provcompress/internal/workload"
)

// Scenario describes one deployable application.
type Scenario struct {
	// Name resolves the scenario (the -app flag).
	Name string
	// Description is a one-line summary for usage text.
	Description string
	// Prog returns the scenario's DELP.
	Prog func() *ndlog.Program
	// Funcs returns the UDF registry the program needs.
	Funcs func() ndlog.FuncMap
	// Topology builds the n-node deployment graph. Node names are n0..n%d
	// for every scenario, so operational tooling stays shape-agnostic.
	Topology func(n int) *topo.Graph
	// Base returns the slow-changing base tuples to load at boot.
	Base func(g *topo.Graph) []types.Tuple
	// Event returns the seq-th input event. Events are deterministic in
	// seq and unique (distinct VIDs), while mapping onto a bounded set of
	// equivalence classes so the Advanced scheme's sharing is exercised.
	Event func(g *topo.Graph, seq int64) types.Tuple
	// Churn returns the i-th slow-churn tuple for deletion storms:
	// insert/delete cycles on it bury graveyard entries and fire §5.5 sig
	// broadcasts without perturbing the live base state the events use.
	Churn func(g *topo.Graph, i int) types.Tuple
}

// prefixes is the bounded prefix universe of the BGP scenario: adverts for
// the same prefix share an equivalence class.
const prefixes = 4

var registry = map[string]Scenario{
	"forwarding": {
		Name:        "forwarding",
		Description: "packet forwarding over a chain (Figure 1) — the paper's primary workload",
		Prog:        apps.Forwarding,
		Funcs:       apps.Funcs,
		Topology:    func(n int) *topo.Graph { return topo.Line(n, "n") },
		Base:        func(g *topo.Graph) []types.Tuple { return g.ShortestPaths().RouteTuples() },
		Event: func(g *topo.Graph, seq int64) types.Tuple {
			nodes := g.Nodes()
			first, last := string(nodes[0]), string(nodes[len(nodes)-1])
			return types.NewTuple("packet",
				types.String(first), types.String(first), types.String(last),
				types.String(workload.Payload(seq, 40)))
		},
		Churn: func(g *topo.Graph, i int) types.Tuple {
			nodes := g.Nodes()
			// A route for a destination no packet targets: inert for the
			// live traffic, real churn for the graveyard and sig path.
			return types.NewTuple("route",
				types.String(string(nodes[0])),
				types.String(fmt.Sprintf("ghost-%d", i)),
				types.String(string(nodes[1])))
		},
	},
	"bgp": {
		Name:        "bgp",
		Description: "BGP-style interdomain routing — deep chains, slow route churn hammering the §5.5 sig path",
		Prog:        apps.BGP,
		Funcs:       apps.Funcs,
		Topology:    func(n int) *topo.Graph { return topo.Line(n, "n") },
		Base: func(g *topo.Graph) []types.Tuple {
			nodes := g.Nodes()
			var out []types.Tuple
			// bgpRoute(@ni, P, ni+1) for every prefix: adverts injected at
			// n0 traverse the full chain, the deepest provenance shape the
			// topology allows.
			for p := 0; p < prefixes; p++ {
				prefix := fmt.Sprintf("p%d", p)
				for i := 0; i+1 < len(nodes); i++ {
					out = append(out, types.NewTuple("bgpRoute",
						types.String(string(nodes[i])), types.String(prefix),
						types.String(string(nodes[i+1]))))
				}
				// The chain's far end owns every prefix's policy entry, so
				// the RIB materializes after the longest possible walk.
				out = append(out, types.NewTuple("bgpOwner",
					types.String(string(nodes[len(nodes)-1])), types.String(prefix)))
			}
			return out
		},
		Event: func(g *topo.Graph, seq int64) types.Tuple {
			nodes := g.Nodes()
			return types.NewTuple("advert",
				types.String(string(nodes[0])),
				types.String(fmt.Sprintf("p%d", seq%prefixes)),
				types.String("as-origin"),
				types.Int(seq))
		},
		Churn: func(g *topo.Graph, i int) types.Tuple {
			nodes := g.Nodes()
			// Route policy for a prefix never advertised: every insert
			// fires a sig broadcast (the §5.5 path), every delete buries a
			// tuple, and the advert traffic is untouched.
			return types.NewTuple("bgpRoute",
				types.String(string(nodes[0])),
				types.String(fmt.Sprintf("withdrawn-%d", i)),
				types.String(string(nodes[1])))
		},
	},
	"gossip": {
		Name:        "gossip",
		Description: "epidemic rumor dissemination over a binary out-tree — exponential fan-out, wide trees",
		Prog:        apps.Gossip,
		Funcs:       apps.Funcs,
		Topology:    GossipTree,
		Base: func(g *topo.Graph) []types.Tuple {
			nodes := g.Nodes()
			var out []types.Tuple
			for i := range nodes {
				// Peers follow the tree's child edges: rumors flood root to
				// leaves and terminate (the peer relation is a DAG).
				for _, c := range []int{2*i + 1, 2*i + 2} {
					if c < len(nodes) {
						out = append(out, types.NewTuple("gossipPeer",
							types.String(string(nodes[i])), types.String(string(nodes[c]))))
					}
				}
				out = append(out, types.NewTuple("gossipMember",
					types.String(string(nodes[i]))))
			}
			return out
		},
		Event: func(g *topo.Graph, seq int64) types.Tuple {
			nodes := g.Nodes()
			return types.NewTuple("rumor",
				types.String(string(nodes[0])),
				types.String(fmt.Sprintf("r%d", seq)),
				types.String("member-0"))
		},
		Churn: func(g *topo.Graph, i int) types.Tuple {
			nodes := g.Nodes()
			// A standby-peer relation no rule consumes: pure slow-state
			// churn against the graveyard and sig machinery.
			return types.NewTuple("gossipStandby",
				types.String(string(nodes[0])),
				types.String(fmt.Sprintf("standby-%d", i)))
		},
	},
}

// GossipTree builds the gossip scenario's n-node binary out-tree with the
// same n0..n%d naming as the chain topologies.
func GossipTree(n int) *topo.Graph {
	g := topo.NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(types.NodeAddr(fmt.Sprintf("n%d", i)))
	}
	nodes := g.Nodes()
	for i := range nodes {
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(nodes) {
				g.MustAddLink(nodes[i], nodes[c], time.Millisecond, 1_000_000)
			}
		}
	}
	return g
}

// Get resolves a scenario by name.
func Get(name string) (Scenario, error) {
	s, ok := registry[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown app %q (have %v)", name, Names())
	}
	return s, nil
}

// Names lists the registered scenarios, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
