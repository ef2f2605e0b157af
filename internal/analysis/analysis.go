// Package analysis implements the static analysis of Section 5.2: it builds
// the attribute-level dependency graph of a DELP and identifies the
// equivalence keys of the input event relation (the GetEquiKeys algorithm of
// Figure 5), the minimal attribute set whose valuation determines the shape
// of every provenance tree the program can generate (Theorem 1).
//
// Following Appendix B, the analysis derives two judgements over attribute
// nodes (rel:i):
//
//   - joinSAttr(e:i): the event attribute joins slow-changing state — it
//     shares a variable with a slow-changing atom (JOIN-BASE), appears in an
//     arithmetic comparison (JOIN-ARITH-LEFT/RIGHT), or is passed to a
//     user-defined function (JOIN-FUNC-ATTR);
//   - joinFAttr(e:i, p:j): the attribute flows to a head attribute of the
//     same rule, either by sharing the variable or through an assignment.
//
// connected(a, b) is the reflexive-transitive closure of joinFAttr, and an
// event attribute is an equivalence key iff it is connected to some
// joinSAttr attribute (Definition 3). The location attribute e:0 is always
// included so that events at different nodes never share a class.
package analysis

import (
	"fmt"
	"sort"

	"provcompress/internal/ndlog"
)

// AttrNode identifies the i-th attribute of a relation: the vertex (rel:i)
// of the dependency graph.
type AttrNode struct {
	Rel string
	Idx int
}

// String renders the node as rel:i, the paper's notation.
func (n AttrNode) String() string { return fmt.Sprintf("%s:%d", n.Rel, n.Idx) }

// Graph is the attribute-level dependency graph of a program.
type Graph struct {
	prog *ndlog.Program

	nodes map[AttrNode]bool
	// adj holds the undirected joinFAttr edges (event attr <-> head attr).
	adj map[AttrNode]map[AttrNode]bool
	// slowJoin marks attributes with a derived joinSAttr judgement.
	slowJoin map[AttrNode]bool
	// slowEdges records, for rendering and explanation, which slow-changing
	// attribute justified a JOIN-BASE judgement.
	slowEdges map[AttrNode][]AttrNode
}

// BuildGraph constructs the dependency graph of a parsed program. The
// program should already satisfy the DELP restriction; BuildGraph does not
// re-validate it.
func BuildGraph(p *ndlog.Program) *Graph {
	g := &Graph{
		prog:      p,
		nodes:     make(map[AttrNode]bool),
		adj:       make(map[AttrNode]map[AttrNode]bool),
		slowJoin:  make(map[AttrNode]bool),
		slowEdges: make(map[AttrNode][]AttrNode),
	}
	for _, r := range p.Rules {
		g.addRule(r)
	}
	return g
}

func (g *Graph) addNode(n AttrNode) { g.nodes[n] = true }

func (g *Graph) addEdge(a, b AttrNode) {
	if a == b {
		return
	}
	g.addNode(a)
	g.addNode(b)
	if g.adj[a] == nil {
		g.adj[a] = make(map[AttrNode]bool)
	}
	if g.adj[b] == nil {
		g.adj[b] = make(map[AttrNode]bool)
	}
	g.adj[a][b] = true
	g.adj[b][a] = true
}

func (g *Graph) markSlowJoin(n AttrNode, via *AttrNode) {
	g.addNode(n)
	g.slowJoin[n] = true
	if via != nil {
		g.addNode(*via)
		g.slowEdges[n] = append(g.slowEdges[n], *via)
	}
}

// addRule derives the per-rule edges and joinSAttr marks.
func (g *Graph) addRule(r *ndlog.Rule) {
	eventPos := r.Event.VarPositions()
	headPos := r.Head.VarPositions()
	for i := range r.Event.Args {
		g.addNode(AttrNode{r.Event.Rel, i})
	}
	for i := range r.Head.Args {
		g.addNode(AttrNode{r.Head.Rel, i})
	}

	// varSources maps each bound variable to the event attribute positions
	// its value derives from; assigned variables inherit the sources of
	// their defining expression (evaluated in order).
	varSources := make(map[string][]int, len(eventPos))
	for v, ps := range eventPos {
		varSources[v] = ps
	}
	sourcesOf := func(e ndlog.Expr) []int {
		var out []int
		for _, v := range e.FreeVars(nil) {
			out = append(out, varSources[v]...)
		}
		return out
	}

	// JOIN-BASE: event attribute shares its variable with a slow atom.
	for _, s := range r.Slow {
		for v, sps := range s.VarPositions() {
			eps, ok := eventPos[v]
			if !ok {
				continue
			}
			for _, i := range eps {
				for _, j := range sps {
					via := AttrNode{s.Rel, j}
					g.markSlowJoin(AttrNode{r.Event.Rel, i}, &via)
				}
			}
		}
	}

	// Condition (2) of Section 5.2: event attribute flows to a same-variable
	// head attribute (joinFAttr).
	for v, eps := range eventPos {
		hps, ok := headPos[v]
		if !ok {
			continue
		}
		for _, i := range eps {
			for _, j := range hps {
				g.addEdge(AttrNode{r.Event.Rel, i}, AttrNode{r.Head.Rel, j})
			}
		}
	}

	// Condition (4): assignment flows its right-hand-side event attributes
	// into the head positions of the assigned variable.
	for _, a := range r.Assigns {
		srcs := sourcesOf(a.Expr)
		for _, j := range headPos[a.Var] {
			for _, i := range srcs {
				g.addEdge(AttrNode{r.Event.Rel, i}, AttrNode{r.Head.Rel, j})
			}
		}
		// JOIN-FUNC-ATTR: event attributes passed to a UDF join slow state.
		for _, call := range callsIn(a.Expr) {
			for _, arg := range call.Args {
				for _, i := range sourcesOf(arg) {
					g.markSlowJoin(AttrNode{r.Event.Rel, i}, nil)
				}
			}
		}
		// The assigned variable inherits the event sources of its defining
		// expression, so chained assignments keep flowing.
		varSources[a.Var] = srcs
	}

	// Condition (3) / JOIN-ARITH: event attributes in the same arithmetic
	// atom are connected to each other and join slow state.
	for _, c := range r.Constraints {
		srcs := dedupInts(append(sourcesOf(c.L), sourcesOf(c.R)...))
		for _, i := range srcs {
			g.markSlowJoin(AttrNode{r.Event.Rel, i}, nil)
		}
		for x := 0; x < len(srcs); x++ {
			for y := x + 1; y < len(srcs); y++ {
				g.addEdge(AttrNode{r.Event.Rel, srcs[x]}, AttrNode{r.Event.Rel, srcs[y]})
			}
		}
		for _, e := range []ndlog.Expr{c.L, c.R} {
			for _, call := range callsIn(e) {
				for _, arg := range call.Args {
					for _, i := range sourcesOf(arg) {
						g.markSlowJoin(AttrNode{r.Event.Rel, i}, nil)
					}
				}
			}
		}
	}
}

// callsIn returns every CallExpr nested in e.
func callsIn(e ndlog.Expr) []ndlog.CallExpr {
	var out []ndlog.CallExpr
	switch e := e.(type) {
	case ndlog.CallExpr:
		out = append(out, e)
		for _, a := range e.Args {
			out = append(out, callsIn(a)...)
		}
	case ndlog.BinExpr:
		out = append(out, callsIn(e.L)...)
		out = append(out, callsIn(e.R)...)
	}
	return out
}

func dedupInts(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// JoinSAttr reports whether the joinSAttr judgement was derived for n.
func (g *Graph) JoinSAttr(n AttrNode) bool { return g.slowJoin[n] }

// Connected reports whether a path of joinFAttr edges connects a and b
// (reflexively: Connected(a, a) is true when a is a node of the graph).
func (g *Graph) Connected(a, b AttrNode) bool {
	if !g.nodes[a] || !g.nodes[b] {
		return false
	}
	if a == b {
		return true
	}
	seen := map[AttrNode]bool{a: true}
	queue := []AttrNode{a}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for m := range g.adj[n] {
			if m == b {
				return true
			}
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	return false
}

// reachesSlowJoin reports whether n, or any attribute connected to n, has a
// joinSAttr judgement (Definition 3).
func (g *Graph) reachesSlowJoin(n AttrNode) bool {
	if !g.nodes[n] {
		return false
	}
	seen := map[AttrNode]bool{n: true}
	queue := []AttrNode{n}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if g.slowJoin[c] {
			return true
		}
		for m := range g.adj[c] {
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	return false
}

// Nodes returns all graph vertices in deterministic order.
func (g *Graph) Nodes() []AttrNode {
	out := make([]AttrNode, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel < out[j].Rel
		}
		return out[i].Idx < out[j].Idx
	})
	return out
}

// EquivalenceKeys runs GetEquiKeys (Figure 5) for the program's input event
// relation: it returns the sorted attribute indexes of the input event
// relation that determine provenance tree equivalence. Index 0 (the input
// location) is always included.
func (g *Graph) EquivalenceKeys() []int {
	return g.EquivalenceKeysFor(g.prog.InputEvent())
}

// EquivalenceKeysFor runs GetEquiKeys for an arbitrary event relation of
// the program — merged multi-program rule sets have one input event
// relation per constituent program.
func (g *Graph) EquivalenceKeysFor(eventRel string) []int {
	arities, err := g.prog.Arities()
	if err != nil {
		// Parse already validated arities; an inconsistent program cannot
		// reach this point through the public constructors.
		panic(err)
	}
	keySet := map[int]bool{0: true}
	for i := 0; i < arities[eventRel]; i++ {
		if g.reachesSlowJoin(AttrNode{eventRel, i}) {
			keySet[i] = true
		}
	}
	keys := make([]int, 0, len(keySet))
	for i := range keySet {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	return keys
}

// EquivalenceKeys is the one-call convenience wrapper: it builds the
// dependency graph of prog and returns the equivalence keys of its input
// event relation.
func EquivalenceKeys(prog *ndlog.Program) []int {
	return BuildGraph(prog).EquivalenceKeys()
}
