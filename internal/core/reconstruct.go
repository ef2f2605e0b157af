package core

import (
	"provcompress/internal/engine"
	"provcompress/internal/ndlog"
	"provcompress/internal/types"
)

// AssembleChains rebuilds full provenance trees from a completed walk
// under the Basic and Advanced schemes: given the anchor prov rows and the
// collected entries and tuple contents, it enumerates root-to-leaf chains
// through the rule-execution nodes, obtains the input event of each
// derivation (scheme-specific, via eventFor), and re-derives the
// intermediate tuples bottom-up by re-executing the rules (Section 4
// step 2 / TRANSFORM_TO_D of Appendix E). Candidate chains that do not
// re-derive the queried output are discarded — the validation that gives
// Theorem 5 its set semantics under inter-class sharing.
func AssembleChains(prog *ndlog.Program, funcs ndlog.FuncMap, root types.Tuple, rootProvs []Prov,
	entries map[Ref]CollectedEntry, tuples map[types.ID]types.Tuple,
	eventFor func(leaf RuleExec, evid types.ID) (types.Tuple, bool)) []*Tree {
	var results []*Tree
	for _, p := range rootProvs {
		if p.Ref.IsNil() {
			continue
		}
		for _, chain := range enumerateChains(entries, p.Ref) {
			ev, ok := eventFor(chain[len(chain)-1].Entry, p.EvID)
			if !ok {
				continue
			}
			for _, t := range rebuildChain(prog, funcs, chain, ev, tuples) {
				if t.Output.Equal(root) {
					results = append(results, t)
				}
			}
		}
	}
	return results
}

// BasicLeafEvent returns the eventFor resolver of the Basic scheme: the
// leaf row's VIDs include the input event's VID, identified by its
// relation.
func BasicLeafEvent(prog *ndlog.Program, tuples map[types.ID]types.Tuple) func(RuleExec, types.ID) (types.Tuple, bool) {
	return func(leaf RuleExec, _ types.ID) (types.Tuple, bool) {
		rule := prog.Rule(leaf.Rule)
		if rule == nil {
			return types.Tuple{}, false
		}
		for _, vid := range leaf.VIDs {
			if t, ok := tuples[vid]; ok && t.Rel == rule.Event.Rel {
				return t, true
			}
		}
		return types.Tuple{}, false
	}
}

// EvIDLeafEvent returns the eventFor resolver of the Advanced scheme: the
// event is looked up by the EVID recorded in the prov row.
func EvIDLeafEvent(tuples map[types.ID]types.Tuple) func(RuleExec, types.ID) (types.Tuple, bool) {
	return func(_ RuleExec, evid types.ID) (types.Tuple, bool) {
		t, ok := tuples[evid]
		return t, ok
	}
}

// enumerateChains lists every root-to-leaf path through the collected
// rule-execution nodes starting at root. Under the default chained scheme
// each node has a single next reference, so there is exactly one chain;
// under the inter-class split a node may fork.
func enumerateChains(entries map[Ref]CollectedEntry, root Ref) [][]CollectedEntry {
	var chains [][]CollectedEntry
	var dfs func(ref Ref, path []CollectedEntry)
	dfs = func(ref Ref, path []CollectedEntry) {
		if len(path) > maxQueryDepth {
			return
		}
		ce, ok := entries[ref]
		if !ok {
			return
		}
		path = append(path[:len(path):len(path)], ce)
		leaf := len(ce.Nexts) == 0
		for _, nx := range ce.Nexts {
			if nx.IsNil() {
				leaf = true
			} else {
				dfs(nx, path)
			}
		}
		if leaf {
			chains = append(chains, path)
		}
	}
	dfs(root, nil)
	return chains
}

// rebuildChain re-executes the chain's rules bottom-up: starting from the
// input event at the leaf, each level joins the recorded slow-changing
// tuples and produces the next level's event, reconstructing the
// intermediate provenance nodes that were never stored.
func rebuildChain(prog *ndlog.Program, funcs ndlog.FuncMap, chain []CollectedEntry, event types.Tuple, tuples map[types.ID]types.Tuple) []*Tree {
	type frame struct {
		ev types.Tuple
		tr *Tree
	}
	level := []frame{{ev: event}}
	for i := len(chain) - 1; i >= 0; i-- {
		e := chain[i].Entry
		rule := prog.Rule(e.Rule)
		if rule == nil {
			return nil
		}
		db := engine.NewDatabase()
		for _, vid := range e.VIDs {
			if t, ok := tuples[vid]; ok && t.Rel != rule.Event.Rel {
				db.Insert(t)
			}
		}
		var next []frame
		for _, f := range level {
			firings, err := engine.EvalRule(rule, db, f.ev, funcs)
			if err != nil {
				continue
			}
			for _, fr := range firings {
				t := &Tree{Rule: rule.Label, Output: fr.Head, Slow: fr.Slow}
				if f.tr == nil {
					ev := f.ev
					t.Event = &ev
				} else {
					t.Child = f.tr
				}
				next = append(next, frame{ev: fr.Head, tr: t})
			}
		}
		if len(next) == 0 {
			return nil
		}
		level = next
	}
	out := make([]*Tree, 0, len(level))
	for _, f := range level {
		out = append(out, f.tr)
	}
	return out
}

// AssembleExSPAN reconstructs provenance trees from an uncompressed
// (ExSPAN) walk: entries carry every body VID, tuples their contents, and
// the prov rows link each derived tuple to the execution that produced it
// — no re-execution needed, since ExSPAN materialized everything.
func AssembleExSPAN(prog *ndlog.Program, root types.Tuple, rootProvs []Prov,
	entries map[Ref]CollectedEntry, tuples map[types.ID]types.Tuple, provs map[types.ID][]Prov) []*Tree {
	var build func(ref Ref, output types.Tuple, depth int) []*Tree
	build = func(ref Ref, output types.Tuple, depth int) []*Tree {
		if depth > maxQueryDepth {
			return nil
		}
		ce, ok := entries[ref]
		if !ok {
			return nil
		}
		rule := prog.Rule(ce.Entry.Rule)
		if rule == nil {
			return nil
		}
		var slow []types.Tuple
		var event types.Tuple
		haveEvent := false
		for _, vid := range ce.Entry.VIDs {
			t, ok := tuples[vid]
			if !ok {
				return nil
			}
			if t.Rel == rule.Event.Rel {
				event, haveEvent = t, true
			} else {
				slow = append(slow, t)
			}
		}
		if !haveEvent {
			return nil
		}
		var childRefs []Ref
		for _, p := range provs[types.HashTuple(event)] {
			if !p.Ref.IsNil() {
				childRefs = append(childRefs, p.Ref)
			}
		}
		if len(childRefs) == 0 {
			ev := event
			return []*Tree{{Rule: rule.Label, Output: output, Event: &ev, Slow: slow}}
		}
		var out []*Tree
		for _, cr := range childRefs {
			for _, sub := range build(cr, event, depth+1) {
				out = append(out, &Tree{Rule: rule.Label, Output: output, Child: sub, Slow: slow})
			}
		}
		return out
	}

	var trees []*Tree
	for _, p := range rootProvs {
		if p.Ref.IsNil() {
			continue
		}
		trees = append(trees, build(p.Ref, root, 0)...)
	}
	return trees
}
