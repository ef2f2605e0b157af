package core

import (
	"sync"

	"provcompress/internal/engine"
	"provcompress/internal/ndlog"
	"provcompress/internal/types"
)

// CollectedEntry is a collected rule-execution node plus its outgoing links.
type CollectedEntry struct {
	Entry RuleExec
	Nexts []Ref
}

// Walk is the traveling state of one provenance query (Section 5.6): the
// rows anchoring it at the querier, a depth-first worklist of
// rule-execution references, and everything collected so far. It has no
// transport in it: a single message carries it from node to node (so no
// distributed branch counting is needed even when inter-class tables fork
// the walk), and the two drivers — the simulator's queryDispatcher and the
// cluster's handleWalk — differ only in how they move it and what they
// charge for it. The exported fields are the wire contents; a receiver that
// decoded them gets the unexported lookup tables rebuilt on first use.
type Walk struct {
	// Root is the queried output tuple and EvID the optional input-event
	// filter (types.ZeroID for every stored derivation).
	Root types.Tuple
	EvID types.ID
	// RootProvs are the prov rows anchoring the query at the querier.
	RootProvs []Prov
	// Work is the depth-first worklist; the last servable reference goes
	// first.
	Work []Ref
	// Entries, Provs and Tuples hold each collected rule execution, prov row
	// (ExSPAN follows them during reconstruction) and tuple content once.
	Entries []CollectedEntry
	Provs   []Prov
	Tuples  []types.Tuple

	// visited holds every reference a Step drained, found or not.
	visited map[Ref]bool
	// tuples keys Tuples by VID once the walk is complete (tupleIndex).
	tuples map[types.ID]types.Tuple
}

// WalkHost is one place a walk step can be served: the scheme state holding
// the rows behind a reference and the database resolving tuple contents,
// with the lock serializing access to the state (nil when the caller is
// single-threaded).
type WalkHost struct {
	State NodeState
	DB    *engine.Database
	Mu    sync.Locker
}

// WalkDelta is what one Step added to the walk, so a driver can price it:
// the references drained (found or not) and the newly collected rows, which
// alias the tails of the walk's own slices.
type WalkDelta struct {
	Refs    int
	Entries []CollectedEntry
	Provs   []Prov
	Tuples  []types.Tuple
}

// StartWalk anchors a query for root at the querier's state and seeds the
// worklist with the distinct rule executions its prov rows point at.
func StartWalk(st NodeState, root types.Tuple, evid types.ID) Walk {
	w := Walk{Root: root, EvID: evid, RootProvs: st.ProvRows(types.HashTuple(root), evid)}
	seen := make(map[Ref]bool)
	for _, p := range w.RootProvs {
		if !p.Ref.IsNil() && !seen[p.Ref] {
			seen[p.Ref] = true
			w.Work = append(w.Work, p.Ref)
		}
	}
	return w
}

// Step drains every worklist reference the caller can serve — host reports,
// per owning node, where (and whether) — visiting each reference at most
// once per walk, and returns what it added. References the host cannot
// serve stay on the worklist for the caller to route.
func (w *Walk) Step(host func(types.NodeAddr) (WalkHost, bool)) WalkDelta {
	if w.visited == nil {
		w.visited = make(map[Ref]bool, len(w.Entries))
		for _, ce := range w.Entries {
			w.visited[Ref{Loc: ce.Entry.Loc, RID: ce.Entry.RID}] = true
		}
	}
	ne, np, nt := len(w.Entries), len(w.Provs), len(w.Tuples)
	refs := 0
	for {
		idx := -1
		var h WalkHost
		for i := len(w.Work) - 1; i >= 0 && idx < 0; i-- {
			if hh, ok := host(w.Work[i].Loc); ok {
				idx, h = i, hh
			}
		}
		if idx < 0 {
			break
		}
		ref := w.Work[idx]
		w.Work = append(w.Work[:idx], w.Work[idx+1:]...)
		if w.visited[ref] {
			continue
		}
		w.visited[ref] = true
		refs++
		w.collect(h, ref)
	}
	return WalkDelta{Refs: refs, Entries: w.Entries[ne:], Provs: w.Provs[np:], Tuples: w.Tuples[nt:]}
}

// collect fetches the rule-execution node behind ref into the walk,
// together with the tuple contents the walk must pick up here — the entry's
// recorded VIDs and, at a chain leaf of an EVID scheme, the input events of
// the derivations being queried (Section 5.6) — and pushes the references
// to follow next.
func (w *Walk) collect(h WalkHost, ref Ref) {
	if h.Mu != nil {
		h.Mu.Lock()
	}
	ce, vids, provs, nexts, ok := h.State.Collect(ref)
	if h.Mu != nil {
		h.Mu.Unlock()
	}
	if !ok {
		return
	}
	w.Entries = append(w.Entries, ce)
	for _, vid := range vids {
		w.fetch(h.DB, vid)
	}
	for _, p := range provs {
		w.addProv(p)
	}
	if h.State.EventByEvID() && hasNilRef(ce.Nexts) {
		for _, evid := range w.EventIDs() {
			w.fetch(h.DB, evid)
		}
	}
	for _, nx := range nexts {
		if !nx.IsNil() && !w.visited[nx] {
			w.Work = append(w.Work, nx)
		}
	}
}

// fetch resolves a VID at the serving node and adds the tuple once. The check
// scans what the walk holds instead of keeping a VID index: a walk is
// re-decoded at every hop, and rebuilding an index there (a SHA-1 per carried
// tuple) costs more than the scans it would save.
func (w *Walk) fetch(db *engine.Database, vid types.ID) {
	t, ok := db.LookupVID(vid)
	if !ok {
		return
	}
	for _, u := range w.Tuples {
		if u.Equal(t) {
			return
		}
	}
	w.Tuples = append(w.Tuples, t)
	w.tuples = nil // a VID index built before this Step is stale
}

func (w *Walk) addProv(p Prov) {
	for _, q := range w.Provs {
		if q == p {
			return
		}
	}
	w.Provs = append(w.Provs, p)
}

func hasNilRef(refs []Ref) bool {
	for _, r := range refs {
		if r.IsNil() {
			return true
		}
	}
	return false
}

// EventIDs returns the event IDs whose leaf tuples the walk fetches: the
// explicit query evid, or the EVIDs of the anchoring prov rows.
func (w *Walk) EventIDs() []types.ID {
	if !w.EvID.IsZero() {
		return []types.ID{w.EvID}
	}
	var out []types.ID
	seen := make(map[types.ID]bool)
	for _, p := range w.RootProvs {
		if !p.EvID.IsZero() && !seen[p.EvID] {
			seen[p.EvID] = true
			out = append(out, p.EvID)
		}
	}
	return out
}

// tupleIndex keys the collected tuples by VID.
func (w *Walk) tupleIndex() map[types.ID]types.Tuple {
	if w.tuples == nil {
		w.tuples = make(map[types.ID]types.Tuple, len(w.Tuples))
		for _, t := range w.Tuples {
			w.tuples[types.HashTuple(t)] = t
		}
	}
	return w.tuples
}

// Tuple returns the collected tuple with the given VID.
func (w *Walk) Tuple(vid types.ID) (types.Tuple, bool) {
	t, ok := w.tupleIndex()[vid]
	return t, ok
}

// Trees reconstructs the provenance trees of a completed walk at the
// querier's state (TRANSFORM_TO_D), keeps those of the queried event when
// one was named, and drops structurally equal duplicates (overlapping
// inter-class link paths can reconstruct one derivation more than once).
func (w *Walk) Trees(st NodeState, prog *ndlog.Program, funcs ndlog.FuncMap) []*Tree {
	entries := make(map[Ref]CollectedEntry, len(w.Entries))
	for _, ce := range w.Entries {
		entries[Ref{Loc: ce.Entry.Loc, RID: ce.Entry.RID}] = ce
	}
	provs := make(map[types.ID][]Prov, len(w.Provs))
	for _, p := range w.Provs {
		provs[p.VID] = append(provs[p.VID], p)
	}
	var trees []*Tree
	for _, t := range st.Reconstruct(prog, funcs, w.Root, w.RootProvs, entries, w.tupleIndex(), provs) {
		if !w.EvID.IsZero() && t.EvID() != w.EvID {
			continue
		}
		dup := false
		for _, u := range trees {
			if t.Equal(u) {
				dup = true
				break
			}
		}
		if !dup {
			trees = append(trees, t)
		}
	}
	return trees
}
