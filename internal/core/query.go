package core

import (
	"time"

	"provcompress/internal/engine"
	"provcompress/internal/netsim"
	"provcompress/internal/types"
)

// Message kinds of the distributed provenance query protocol.
const (
	// msgWalk carries the traveling query along the provenance pointers.
	msgWalk = "provq.walk"
	// msgResult returns the collected entries to the querier.
	msgResult = "provq.result"
)

// maxQueryDepth bounds pointer chases, guarding against corrupt stores.
const maxQueryDepth = 1 << 14

// QueryCostModel parameterizes the computation cost of query processing,
// calibrating the simulated nodes to the paper's testbed (Section 6.1.3):
// PerEntry is charged per provenance table row touched, PerByte per byte of
// provenance data fetched or deserialized, and PerRederive per rule
// re-execution during reconstruction (the symbolic re-derivation that lets
// Basic and Advanced skip storing intermediate tuples).
type QueryCostModel struct {
	PerEntry    time.Duration
	PerByte     time.Duration
	PerRederive time.Duration
}

// DefaultQueryCost returns the calibration used in the experiments.
func DefaultQueryCost() QueryCostModel {
	return QueryCostModel{
		PerEntry:    2 * time.Millisecond,
		PerByte:     10 * time.Microsecond,
		PerRederive: 300 * time.Microsecond,
	}
}

// QueryResult is the outcome of a distributed provenance query.
type QueryResult struct {
	// Root is the queried output tuple.
	Root types.Tuple
	// Trees holds the reconstructed provenance trees, one per stored
	// derivation matching the query.
	Trees []*Tree
	// Latency is the virtual time from query start to result delivery,
	// including network hops and processing.
	Latency time.Duration
	// Hops counts protocol messages (walk steps plus the result return).
	Hops int
	// Bytes is the provenance data volume the query moved.
	Bytes int64
}

// CollectedEntry is a collected rule-execution node plus its outgoing links.
type CollectedEntry struct {
	Entry RuleExec
	Nexts []Ref
}

// walkAcc accumulates the entries, prov rows, and tuple contents a query
// collects while walking the distributed tables.
type walkAcc struct {
	Entries []CollectedEntry
	Tuples  []types.Tuple
	Provs   []Prov

	entrySeen map[Ref]bool
	tupleSeen map[types.ID]bool
	provSeen  map[Prov]bool
}

func newWalkAcc() *walkAcc {
	return &walkAcc{
		entrySeen: make(map[Ref]bool),
		tupleSeen: make(map[types.ID]bool),
		provSeen:  make(map[Prov]bool),
	}
}

func (a *walkAcc) addEntry(ce CollectedEntry) bool {
	key := Ref{Loc: ce.Entry.Loc, RID: ce.Entry.RID}
	if a.entrySeen[key] {
		return false
	}
	a.entrySeen[key] = true
	a.Entries = append(a.Entries, ce)
	return true
}

func (a *walkAcc) addTuple(t types.Tuple) bool {
	vid := types.HashTuple(t)
	if a.tupleSeen[vid] {
		return false
	}
	a.tupleSeen[vid] = true
	a.Tuples = append(a.Tuples, t)
	return true
}

func (a *walkAcc) addProv(p Prov) bool {
	if a.provSeen[p] {
		return false
	}
	a.provSeen[p] = true
	a.Provs = append(a.Provs, p)
	return true
}

func (a *walkAcc) entryIndex() map[Ref]CollectedEntry {
	idx := make(map[Ref]CollectedEntry, len(a.Entries))
	for _, ce := range a.Entries {
		idx[Ref{Loc: ce.Entry.Loc, RID: ce.Entry.RID}] = ce
	}
	return idx
}

func (a *walkAcc) tupleIndex() map[types.ID]types.Tuple {
	idx := make(map[types.ID]types.Tuple, len(a.Tuples))
	for _, t := range a.Tuples {
		idx[types.HashTuple(t)] = t
	}
	return idx
}

func (a *walkAcc) provIndex() map[types.ID][]Prov {
	idx := make(map[types.ID][]Prov, len(a.Provs))
	for _, p := range a.Provs {
		idx[p.VID] = append(idx[p.VID], p)
	}
	return idx
}

// walkQuery is the traveling state of one query: a depth-first worklist of
// rule-execution references plus everything collected so far. A single
// message carries it from node to node, so no distributed branch counting
// is needed even when the inter-class tables fork the walk.
type walkQuery struct {
	id        int64
	querier   types.NodeAddr
	root      types.Tuple
	rootVID   types.ID
	evid      types.ID
	rootProvs []Prov

	work    []Ref
	visited map[Ref]bool
	acc     *walkAcc

	bytes int64
	hops  int
	start time.Duration
}

// eventIDs returns the event IDs whose leaf tuples the walk must fetch:
// the explicit query evid, or the EVIDs of the anchoring prov rows.
func (q *walkQuery) eventIDs() []types.ID {
	if !q.evid.IsZero() {
		return []types.ID{q.evid}
	}
	var out []types.ID
	seen := make(map[types.ID]bool)
	for _, p := range q.rootProvs {
		if !p.EvID.IsZero() && !seen[p.EvID] {
			seen[p.EvID] = true
			out = append(out, p.EvID)
		}
	}
	return out
}

// queryDispatcher is the simulated transport's query walk: it carries a
// walkQuery from node to node over netsim messages, asks each node's
// NodeState for the rows behind every reference, and charges the
// Section 6.1.3 cost model for what the states return.
type queryDispatcher struct {
	m      *SimMaintainer
	nextID int64
	active map[int64]func(QueryResult)
}

func newQueryDispatcher(m *SimMaintainer) *queryDispatcher {
	return &queryDispatcher{m: m, active: make(map[int64]func(QueryResult))}
}

// start anchors a query at the output tuple's node and begins the walk.
func (d *queryDispatcher) start(out types.Tuple, evid types.ID, cb func(QueryResult)) {
	sched := d.m.rt.Net.Scheduler()
	d.nextID++
	q := &walkQuery{
		id:      d.nextID,
		querier: out.Loc(),
		root:    out,
		rootVID: types.HashTuple(out),
		evid:    evid,
		visited: make(map[Ref]bool),
		acc:     newWalkAcc(),
		start:   sched.Now(),
	}
	d.active[q.id] = cb
	node := d.m.rt.Node(q.querier)
	if node == nil {
		sched.After(0, func() { d.complete(q) })
		return
	}
	q.rootProvs = d.m.states[q.querier].ProvRows(q.rootVID, evid)
	for _, p := range q.rootProvs {
		if !p.Ref.IsNil() {
			q.work = append(q.work, p.Ref)
		}
		q.bytes += int64(p.WireSize(d.m.layout.withEvID))
	}
	lookups := len(q.rootProvs)
	if lookups == 0 {
		lookups = 1
	}
	cost := time.Duration(lookups) * d.m.Cost.PerEntry
	sched.After(cost, func() { d.continueAt(node, q) })
}

// continueAt processes every worklist reference local to node n, then
// either forwards the walk to the next node or returns the result to the
// querier.
func (d *queryDispatcher) continueAt(n *engine.Node, q *walkQuery) {
	sched := d.m.rt.Net.Scheduler()
	st := d.m.states[n.Addr]
	processed := 0
	var delta int64
	for {
		idx := -1
		for i := len(q.work) - 1; i >= 0; i-- {
			if q.work[i].Loc == n.Addr {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		ref := q.work[idx]
		q.work = append(q.work[:idx], q.work[idx+1:]...)
		if q.visited[ref] {
			continue
		}
		q.visited[ref] = true
		nexts, bytes := d.collect(n, st, ref, q)
		for _, nx := range nexts {
			if !nx.IsNil() && !q.visited[nx] {
				q.work = append(q.work, nx)
			}
		}
		processed++
		delta += bytes
	}
	q.bytes += delta
	cost := time.Duration(processed)*d.m.Cost.PerEntry + time.Duration(delta)*d.m.Cost.PerByte
	sched.After(cost, func() {
		if len(q.work) == 0 {
			if n.Addr == q.querier {
				d.finish(q)
				return
			}
			d.m.rt.Net.Send(netsim.Message{
				From:    n.Addr,
				To:      q.querier,
				Kind:    msgResult,
				Payload: q,
				Size:    d.m.rt.HeaderSize + int(q.bytes),
			})
			return
		}
		target := q.work[len(q.work)-1].Loc
		if target == n.Addr {
			// New local work appeared; keep going without a message.
			d.continueAt(n, q)
			return
		}
		d.m.rt.Net.Send(netsim.Message{
			From:    n.Addr,
			To:      target,
			Kind:    msgWalk,
			Payload: q,
			Size:    d.m.rt.HeaderSize + 64 + int(q.bytes),
		})
	})
}

// collect fetches the rule-execution node behind ref from the node's state
// into the query's accumulator, together with the tuple contents the walk
// must pick up here — the entry's recorded VIDs and, at a chain leaf of an
// EVID scheme, the input events of the derivations being queried
// (Section 5.6) — and returns the next references to walk plus the bytes
// fetched. Rows are priced by the scheme's table layout; a ruleExecLink
// row is priced at its fixed columns.
func (d *queryDispatcher) collect(n *engine.Node, st NodeState, ref Ref, q *walkQuery) ([]Ref, int64) {
	ce, vids, provs, nexts, ok := st.Collect(ref)
	if !ok {
		return nil, 0
	}
	bytes := int64(ce.Entry.WireSize(d.m.layout.withNext))
	if d.m.layout.useLinks {
		bytes += int64(len(ce.Nexts) * (2 + len(ref.RID) + NilRef.WireSize()))
	}
	q.acc.addEntry(ce)
	fetch := func(vid types.ID) {
		if t, ok := n.DB.LookupVID(vid); ok && q.acc.addTuple(t) {
			bytes += int64(t.EncodedSize())
		}
	}
	for _, vid := range vids {
		fetch(vid)
	}
	for _, p := range provs {
		if q.acc.addProv(p) {
			bytes += int64(p.WireSize(d.m.layout.withEvID))
		}
	}
	if st.EventByEvID() && hasNilRef(ce.Nexts) {
		for _, evid := range q.eventIDs() {
			fetch(evid)
		}
	}
	return nexts, bytes
}

func hasNilRef(refs []Ref) bool {
	for _, r := range refs {
		if r.IsNil() {
			return true
		}
	}
	return false
}

// handle processes walk and result messages on behalf of the maintainer.
func (d *queryDispatcher) handle(n *engine.Node, msg netsim.Message) bool {
	switch msg.Kind {
	case msgWalk:
		q := msg.Payload.(*walkQuery)
		q.hops++
		d.continueAt(n, q)
		return true
	case msgResult:
		q := msg.Payload.(*walkQuery)
		q.hops++
		d.finish(q)
		return true
	default:
		return false
	}
}

// finish charges the reconstruction cost at the querier, then completes.
func (d *queryDispatcher) finish(q *walkQuery) {
	cost := time.Duration(len(q.acc.Entries))*d.m.Cost.PerRederive +
		time.Duration(q.bytes)*d.m.Cost.PerByte
	d.m.rt.Net.Scheduler().After(cost, func() { d.complete(q) })
}

// complete reconstructs the trees at the querier's state, applies the
// event filter, and delivers the result.
func (d *queryDispatcher) complete(q *walkQuery) {
	var trees []*Tree
	if st, ok := d.m.states[q.querier]; ok {
		trees = st.Reconstruct(d.m.rt.Prog, d.m.rt.Funcs, q.root, q.rootProvs,
			q.acc.entryIndex(), q.acc.tupleIndex(), q.acc.provIndex())
	}
	if !q.evid.IsZero() {
		kept := trees[:0]
		for _, t := range trees {
			if t.EvID() == q.evid {
				kept = append(kept, t)
			}
		}
		trees = kept
	}
	trees = dedupTrees(trees)
	cb := d.active[q.id]
	delete(d.active, q.id)
	if cb == nil {
		return
	}
	cb(QueryResult{
		Root:    q.root,
		Trees:   trees,
		Latency: d.m.rt.Net.Scheduler().Now() - q.start,
		Hops:    q.hops,
		Bytes:   q.bytes,
	})
}

// dedupTrees removes structurally equal duplicates (overlapping inter-class
// link paths can reconstruct the same derivation more than once).
func dedupTrees(trees []*Tree) []*Tree {
	var out []*Tree
	for _, t := range trees {
		dup := false
		for _, u := range out {
			if t.Equal(u) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}
