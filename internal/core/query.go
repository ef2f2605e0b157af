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

// walkQuery is one simulated query in flight: the transport-free Walk plus
// what the simulated transport accounts for — who asked, the provenance
// bytes moved so far, the messages sent, and the virtual start time.
type walkQuery struct {
	id      int64
	querier types.NodeAddr
	walk    Walk

	bytes int64
	hops  int
	start time.Duration
}

// queryDispatcher is the simulated transport's driver of the query walk: it
// carries a Walk from node to node over netsim messages and charges the
// Section 6.1.3 cost model for what each Step returns.
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
	q := &walkQuery{id: d.nextID, querier: out.Loc(), start: sched.Now()}
	d.active[q.id] = cb
	node := d.m.rt.Node(q.querier)
	if node == nil {
		q.walk = Walk{Root: out, EvID: evid}
		sched.After(0, func() { d.complete(q) })
		return
	}
	q.walk = StartWalk(d.m.states[q.querier], out, evid)
	for _, p := range q.walk.RootProvs {
		q.bytes += int64(p.WireSize(d.m.layout.withEvID))
	}
	lookups := len(q.walk.RootProvs)
	if lookups == 0 {
		lookups = 1
	}
	cost := time.Duration(lookups) * d.m.Cost.PerEntry
	sched.After(cost, func() { d.continueAt(node, q) })
}

// continueAt steps the walk through every reference local to node n, charges
// for the rows fetched — priced by the scheme's table layout, a ruleExecLink
// row at its fixed columns — then either forwards the walk to the next node
// or returns the result to the querier.
func (d *queryDispatcher) continueAt(n *engine.Node, q *walkQuery) {
	host := WalkHost{State: d.m.states[n.Addr], DB: n.DB}
	got := q.walk.Step(func(loc types.NodeAddr) (WalkHost, bool) { return host, loc == n.Addr })
	var delta int64
	for _, ce := range got.Entries {
		delta += int64(ce.Entry.WireSize(d.m.layout.withNext))
		if d.m.layout.useLinks {
			delta += int64(len(ce.Nexts) * (2 + len(ce.Entry.RID) + NilRef.WireSize()))
		}
	}
	for _, t := range got.Tuples {
		delta += int64(t.EncodedSize())
	}
	for _, p := range got.Provs {
		delta += int64(p.WireSize(d.m.layout.withEvID))
	}
	q.bytes += delta
	cost := time.Duration(got.Refs)*d.m.Cost.PerEntry + time.Duration(delta)*d.m.Cost.PerByte
	d.m.rt.Net.Scheduler().After(cost, func() {
		if len(q.walk.Work) == 0 {
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
		d.m.rt.Net.Send(netsim.Message{
			From:    n.Addr,
			To:      q.walk.Work[len(q.walk.Work)-1].Loc,
			Kind:    msgWalk,
			Payload: q,
			Size:    d.m.rt.HeaderSize + 64 + int(q.bytes),
		})
	})
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
	cost := time.Duration(len(q.walk.Entries))*d.m.Cost.PerRederive +
		time.Duration(q.bytes)*d.m.Cost.PerByte
	d.m.rt.Net.Scheduler().After(cost, func() { d.complete(q) })
}

// complete reconstructs the trees at the querier's state and delivers the
// result.
func (d *queryDispatcher) complete(q *walkQuery) {
	var trees []*Tree
	if st, ok := d.m.states[q.querier]; ok {
		trees = q.walk.Trees(st, d.m.rt.Prog, d.m.rt.Funcs)
	}
	cb := d.active[q.id]
	delete(d.active, q.id)
	if cb == nil {
		return
	}
	cb(QueryResult{
		Root:    q.walk.Root,
		Trees:   trees,
		Latency: d.m.rt.Net.Scheduler().Now() - q.start,
		Hops:    q.hops,
		Bytes:   q.bytes,
	})
}
