package core

import (
	"provcompress/internal/analysis"
	"provcompress/internal/engine"
	"provcompress/internal/ndlog"
	"provcompress/internal/netsim"
	"provcompress/internal/types"
)

// MsgSig is the control broadcast sent when a slow-changing table grows
// (Section 5.5); receivers empty their equivalence-key hash tables.
const MsgSig = "prov.sig"

// SigWireSize approximates the sig control message size on the wire.
const SigWireSize = 16

// SimMaintainer runs a maintenance scheme inside the discrete-event
// simulator: it holds one NodeState per simulated node — the same state
// machines the cluster transport serves — and forwards the engine's hooks
// to them, so the paper's figures are measured on the code provd runs. What
// it adds is only what the simulated transport needs: bandwidth pricing of
// the shipped metadata, the sig broadcast, and the query walk with its
// Section 6.1.3 cost model (queryDispatcher).
type SimMaintainer struct {
	// Cost is the query-time computation model (see QueryCostModel).
	Cost QueryCostModel

	name   string
	layout layout
	rt     *engine.Runtime
	states map[types.NodeAddr]NodeState
	// keysByEvent holds the equivalence keys per input event relation,
	// computed at Attach for the schemes that use them.
	keysByEvent map[string][]int
	queries     *queryDispatcher
}

// Name identifies the scheme.
func (s *SimMaintainer) Name() string { return s.name }

// Attach builds every node's state. For the schemes that class events by
// equivalence keys (those with an EVID column) it first runs the static
// analysis — one key set per input event relation, computed on the merged
// rule set so that cross-program attribute flows count.
func (s *SimMaintainer) Attach(rt *engine.Runtime) {
	s.rt = rt
	if s.layout.withEvID {
		g := analysis.BuildGraph(rt.Prog)
		s.keysByEvent = make(map[string][]int)
		for _, ev := range ndlog.InputEvents(rt.SourcePrograms()...) {
			s.keysByEvent[ev] = g.EquivalenceKeysFor(ev)
		}
	}
	s.states = make(map[types.NodeAddr]NodeState, len(rt.Nodes()))
	for addr := range rt.Nodes() {
		// NewScheme already resolved the name, so the switch cannot fail.
		s.states[addr], _ = NewNodeState(s.name, nil, s.keysByEvent)
	}
	s.queries = newQueryDispatcher(s)
}

// Keys returns the equivalence-key attribute indexes of the program's
// primary input event.
func (s *SimMaintainer) Keys() []int {
	return append([]int(nil), s.keysByEvent[s.rt.Prog.InputEvent()]...)
}

// OnInject performs the scheme's injection step at the origin node.
func (s *SimMaintainer) OnInject(n *engine.Node, ev types.Tuple) engine.Meta {
	return s.states[n.Addr].Inject(ev)
}

// OnFire performs the scheme's maintenance for one rule firing.
func (s *SimMaintainer) OnFire(n *engine.Node, f engine.Firing, in engine.Meta) engine.Meta {
	return s.states[n.Addr].FireAt(n.Addr, f, in.(AdvMeta))
}

// OnOutput performs the scheme's output association step.
func (s *SimMaintainer) OnOutput(n *engine.Node, out types.Tuple, in engine.Meta) {
	s.states[n.Addr].Output(out, in.(AdvMeta))
}

// OnSlowUpdate broadcasts sig when a slow-changing table grows under a
// scheme that keeps equivalence keys (Section 5.5; those are the schemes
// with an EVID column). Deletions do not invalidate stored provenance.
func (s *SimMaintainer) OnSlowUpdate(n *engine.Node, _ types.Tuple, inserted bool) {
	if inserted && s.layout.withEvID {
		s.rt.Net.Broadcast(n.Addr, MsgSig, SigWireSize, nil)
	}
}

// HandleMessage processes sig broadcasts and the query protocol.
func (s *SimMaintainer) HandleMessage(n *engine.Node, msg netsim.Message) bool {
	if msg.Kind == MsgSig {
		s.states[n.Addr].ClearEquiKeys()
		return true
	}
	return s.queries.handle(n, msg)
}

// MetaSize prices the metadata shipped with each tuple: the (RLoc, RID)
// reference to the previous rule execution under ExSPAN and Basic; under
// the Advanced schemes the equivalence hash, the existFlag, the event ID,
// and — for the class's first execution — the chain reference.
func (s *SimMaintainer) MetaSize(in engine.Meta) int {
	m := in.(AdvMeta)
	if s.layout.withEvID {
		return m.WireSize()
	}
	return m.Prev.WireSize()
}

// StorageBytes returns the serialized provenance storage at one node.
func (s *SimMaintainer) StorageBytes(addr types.NodeAddr) int64 {
	if st, ok := s.states[addr]; ok {
		return st.StorageBytes()
	}
	return 0
}

// TotalStorageBytes sums provenance storage over all nodes.
func (s *SimMaintainer) TotalStorageBytes() int64 {
	var total int64
	for _, st := range s.states {
		total += st.StorageBytes()
	}
	return total
}

// RuleExecRows returns the ruleExec rows stored at a node, for tests and
// table dumps.
func (s *SimMaintainer) RuleExecRows(addr types.NodeAddr) []RuleExec {
	st, ok := s.states[addr]
	if !ok {
		return nil
	}
	tb := st.tables()
	out := make([]RuleExec, 0, len(tb.ruleExec))
	for _, i := range tb.ruleExec {
		out = append(out, tb.execAt(i))
	}
	return out
}

// ProvRows returns the prov rows stored at a node.
func (s *SimMaintainer) ProvRows(addr types.NodeAddr) []Prov {
	st, ok := s.states[addr]
	if !ok {
		return nil
	}
	var out []Prov
	for _, rows := range st.tables().prov {
		out = append(out, rows...)
	}
	return out
}

// QueryProvenance starts a distributed provenance query for the output
// tuple out (which must have been produced at its location). evid selects
// the derivation triggered by one specific input event; pass types.ZeroID
// to retrieve every stored derivation. cb runs, in virtual time, when the
// result is complete.
func (s *SimMaintainer) QueryProvenance(out types.Tuple, evid types.ID, cb func(QueryResult)) {
	s.queries.start(out, evid, cb)
}
