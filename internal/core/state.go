package core

import (
	"provcompress/internal/engine"
	"provcompress/internal/ndlog"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// AdvMeta is the exported form of the per-execution metadata transport
// implementations serialize alongside each shipped tuple. It is the
// superset used by the three schemes: ExSPAN and Basic use only Prev (the
// reference to the last rule execution); Advanced uses every field
// (Section 5.3).
type AdvMeta struct {
	Eq    types.ID
	Exist bool
	EvID  types.ID
	Prev  Ref
}

// WireSize returns the metadata's on-the-wire size under the Advanced
// scheme.
func (m AdvMeta) WireSize() int {
	n := len(m.Eq) + 1 + len(m.EvID)
	if !m.Exist {
		n += m.Prev.WireSize()
	}
	return n
}

// NodeState is one node's provenance state machine under one maintenance
// scheme: the paper's maintenance steps (Inject, FireAt, Output, the sig
// reset) and the per-node half of the query walk (ProvRows, Collect,
// Reconstruct), with no transport in it. It is the only implementation of
// the schemes: the cluster transport (internal/cluster) drives it from its
// message loop, and the simulator drives the same machines through
// SimMaintainer. Implementations are not safe for concurrent use; callers
// serialize access per node.
type NodeState interface {
	// Scheme names the maintenance scheme.
	Scheme() string
	// Inject performs the scheme's injection step at the origin node.
	Inject(ev types.Tuple) AdvMeta
	// FireAt performs the scheme's maintenance for one rule firing.
	FireAt(addr types.NodeAddr, f engine.Firing, m AdvMeta) AdvMeta
	// Output performs the scheme's output association step. It returns the
	// VIDs of the output tuples whose provenance gained rows in this call —
	// usually just out's VID, but the Advanced scheme's deferred waiting
	// list can land rows for several earlier outputs at once, and a
	// deferred landing returns nil until a later Output resolves it. The
	// serving layer keys cache invalidation on these VIDs (DESIGN.md §14).
	Output(out types.Tuple, m AdvMeta) []types.ID
	// ClearEquiKeys handles a sig broadcast: it empties htequi, which only
	// the Advanced schemes fill.
	ClearEquiKeys()
	// EquiKeys lists htequi's keys in byte order: the classes the next
	// event of which Stage 1 finds already seen. No walk reads them; they
	// tell whether two copies of a partition took the same sig resets.
	EquiKeys() []types.ID
	// ProvRows anchors a query at an output VID (evid filter where the
	// scheme records one).
	ProvRows(vid, evid types.ID) []Prov
	// Collect processes one query-walk reference at this node: the
	// collected entry with its links, the VIDs whose tuple contents the
	// walk must fetch here, the local prov rows to ship (ExSPAN), and the
	// next references to follow.
	Collect(ref Ref) (ce CollectedEntry, vids []types.ID, provs []Prov, nexts []Ref, ok bool)
	// EventByEvID reports whether the prov rows carry an EVID column, so
	// chain-leaf events resolve through EVID lookups (the Advanced schemes)
	// rather than recorded VIDs (Basic) or prov rows (ExSPAN). Only these
	// schemes keep htequi, so only they broadcast sig (Section 5.5).
	EventByEvID() bool
	// ResolvesEventVIDs reports whether a walk resolves the VID of every
	// intermediate event tuple, so a node must keep each event that passes
	// through it: true only for ExSPAN, whose ruleExec rows list the event
	// of every hop. Basic and Advanced resolve only the input event, at its
	// origin (Basic's leaf VID, Advanced's EVID), and re-derive the rest.
	ResolvesEventVIDs() bool
	// Maintains reports whether FireAt stores a row for a firing that
	// carries metadata m. It is the state's answer, not m's Exist bit:
	// Advanced skips a firing whose class already exists (Section 5.3),
	// while ExSPAN and Basic store one for every firing, Exist or not. A
	// durable node logs an intermediate event only when it does.
	Maintains(m AdvMeta) bool
	// Regained names the row, stored before the last FireAt, that the firing
	// gave one more predecessor — a walk through it now finds a derivation
	// it did not before — or ZeroID: under ExSPAN the VID of the event tuple
	// when it gained a further prov row, under Basic and Advanced+IC the RID
	// of the execution that gained a link row. A chained Advanced RID folds
	// its predecessor in, so nothing is ever regained there. The serving
	// layer fires the ID's invalidation key.
	Regained() types.ID
	// GainsLinks reports whether the scheme hangs predecessors off an
	// execution's RID as link rows, so that an answer depends on the link
	// rows of every execution it collected (DESIGN.md §14).
	GainsLinks() bool
	// Reconstruct rebuilds the provenance trees at the querier from the
	// completed walk.
	Reconstruct(prog *ndlog.Program, funcs ndlog.FuncMap, root types.Tuple, rootProvs []Prov,
		entries map[Ref]CollectedEntry, tuples map[types.ID]types.Tuple, provs map[types.ID][]Prov) []*Tree
	// StorageBytes returns the serialized size of the node's tables.
	StorageBytes() int64
	// Persist serializes the full state machine (all tables plus byte
	// accounting) into the encoder, for durability checkpoints.
	Persist(e *wire.Encoder)
	// Merge folds a Persist snapshot into the existing state without
	// resetting it: rows already present stay, absent rows are added
	// through the normal insertion paths so the byte accounting tracks
	// them. It is the one snapshot decoder: crash recovery merges into a
	// fresh state, which rebuilds the snapshotted one, and a partition
	// handoff or read-repair payload merges over state that may already
	// hold replicated records for the same partition.
	Merge(d *wire.Decoder) error

	// tables exposes the backing store to the simulator adapter (table
	// dumps, measurement serialization).
	tables() *store
}

// stored is what the three schemes' states share: the node's tables, their
// size accounting, and the persistence codec over them (persist.go).
type stored struct{ st *store }

func (s stored) tables() *store { return s.st }

// StorageBytes returns the serialized size of the node's tables.
func (s stored) StorageBytes() int64 { return s.st.bytes() }

// Regained names the stored row the last FireAt gave another predecessor.
func (s stored) Regained() types.ID { return s.st.regained }

// EventByEvID reports whether the prov rows carry an EVID column.
func (s stored) EventByEvID() bool { return s.st.withEvID }

// ClearEquiKeys handles a sig broadcast (Section 5.5).
func (s stored) ClearEquiKeys() { s.st.clearEquiKeys() }

// EquiKeys lists htequi's keys in byte order.
func (s stored) EquiKeys() []types.ID { return s.st.equiKeys() }

// Collect processes one walk reference under the chained schemes (Basic,
// Advanced): the row, its recorded VIDs, and its live next links. ExSPAN
// has its own.
func (s stored) Collect(ref Ref) (CollectedEntry, []types.ID, []Prov, []Ref, bool) {
	entry, ok := s.st.getRuleExec(ref.RID)
	if !ok {
		return CollectedEntry{}, nil, nil, nil, false
	}
	nexts := s.st.nexts(ref.RID)
	return CollectedEntry{Entry: entry, Nexts: nexts}, entry.VIDs, nil, liveRefs(nexts), true
}

// stackVIDs is how many VIDs a firing's FireAt stages on its stack: the
// slow tuples' plus the one a scheme adds. A rule joining more slow tuples
// than this gets a heap list.
const stackVIDs = 8

// slowVIDs appends the VIDs of a firing's slow tuples, in body order, to
// dst. FireAt passes a stack array: the store copies the VIDs only into a
// row it keeps, so f.Slow and the list are dead once FireAt returns.
func slowVIDs(dst []types.ID, f engine.Firing) []types.ID {
	for _, s := range f.Slow {
		dst = append(dst, types.HashTuple(s))
	}
	return dst
}

// --- Advanced ---

// AdvancedState is the Advanced scheme's per-node state machine, the
// equivalence-based online compression of Section 5: the origin node
// checks each input event's key valuation against htequi (Stage 1), rule
// executions maintain the shared provenance chain only for the first
// execution of a class (Stage 2), and every output tuple is associated to
// its class's shared chain through hmap, with the input event recoverable
// through the EVID column (Stage 3).
//
// In the inter-class variant (the store's useLinks layout) the ruleExec
// table is split into ruleExecNode / ruleExecLink (Section 5.4), letting
// different equivalence classes share identical rule-execution nodes;
// queries may then encounter several next links per node and validate
// candidate derivations during reconstruction (the set semantics of
// Theorem 5).
//
// RID construction: the paper hashes the rule name and slow-changing VIDs
// (Table 3). The default (chained) mode additionally folds in the child
// RID so that (Loc, RID) keeps the uniqueness property Lemma 6 relies on
// when chains of different classes overlap; the inter-class mode uses the
// paper's location-free hash and resolves the resulting link ambiguity
// through validation, as Theorem 5 prescribes.
type AdvancedState struct {
	stored
	// keys are the equivalence-key attribute indexes of every input event
	// when keysByEvent is nil (a single-program deployment).
	keys []int
	// keysByEvent holds the keys per input event relation; a multi-program
	// deployment has one entry per constituent program. Events of a
	// relation it does not list fall back to treating every attribute as a
	// key: no compression, but correct.
	keysByEvent map[string][]int
}

// NewAdvancedState builds the state for one node given the program's
// equivalence-key indexes (from analysis.EquivalenceKeys).
func NewAdvancedState(keys []int) *AdvancedState {
	return newAdvancedState(append([]int(nil), keys...), nil, false)
}

func newAdvancedState(keys []int, keysByEvent map[string][]int, interClass bool) *AdvancedState {
	return &AdvancedState{
		stored:      stored{newStore(!interClass, true, interClass)},
		keys:        keys,
		keysByEvent: keysByEvent,
	}
}

// Scheme names the scheme.
func (s *AdvancedState) Scheme() string {
	if s.st.useLinks {
		return SchemeAdvancedInterClass
	}
	return SchemeAdvanced
}

// Inject performs Stage 1 (equivalence keys checking) at the event's
// origin node.
func (s *AdvancedState) Inject(ev types.Tuple) AdvMeta {
	var buf [8]types.Value // a relation's key attributes; more spill to the heap
	eq := types.HashValues(s.keyValues(buf[:0], ev))
	return AdvMeta{Eq: eq, Exist: s.st.seenEquiKey(eq), EvID: types.HashTuple(ev), Prev: NilRef}
}

// keyValues appends the event's values at its relation's equivalence keys
// to dst (or returns all of its values, for a relation without keys). A
// key index outside the event's arity is skipped rather than trusted:
// transports reject such events, and one that slips through must not take
// the node down.
func (s *AdvancedState) keyValues(dst []types.Value, ev types.Tuple) []types.Value {
	keys := s.keys
	if s.keysByEvent != nil {
		var ok bool
		if keys, ok = s.keysByEvent[ev.Rel]; !ok {
			return ev.Args
		}
	}
	for _, k := range keys {
		if uint(k) < uint(len(ev.Args)) {
			dst = append(dst, ev.Args[k])
		}
	}
	return dst
}

// FireAt performs Stage 2 (online provenance maintenance) for one rule
// firing at the named node: nothing is stored when existFlag is true;
// otherwise the shared chain grows by one rule-execution node.
func (s *AdvancedState) FireAt(addr types.NodeAddr, f engine.Firing, m AdvMeta) AdvMeta {
	s.st.regained = types.ZeroID
	if m.Exist {
		return m
	}
	var buf [stackVIDs]types.ID
	svids := slowVIDs(buf[:0], f)
	var rid types.ID
	if s.st.useLinks {
		rid = types.RuleExecID(f.Rule.Label, "", svids)
		fresh := s.st.addRuleExec(addr, rid, f.Rule.Label, svids, NilRef)
		if s.st.addLink(rid, m.Prev) && !fresh {
			s.st.regained = rid // a shared node gained another predecessor
		}
	} else {
		rid = types.RuleExecID(f.Rule.Label, "", svids, m.Prev.RID)
		s.st.addRuleExec(addr, rid, f.Rule.Label, svids, m.Prev)
	}
	m.Prev = Ref{Loc: addr, RID: rid}
	return m
}

// Output performs Stage 3 (output tuple provenance maintenance) at the
// output tuple's node: the class's first execution installs the
// shared-chain reference in hmap and releases any outputs that arrived
// before it; later executions associate their output through hmap, or park
// it while the first execution's chain-building messages are in flight.
func (s *AdvancedState) Output(out types.Tuple, m AdvMeta) []types.ID {
	vid := types.HashTuple(out)
	if !m.Exist {
		waiting := s.st.addHmapRef(m.Eq, out.Rel, m.EvID, m.Prev)
		s.st.addProv(Prov{Loc: out.Loc(), VID: vid, Ref: m.Prev, EvID: m.EvID})
		landed := make([]types.ID, 0, 1+len(waiting))
		landed = append(landed, vid)
		for _, w := range waiting {
			s.st.addProv(Prov{Loc: out.Loc(), VID: w.vid, Ref: m.Prev, EvID: w.evid})
			landed = append(landed, w.vid)
		}
		return landed
	}
	if refs := s.st.hmapRefs(m.Eq, out.Rel); len(refs) > 0 {
		for _, ref := range refs {
			s.st.addProv(Prov{Loc: out.Loc(), VID: vid, Ref: ref, EvID: m.EvID})
		}
		return []types.ID{vid}
	}
	s.st.deferOutput(m.Eq, out.Rel, pendingOutput{vid: vid, evid: m.EvID})
	s.st.deferredOutputs++
	return nil
}

// AdvancedStats counts the Advanced scheme's §5.5 sig resets and §5.3
// deferred-landing activity at one node. The counters are process-local
// observability state: they are not persisted and reset with the state
// machine.
type AdvancedStats struct {
	// SigClears counts htequi resets from sig broadcasts (Section 5.5).
	SigClears int64
	// DeferredOutputs counts outputs queued because their class's shared
	// chain had not yet landed (out-of-order arrival, Section 5.3).
	DeferredOutputs int64
	// DeferredLandings counts queued outputs later resolved by an
	// arriving chain reference.
	DeferredLandings int64
}

// Add accumulates another node's counters.
func (a *AdvancedStats) Add(b AdvancedStats) {
	a.SigClears += b.SigClears
	a.DeferredOutputs += b.DeferredOutputs
	a.DeferredLandings += b.DeferredLandings
}

// Stats snapshots the node's sig/deferred-landing counters.
func (s *AdvancedState) Stats() AdvancedStats {
	return AdvancedStats{
		SigClears:        s.st.sigClears,
		DeferredOutputs:  s.st.deferredOutputs,
		DeferredLandings: s.st.deferredLandings,
	}
}

// ProvRows anchors a query at an output VID.
func (s *AdvancedState) ProvRows(vid, evid types.ID) []Prov {
	return s.st.provRows(vid, evid)
}

// ResolvesEventVIDs reports that only the input event is resolved.
func (s *AdvancedState) ResolvesEventVIDs() bool { return false }

// Maintains reports that only a class's first execution grows the chain:
// FireAt stores nothing when existFlag is true.
func (s *AdvancedState) Maintains(m AdvMeta) bool { return !m.Exist }

// GainsLinks reports that a chained RID folds its predecessor in, while
// the inter-class split hangs predecessors off a shared node as link rows.
func (s *AdvancedState) GainsLinks() bool { return s.st.useLinks }

// Reconstruct runs TRANSFORM_TO_D.
func (s *AdvancedState) Reconstruct(prog *ndlog.Program, funcs ndlog.FuncMap, root types.Tuple, rootProvs []Prov,
	entries map[Ref]CollectedEntry, tuples map[types.ID]types.Tuple, _ map[types.ID][]Prov) []*Tree {
	return AssembleChains(prog, funcs, root, rootProvs, entries, tuples, EvIDLeafEvent(tuples))
}

// --- Basic ---

// BasicState is the Basic scheme's per-node state machine, the storage
// optimization of Section 4: provenance nodes for intermediate event
// tuples are removed. Each ruleExec row records only the slow-changing
// body VIDs (plus the input-event VID at the leaf) and an (NLoc, NRID) link
// to the previous rule execution; the prov table holds a single row per
// output tuple. Querying re-derives the intermediate tuples bottom-up
// (Section 4, step 2).
//
// RIDs hash the rule name, location, and all body VIDs, so they equal
// ExSPAN's RIDs for the same execution — exactly the relationship between
// the paper's Tables 1 and 2.
type BasicState struct{ stored }

// NewBasicState builds the state for one node.
func NewBasicState() *BasicState {
	return &BasicState{stored{newStore(true, false, false)}}
}

// Scheme names the scheme.
func (s *BasicState) Scheme() string { return SchemeBasic }

// Inject starts a chain with a NULL previous reference.
func (s *BasicState) Inject(ev types.Tuple) AdvMeta {
	return AdvMeta{EvID: types.HashTuple(ev), Prev: NilRef}
}

// FireAt stores the optimized ruleExec row (Table 2): slow-changing VIDs
// only — plus the input event's VID at the chain's first rule, which the
// bottom-up re-derivation starts from — linked to the previous execution.
func (s *BasicState) FireAt(addr types.NodeAddr, f engine.Firing, m AdvMeta) AdvMeta {
	var buf [stackVIDs]types.ID
	allVids := append(slowVIDs(buf[:0], f), types.HashTuple(f.Event))
	kept := allVids[:len(allVids)-1]
	if m.Prev.IsNil() {
		kept = allVids // leaf keeps the event VID too
	}
	rid := types.RuleExecID(f.Rule.Label, addr, allVids)
	s.st.regained = types.ZeroID
	if !s.st.addRuleExec(addr, rid, f.Rule.Label, kept, m.Prev) {
		// The same rule execution already chains to another derivation of
		// this event tuple (converging derivations). Record the extra
		// predecessor as a link row; queries enumerate both chains and
		// validate during re-derivation (as in Section 5.4's split tables).
		if prev, ok := s.st.getRuleExec(rid); ok && prev.Next != m.Prev && s.st.addLink(rid, m.Prev) {
			s.st.regained = rid
		}
	}
	m.Prev = Ref{Loc: addr, RID: rid}
	return m
}

// Output stores the single prov row of the optimized scheme.
func (s *BasicState) Output(out types.Tuple, m AdvMeta) []types.ID {
	vid := types.HashTuple(out)
	s.st.addProv(Prov{Loc: out.Loc(), VID: vid, Ref: m.Prev})
	return []types.ID{vid}
}

// ProvRows anchors a query at an output VID (no EVID column).
func (s *BasicState) ProvRows(vid, _ types.ID) []Prov {
	return s.st.provRows(vid, types.ZeroID)
}

// ResolvesEventVIDs reports that intermediate events are re-derived.
func (s *BasicState) ResolvesEventVIDs() bool { return false }

// Maintains reports that every firing stores a ruleExec row.
func (s *BasicState) Maintains(AdvMeta) bool { return true }

// GainsLinks reports that converging derivations add link rows.
func (s *BasicState) GainsLinks() bool { return true }

// Reconstruct re-derives the chain bottom-up (Section 4 step 2).
func (s *BasicState) Reconstruct(prog *ndlog.Program, funcs ndlog.FuncMap, root types.Tuple, rootProvs []Prov,
	entries map[Ref]CollectedEntry, tuples map[types.ID]types.Tuple, _ map[types.ID][]Prov) []*Tree {
	return AssembleChains(prog, funcs, root, rootProvs, entries, tuples, BasicLeafEvent(prog, tuples))
}

// --- ExSPAN ---

// ExSPANState is the uncompressed scheme's per-node state machine, in the
// style of the ExSPAN system (Section 2.2, Table 1): every rule execution
// stores a ruleExec row with the VIDs of all its body tuples, and every
// tuple node of every provenance tree — derived tuples, intermediate event
// tuples, and the base tuples they joined with — gets a prov row at its
// location.
type ExSPANState struct{ stored }

// NewExSPANState builds the state for one node.
func NewExSPANState() *ExSPANState {
	return &ExSPANState{stored{newStore(false, false, false)}}
}

// Scheme names the scheme.
func (s *ExSPANState) Scheme() string { return SchemeExSPAN }

// Inject starts an execution; the injected event's prov row carries NULL.
func (s *ExSPANState) Inject(ev types.Tuple) AdvMeta {
	return AdvMeta{EvID: types.HashTuple(ev), Prev: NilRef}
}

// FireAt stores the full ruleExec row plus prov rows for every body tuple.
func (s *ExSPANState) FireAt(addr types.NodeAddr, f engine.Firing, m AdvMeta) AdvMeta {
	evVID := types.HashTuple(f.Event)
	s.st.regained = types.ZeroID
	if derived := len(s.st.prov[evVID]) > 0; s.st.addProv(Prov{Loc: addr, VID: evVID, Ref: m.Prev}) && derived {
		s.st.regained = evVID
	}
	var buf [stackVIDs]types.ID
	vids := slowVIDs(buf[:0], f)
	for _, v := range vids {
		s.st.addProv(Prov{Loc: addr, VID: v, Ref: NilRef})
	}
	vids = append(vids, evVID)
	rid := types.RuleExecID(f.Rule.Label, addr, vids)
	s.st.addRuleExec(addr, rid, f.Rule.Label, vids, NilRef)
	m.Prev = Ref{Loc: addr, RID: rid}
	return m
}

// Output stores the output tuple's prov row.
func (s *ExSPANState) Output(out types.Tuple, m AdvMeta) []types.ID {
	vid := types.HashTuple(out)
	s.st.addProv(Prov{Loc: out.Loc(), VID: vid, Ref: m.Prev})
	return []types.ID{vid}
}

// ProvRows anchors a query at an output VID (no EVID column).
func (s *ExSPANState) ProvRows(vid, _ types.ID) []Prov {
	return s.st.provRows(vid, types.ZeroID)
}

// Collect processes one walk reference: the entry, its body VIDs, the
// local prov rows of those VIDs, and the next references (the event
// tuple's deriving executions).
func (s *ExSPANState) Collect(ref Ref) (CollectedEntry, []types.ID, []Prov, []Ref, bool) {
	entry, ok := s.st.getRuleExec(ref.RID)
	if !ok {
		return CollectedEntry{}, nil, nil, nil, false
	}
	var provs []Prov
	var nexts []Ref
	for _, vid := range entry.VIDs {
		for _, p := range s.st.provRows(vid, types.ZeroID) {
			provs = append(provs, p)
			if !p.Ref.IsNil() {
				nexts = append(nexts, p.Ref)
			}
		}
	}
	return CollectedEntry{Entry: entry}, entry.VIDs, provs, nexts, true
}

// ResolvesEventVIDs reports that every hop's event VID is resolved.
func (s *ExSPANState) ResolvesEventVIDs() bool { return true }

// Maintains reports that every firing stores a ruleExec row.
func (s *ExSPANState) Maintains(AdvMeta) bool { return true }

// GainsLinks reports that predecessors hang off prov rows, not links.
func (s *ExSPANState) GainsLinks() bool { return false }

// Reconstruct assembles the trees from the fully materialized data.
func (s *ExSPANState) Reconstruct(prog *ndlog.Program, _ ndlog.FuncMap, root types.Tuple, rootProvs []Prov,
	entries map[Ref]CollectedEntry, tuples map[types.ID]types.Tuple, provs map[types.ID][]Prov) []*Tree {
	return AssembleExSPAN(prog, root, rootProvs, entries, tuples, provs)
}

// liveRefs filters NULL references out of a next-list.
func liveRefs(nexts []Ref) []Ref {
	var out []Ref
	for _, nx := range nexts {
		if !nx.IsNil() {
			out = append(out, nx)
		}
	}
	return out
}
