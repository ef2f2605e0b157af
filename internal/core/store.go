package core

import (
	"bytes"
	"fmt"
	"slices"

	"provcompress/internal/types"
)

// Ref references a rule-execution provenance node: the (RLoc, RID) and
// (NLoc, NRID) pairs of the paper's tables. The zero Ref is NULL.
type Ref struct {
	Loc types.NodeAddr
	RID types.ID
}

// NilRef is the NULL reference.
var NilRef Ref

// IsNil reports whether the reference is NULL.
func (r Ref) IsNil() bool { return r == NilRef }

// String renders the reference as rid@loc or NULL.
func (r Ref) String() string {
	if r.IsNil() {
		return "NULL"
	}
	return fmt.Sprintf("%s@%s", r.RID, r.Loc)
}

// WireSize returns the serialized size of the reference.
func (r Ref) WireSize() int { return 2 + len(r.Loc) + len(r.RID) }

// RuleExec is a row of the ruleExec table: a rule-execution provenance
// node. VIDs holds the recorded body-tuple hashes (which bodies are
// recorded differs per scheme); Next is the (NLoc, NRID) link towards the
// event leaf used by the Basic and Advanced schemes (NULL for ExSPAN rows
// and for leaf rows).
type RuleExec struct {
	Loc  types.NodeAddr
	RID  types.ID
	Rule string
	VIDs []types.ID
	Next Ref
}

// WireSize returns the serialized size of the row; withNext controls
// whether the NLoc/NRID columns exist in this scheme's table.
func (e RuleExec) WireSize(withNext bool) int {
	return execWireSize(e.Loc, e.Rule, len(e.VIDs), e.Next, withNext)
}

// execWireSize is RuleExec.WireSize over the row's columns.
func execWireSize(loc types.NodeAddr, rule string, nVIDs int, next Ref, withNext bool) int {
	n := 2 + len(loc) + len(types.ID{}) + 1 + len(rule) + 1 + nVIDs*len(types.ID{})
	if withNext {
		n += next.WireSize()
	}
	return n
}

// Prov is a row of the prov table: it associates a tuple (by VID) with the
// rule execution that derived it. EvID identifies the input event of the
// execution under the Advanced scheme (zero otherwise); Ref is NULL for
// base tuples (ExSPAN only stores those).
type Prov struct {
	Loc  types.NodeAddr
	VID  types.ID
	Ref  Ref
	EvID types.ID
}

// WireSize returns the serialized size of the row; withEvID controls
// whether the EVID column exists in this scheme's table.
func (p Prov) WireSize(withEvID bool) int {
	n := 2 + len(p.Loc) + len(p.VID) + p.Ref.WireSize()
	if withEvID {
		n += len(p.EvID)
	}
	return n
}

// pendingOutput is an output waiting for its equivalence class's shared
// tree reference to be installed in hmap (Advanced scheme, out-of-order
// arrival protection).
type pendingOutput struct {
	vid  types.ID
	evid types.ID
}

// hmapKey addresses one equivalence class's shared chain for one output
// relation.
type hmapKey struct {
	eq  types.ID
	rel string
}

// hmapEntry holds the shared-chain references of one class/relation, and
// the event (epoch) that installed them.
type hmapEntry struct {
	evid types.ID
	refs []Ref
}

// layout says which optional columns and tables a scheme's storage carries;
// it decides what a row costs on disk and on the wire.
type layout struct {
	withNext bool // ruleExec has NLoc/NRID columns (Basic, chained Advanced)
	withEvID bool // prov has an EVID column (the Advanced schemes)
	useLinks bool // Section 5.4: next refs live in a separate ruleExecLink table
}

// Slab chunks grow from the first size to the second by doubling, so a
// node that stores a handful of rows holds a handful of slots. A row's
// index in ruleExec packs its chunk and its slot in the chunk, so the
// largest exec chunk is 1<<execSlotBits rows.
const (
	execSlotBits               = 8
	minExecChunk, maxExecChunk = 8, 1 << execSlotBits
	minVIDChunk, maxVIDChunk   = 16, 1024
)

// execRow is a ruleExec row as the store keeps it. It holds no pointer, so
// the collector never scans the slabs of them: Loc, Rule and NLoc are
// indexes into the store's string table, and the VID list is vidLen IDs
// from vidOff in VID chunk vidChunk.
type execRow struct {
	rid, nrid                types.ID
	loc, rule, nloc          uint32
	vidChunk, vidOff, vidLen uint32
}

// Indexes of store.strHint, one per string column of execRow.
const (
	hintLoc = iota
	hintRule
	hintNLoc
)

// noVIDs is the VID list of a row that records none: empty, not nil.
var noVIDs = []types.ID{}

// store holds one node's provenance state for one maintenance scheme, with
// running serialized-size accounting in the paper's measurement style
// (Section 6: "we serialize the per-node provenance tables ... and measure
// the size").
//
// The ruleExec table is pointer-free: the RID map holds row indexes, and
// the rows and their VID lists live in chunked slabs of plain IDs and
// integers, so however many rows a node stores, the collector has none of
// them to scan. links, prov and hmap still hold pointers.
type store struct {
	layout

	// ruleExec maps a RID to its row, execChunks[i>>execSlotBits][i&(1<<execSlotBits-1)].
	// Rows and their VID lists live in append-only chunked slabs, the last
	// chunk of each the open one. No row is ever deleted.
	ruleExec   map[types.ID]uint32
	execChunks [][]execRow
	vidChunks  [][]types.ID
	// strs is the string table of the rows' Loc, Rule and NLoc columns,
	// strs[0] the empty string of a NULL next-reference. Its strings take
	// few values — the store's node, the program's rule labels and its
	// neighbours — so a row finds its strings by trying the entry its
	// column used last (strHint) and then scanning the table, never by
	// hashing.
	strs    []string
	strHint [3]uint32
	// links holds additional next-references per RID for the
	// inter-equivalence-class table split of Section 5.4 (ruleExecLink).
	links map[types.ID][]Ref
	prov  map[types.ID][]Prov

	// Advanced runtime state (Section 5.3). hmap is keyed by (equivalence
	// hash, output relation): one input event may complete several chains
	// when multiple programs share its event stream (Section 8), each
	// producing its own output relation. The epoch EVID lets a post-sig
	// re-maintenance replace a class's references instead of accumulating
	// stale ones.
	htequi  map[types.ID]bool
	hmap    map[hmapKey]*hmapEntry
	pending map[hmapKey][]pendingOutput

	ruleExecBytes int64
	provBytes     int64
	htequiBytes   int64
	hmapBytes     int64

	// Observability counters for the Advanced scheme's §5.5 sig path and
	// §5.3 out-of-order landing machinery. Process-local: they are not
	// persisted and reset with the state machine.
	sigClears        int64
	deferredOutputs  int64
	deferredLandings int64

	// regained is NodeState.Regained's answer for the last FireAt; like the
	// counters it is not persisted.
	regained types.ID
}

func newStore(withNext, withEvID, useLinks bool) *store {
	return &store{
		layout:   layout{withNext: withNext, withEvID: withEvID, useLinks: useLinks},
		ruleExec: make(map[types.ID]uint32),
		prov:     make(map[types.ID][]Prov),
		strs:     []string{""},
	}
}

// bytes returns the node's total provenance storage.
func (s *store) bytes() int64 {
	return s.ruleExecBytes + s.provBytes + s.htequiBytes + s.hmapBytes
}

// addRuleExec inserts a ruleExec row keyed by RID; duplicate RIDs are kept
// once (set semantics). It reports whether the row was new. A new row and
// its VIDs are copied into the slabs, so vids may live on the caller's
// stack — which is why the row comes as its columns rather than as a
// RuleExec, whose VIDs would escape with its strings.
func (s *store) addRuleExec(loc types.NodeAddr, rid types.ID, rule string, vids []types.ID, next Ref) bool {
	if _, ok := s.ruleExec[rid]; ok {
		return false
	}
	s.execChunks = openChunk(s.execChunks, 1, minExecChunk, maxExecChunk)
	open := len(s.execChunks) - 1
	chunk, off, n := s.keepVIDs(vids)
	s.ruleExec[rid] = uint32(open)<<execSlotBits | uint32(len(s.execChunks[open]))
	s.execChunks[open] = append(s.execChunks[open], execRow{
		rid:  rid,
		nrid: next.RID,
		loc:  s.intern(string(loc), hintLoc),
		rule: s.intern(rule, hintRule),
		nloc: s.intern(string(next.Loc), hintNLoc),

		vidChunk: chunk,
		vidOff:   off,
		vidLen:   n,
	})
	s.ruleExecBytes += int64(execWireSize(loc, rule, len(vids), next, s.withNext))
	return true
}

// intern returns str's index in the string table, adding it if it is
// new. The entry column col used last is tried first.
func (s *store) intern(str string, col int) uint32 {
	if h := s.strHint[col]; s.strs[h] == str {
		return h
	}
	i := slices.Index(s.strs, str)
	if i < 0 {
		i = len(s.strs)
		s.strs = append(s.strs, str)
	}
	s.strHint[col] = uint32(i)
	return uint32(i)
}

// keepVIDs copies a row's VID list into the VID slab and returns where it
// went.
func (s *store) keepVIDs(vids []types.ID) (chunk, off, n uint32) {
	if len(vids) == 0 {
		return 0, 0, 0
	}
	s.vidChunks = openChunk(s.vidChunks, len(vids), minVIDChunk, maxVIDChunk)
	open := len(s.vidChunks) - 1
	off = uint32(len(s.vidChunks[open]))
	s.vidChunks[open] = append(s.vidChunks[open], vids...)
	return uint32(open), off, uint32(len(vids))
}

// openChunk returns chunks with room for n more elements in its last
// chunk, appending a new chunk when the last has none: its size doubles
// from lo up to hi, or is n when n is larger.
func openChunk[T any](chunks [][]T, n, lo, hi int) [][]T {
	lastCap := 0
	if last := len(chunks) - 1; last >= 0 {
		if cap(chunks[last])-len(chunks[last]) >= n {
			return chunks
		}
		lastCap = cap(chunks[last])
	}
	return append(chunks, make([]T, 0, max(min(max(2*lastCap, lo), hi), n)))
}

// execAt returns the ruleExec row with index i as a RuleExec. It
// allocates nothing: the strings are the string table's and the VIDs
// alias the slab, capped so an append to them cannot write over a
// neighbour's.
func (s *store) execAt(i uint32) RuleExec {
	r := &s.execChunks[i>>execSlotBits][i&(1<<execSlotBits-1)]
	vids := noVIDs
	if r.vidLen > 0 {
		end := r.vidOff + r.vidLen
		vids = s.vidChunks[r.vidChunk][r.vidOff:end:end]
	}
	return RuleExec{
		Loc:  types.NodeAddr(s.strs[r.loc]),
		RID:  r.rid,
		Rule: s.strs[r.rule],
		VIDs: vids,
		Next: Ref{Loc: types.NodeAddr(s.strs[r.nloc]), RID: r.nrid},
	}
}

// addLink records an extra (NLoc, NRID) link for a shared rule-execution
// node (ruleExecLink table of Section 5.4). Duplicate links are ignored.
func (s *store) addLink(rid types.ID, next Ref) bool {
	for _, r := range s.links[rid] {
		if r == next {
			return false
		}
	}
	if s.links == nil {
		s.links = make(map[types.ID][]Ref)
	}
	s.links[rid] = append(s.links[rid], next)
	// A link row carries (Loc, RID, NLoc, NRID).
	s.ruleExecBytes += int64(2 + len(rid) + next.WireSize())
	return true
}

// getRuleExec fetches a row by RID.
func (s *store) getRuleExec(rid types.ID) (RuleExec, bool) {
	i, ok := s.ruleExec[rid]
	if !ok {
		return RuleExec{}, false
	}
	return s.execAt(i), true
}

// nexts returns every recorded next-reference of a rule-execution node.
// Under the inter-class table split (Section 5.4) the references live in
// the ruleExecLink table and one node may carry several; otherwise the
// row's own Next column is the single reference. A leaf contributes NilRef.
func (s *store) nexts(rid types.ID) []Ref {
	i, ok := s.ruleExec[rid]
	if !ok {
		return nil
	}
	if s.useLinks {
		return append([]Ref(nil), s.links[rid]...)
	}
	next := s.execAt(i).Next
	out := []Ref{next}
	for _, r := range s.links[rid] {
		if r != next {
			out = append(out, r)
		}
	}
	return out
}

// addProv inserts a prov row; exact duplicates are ignored. It reports
// whether the row was new.
func (s *store) addProv(p Prov) bool {
	for _, q := range s.prov[p.VID] {
		if q == p {
			return false
		}
	}
	s.prov[p.VID] = append(s.prov[p.VID], p)
	s.provBytes += int64(p.WireSize(s.withEvID))
	return true
}

// provRows returns the prov rows for a VID, optionally filtered by EvID.
func (s *store) provRows(vid, evid types.ID) []Prov {
	rows := s.prov[vid]
	if evid.IsZero() {
		return rows
	}
	var out []Prov
	for _, p := range rows {
		if p.EvID == evid {
			out = append(out, p)
		}
	}
	return out
}

// seenEquiKey implements Stage 1 of Section 5.3: it checks whether the
// equivalence-key hash was seen at this node and records it if not,
// returning the prior existence (the existFlag value).
func (s *store) seenEquiKey(h types.ID) bool {
	if s.htequi == nil {
		s.htequi = make(map[types.ID]bool)
	}
	if s.htequi[h] {
		return true
	}
	s.htequi[h] = true
	s.htequiBytes += int64(len(h))
	return false
}

// clearEquiKeys empties htequi on receipt of a sig broadcast (Section 5.5).
func (s *store) clearEquiKeys() {
	s.htequi = nil
	s.htequiBytes = 0
	s.sigClears++
}

// equiKeys returns htequi's keys, sorted.
func (s *store) equiKeys() []types.ID {
	keys := make([]types.ID, 0, len(s.htequi))
	for h := range s.htequi {
		keys = append(keys, h)
	}
	slices.SortFunc(keys, func(a, b types.ID) int { return bytes.Compare(a[:], b[:]) })
	return keys
}

// addHmapRef installs a shared-chain reference for (class, output
// relation) and returns any outputs that were waiting for it. A reference
// installed by a new event (fresh evid — e.g. after a sig reset) replaces
// the previous epoch's references; references from the same event
// accumulate (one event may complete several chains to the same output
// relation).
func (s *store) addHmapRef(eq types.ID, rel string, evid types.ID, ref Ref) []pendingOutput {
	if s.hmap == nil {
		s.hmap = make(map[hmapKey]*hmapEntry)
	}
	k := hmapKey{eq, rel}
	e := s.hmap[k]
	if e == nil {
		e = &hmapEntry{evid: evid}
		s.hmap[k] = e
		s.hmapBytes += int64(len(eq) + len(rel) + len(evid))
	} else if e.evid != evid {
		for _, old := range e.refs {
			s.hmapBytes -= int64(old.WireSize())
		}
		e.evid = evid
		e.refs = e.refs[:0]
	}
	for _, r := range e.refs {
		if r == ref {
			waiting := s.pending[k]
			delete(s.pending, k)
			s.deferredLandings += int64(len(waiting))
			return waiting
		}
	}
	e.refs = append(e.refs, ref)
	s.hmapBytes += int64(ref.WireSize())
	waiting := s.pending[k]
	delete(s.pending, k)
	s.deferredLandings += int64(len(waiting))
	return waiting
}

// hmapRefs returns the shared-chain references for (class, output
// relation).
func (s *store) hmapRefs(eq types.ID, rel string) []Ref {
	e := s.hmap[hmapKey{eq, rel}]
	if e == nil {
		return nil
	}
	return e.refs
}

// deferOutput queues an output until the class's hmap entry arrives.
func (s *store) deferOutput(eq types.ID, rel string, p pendingOutput) {
	if s.pending == nil {
		s.pending = make(map[hmapKey][]pendingOutput)
	}
	k := hmapKey{eq, rel}
	s.pending[k] = append(s.pending[k], p)
}

// numRuleExec and numProv report row counts, for tests and table dumps.
func (s *store) numRuleExec() int { return len(s.ruleExec) }
func (s *store) numProv() int {
	n := 0
	for _, rows := range s.prov {
		n += len(rows)
	}
	return n
}
