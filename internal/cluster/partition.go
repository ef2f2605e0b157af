package cluster

import (
	"fmt"
	"strconv"
	"sync"

	"provcompress/internal/core"
	"provcompress/internal/engine"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// partition is one member's recoverable state — its database, which holds
// the slow tuples, the input events injected here, the outputs that arrived
// and, under a scheme whose walk resolves them, every intermediate event
// (step), together with the scheme's provenance tables (Section 5.3) —
// wherever a copy of it lives: at the owner itself
// (Node.self), at a replica as the shadow the owner's record stream
// maintains, or at the acting owner hosting it after the owner Left. Every role runs the same
// pipeline step, replays the same records and speaks the same snapshot
// codec; only the write path around them (Node.write, durability.go) belongs
// to the owner alone.
type partition struct {
	owner types.NodeAddr

	// mu guards state. The database carries its own read-write lock, so
	// joins run outside mu.
	mu    sync.Mutex
	db    *engine.Database
	state core.NodeState
	// keepEvents says the scheme's walk resolves every intermediate event's
	// VID (core.NodeState.ResolvesEventVIDs), so step stores each one.
	keepEvents bool
	sigs       bool // the scheme keeps htequi (NodeState.EventByEvID): slow inserts broadcast sig
}

// newPartition builds an empty copy of owner's partition.
func (c *Cluster) newPartition(owner types.NodeAddr) (*partition, error) {
	st, err := core.NewNodeState(c.scheme, c.keys, nil)
	if err != nil {
		return nil, err
	}
	p := &partition{owner: owner, db: engine.NewDatabase(), state: st, keepEvents: st.ResolvesEventVIDs(), sigs: st.EventByEvID()}
	if c.graveyardCap > 0 {
		p.db.SetGraveyardCap(c.graveyardCap)
	}
	return p, nil
}

// partitionFor returns the copy of owner's partition this node holds — its
// own for its own address — optionally creating a missing one.
func (n *Node) partitionFor(owner types.NodeAddr, create bool) *partition {
	if owner == n.addr {
		return n.self
	}
	n.partsMu.Lock()
	defer n.partsMu.Unlock()
	p := n.parts[owner]
	if p == nil && create {
		var err error
		if p, err = n.c.newPartition(owner); err != nil {
			return nil
		}
		n.parts[owner] = p
	}
	return p
}

// evalBuf is the evaluation memory of one shard worker, reused by every
// rule of every step it runs: the firings of the rule being applied and
// the slab their Slow lists are carved from (engine.Plans.EvalAppend).
// Reuse is safe because step consumes each rule's firings before it
// evaluates the next rule, and FireAt keeps only the VIDs it hashes from a
// firing's slow tuples, never the tuples or the list.
type evalBuf struct {
	firings []engine.Firing
	slow    []types.Tuple
	// changes holds the decoded record a WAL replay applies (applyRecord),
	// and entries and arena the batch it is decoded from (decodeRecord),
	// all reused from record to record.
	changes []change
	entries []wire.BatchEntry
	arena   []byte
}

// changesState reports whether applying f changes this partition's
// recoverable state, and so whether the owner logs and replicates it. It
// reads the frame and the scheme, never the state, so the owner decides
// before the step runs: a fresh event is stored and injected, an output is
// stored and lands, an intermediate event is stored under ExSPAN
// (keepEvents), and otherwise only a firing the scheme maintains stores a
// row — under Advanced, not one whose class already exists. A frame it
// rejects still runs live, and replays as a no-op.
func (p *partition) changesState(c *Cluster, f *tupleFrame) bool {
	return f.Fresh || len(c.prog.RulesForEvent(f.Tuple.Rel)) == 0 || p.keepEvents || p.state.Maintains(f.Meta)
}

// step is the pipeline step (Section 2.1), run at node n against this
// partition: store the arriving tuple if a provenance walk or Outputs will
// read it, join the slow tables, fire the matching rules and maintain
// provenance through the scheme's state machine. A fresh input event is
// stored at its origin, where Basic's leaf VID and Advanced's EVID resolve
// it, and an output where it lands; an intermediate event is stored only
// under ExSPAN (keepEvents), since the other schemes re-derive it at query
// time (Section 4) and no rule joins an event relation. The join runs
// against the database's own read-write lock — outside mu — so shards
// evaluate concurrently; only the provenance state transitions serialize
// on mu. Events of one equivalence class are processed by one shard in
// arrival order, which is what keeps per-class provenance chains
// consistent. FireAt uses the owner's address, so every
// copy's provenance rows carry the same (Loc, RID) identities and a walk
// served from any of them resolves the same refs.
//
// ship says the caller acts for the owner on a live arrival: each derived
// head, with the metadata its firing produced, is appended to out (the
// caller's buffer, so a hop's shipments need no slice of their own) for
// the caller to send, and provenance landing on an output fires its
// invalidation keys. WAL replay and shadow applies pass false and ship
// nothing — the log and the
// record stream hold exactly the frames the owner processed, and it
// shipped their heads and fired their keys when it did (changesState says
// which frames those are).
//
// buf is the evaluation memory of the calling shard worker, of the
// member's WAL replay or of the record a shadow applies.
func (p *partition) step(n *Node, f *tupleFrame, ship bool, out []tupleFrame, buf *evalBuf) []tupleFrame {
	c := n.c
	sp := c.startSpan(f.Trace, n.addr, "process", f.Tuple.Rel)
	defer sp.End()
	rules := c.prog.RulesForEvent(f.Tuple.Rel)
	if f.Fresh || len(rules) == 0 || p.keepEvents {
		p.db.Insert(f.Tuple)
	}
	meta := f.Meta
	if f.Fresh {
		p.mu.Lock()
		meta = p.state.Inject(f.Tuple)
		p.mu.Unlock()
	}
	if len(rules) == 0 {
		p.mu.Lock()
		landed := p.state.Output(f.Tuple, meta)
		p.mu.Unlock()
		sp.SetAttr("output", "true")
		if ship && len(landed) > 0 {
			// Provenance landed on these outputs (possibly deferred outputs
			// of earlier events, under Advanced): fire their VID keys so
			// cached trees for them — including cached empty answers — are
			// evicted now that their derivations changed.
			c.fireEventHook(vidKeysOf(landed)...)
		}
		return out
	}
	// regained collects the keys of stored rows this arrival gave another
	// predecessor (see below); empty on the usual path.
	var regained []InvalKey
	for _, r := range rules {
		// The rule span brackets the join itself, annotated with the
		// firing count the plan produced.
		rsp := c.startSpan(sp.Context(), n.addr, "rule", r.Label)
		var err error
		buf.firings, buf.slow, err = c.plans.EvalAppend(buf.firings[:0], buf.slow[:0], r, p.db, f.Tuple, c.funcs)
		firings := buf.firings
		if rsp != nil {
			rsp.SetAttr("firings", strconv.Itoa(len(firings)))
			if err != nil {
				rsp.SetAttr("error", err.Error())
			}
			rsp.End()
		}
		if err != nil {
			// A rule that errors derives nothing; the rest still fire.
			n.fail("rule "+r.Label, err)
		}
		for _, fr := range firings {
			p.mu.Lock()
			m := p.state.FireAt(p.owner, fr, meta)
			again := p.state.Regained()
			p.mu.Unlock()
			if ship {
				// The shipped head carries this process span's context so
				// the next hop's span parents under it.
				out = append(out, tupleFrame{Tuple: fr.Head, Meta: m, Trace: sp.Context()})
				if !again.IsZero() {
					regained = append(regained, VIDInvalKey(again))
				}
			}
		}
	}
	if len(regained) > 0 {
		// A second derivation of a tuple this node already derived gave a
		// stored row another predecessor (ExSPAN: a further prov row on the
		// tuple; Basic: a link row on the execution). A walk through that
		// row now finds one more derivation, and nothing guarantees this one
		// goes on to land — a slow tuple deleted or rewritten downstream cuts
		// it short or sends it elsewhere — so the row's own key fires here.
		c.fireEventHook(regained...)
	}
	return out
}

// applyRecord applies one record (durability.go) — a batch of changes, in
// order: WAL recovery replays the owner's log through it and handleRepl
// the owner's record stream, so a rebooted owner and a shadow rebuild the
// state the live owner reached by the same code. A record that does not
// decode applies nothing. Nothing decoded from rec aliases it, so replay
// may reuse rec's buffer for the next record. buf is passed to step: the
// recovering member's evaluation buffer, or nil for one of the record's
// own.
func (p *partition) applyRecord(n *Node, rec []byte, buf *evalBuf) error {
	if buf == nil {
		buf = new(evalBuf)
	}
	changes, err := decodeRecord(buf, rec, n.c.names)
	if err != nil {
		return err
	}
	for i := range changes {
		ch := &changes[i]
		switch ch.kind {
		case recEvent:
			p.step(n, &ch.f, false, nil, buf)
		case recInsert:
			p.db.Insert(ch.f.Tuple)
		case recDelete:
			p.db.Delete(ch.f.Tuple)
		case recSig:
			p.clearEquiKeys()
		}
	}
	return nil
}

// clearEquiKeys handles a sig broadcast (Section 5.5).
func (p *partition) clearEquiKeys() {
	p.mu.Lock()
	p.state.ClearEquiKeys()
	p.mu.Unlock()
}

// snapshot serializes the partition's full recoverable state: the version
// byte, the database (live tuples + graveyard) and the scheme's provenance
// tables. Checkpoints, bootstrap and leave handoffs and read-repair replies
// all carry this one layout.
func (p *partition) snapshot() []byte {
	e := wire.NewEncoder(4096)
	e.U8(nodeSnapVersion)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.db.EncodeSnapshot(e)
	p.state.Persist(e)
	return e.Bytes()
}

// load merges a snapshot payload into the partition; it is the one
// snapshot loader. Provenance rows only accumulate, so restoring is
// merging into an empty partition: boot recovery and Restart load into
// one, and the rows come back through the same insertion paths that built
// them live. Handoff installs and read-repair load over a live copy:
// replicated records that arrived before the snapshot survive and rows the
// snapshot duplicates are no-ops, in either arrival order — so bootstrap
// is gap-free without a freeze window at the owner. Strings decode
// through names, the cluster's name table.
func (p *partition) load(payload []byte, names *types.Names) error {
	d := wire.NewNamedDecoder(payload, names)
	if v := d.U8(); d.Err() == nil && v != nodeSnapVersion {
		return fmt.Errorf("cluster: unsupported node snapshot version %d", v)
	}
	if err := p.db.MergeSnapshot(d); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state.Merge(d)
}

// outputs lists the partition's rows of the given output relations, per
// relation in insertion order: step stores every output where it lands, so
// the database is its one copy — a set, so a second arrival adds none.
func (p *partition) outputs(rels []string) []types.Tuple {
	var out []types.Tuple
	for _, rel := range rels {
		out = append(out, p.db.Scan(rel)...)
	}
	return out
}
