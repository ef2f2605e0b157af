package core

import (
	"fmt"

	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// Persistence codec for the per-node provenance state machines: the
// durability layer (internal/cluster + internal/store) checkpoints a
// NodeState into a snapshot, and merge is the one decoder back: crash
// recovery merges into a fresh state, handoffs and read-repair into a live
// one. All three schemes share one store layout, so one codec covers them.
// The layout is unversioned here: the node snapshot that embeds it carries
// the one version byte. The snapshot holds rows, not byte counts — the
// add* calls that rebuild every row recompute the byte accounting as they
// computed it live, so StorageBytes — the paper's headline metric — comes
// back bit-identical across a crash.

// maxPersistItems bounds decoded collection sizes; anything larger is a
// corrupt snapshot, not a plausible node state.
const maxPersistItems = 1 << 26

// Persist serializes the state machine into the encoder.
func (s stored) Persist(e *wire.Encoder) { s.st.persist(e) }

// Merge folds a snapshot into the existing state without resetting it.
func (s stored) Merge(d *wire.Decoder) error { return s.st.merge(d) }

func encodePersistRef(e *wire.Encoder, r Ref) {
	e.Str(string(r.Loc))
	e.ID(r.RID)
}

func decodePersistRef(d *wire.Decoder) Ref {
	loc := d.Str()
	rid := d.ID()
	return Ref{Loc: types.NodeAddr(loc), RID: rid}
}

// persist writes every table of the store. Iteration order is whatever the
// maps yield — restore is order-insensitive, and the measurement
// serialization (serialize.go) remains the deterministic form.
func (s *store) persist(e *wire.Encoder) {
	e.U32(uint32(len(s.ruleExec)))
	for _, i := range s.ruleExec {
		row := s.execAt(i)
		e.Str(string(row.Loc))
		e.ID(row.RID)
		e.Str(row.Rule)
		e.U32(uint32(len(row.VIDs)))
		for _, v := range row.VIDs {
			e.ID(v)
		}
		encodePersistRef(e, row.Next)
	}

	e.U32(uint32(len(s.links)))
	for rid, refs := range s.links {
		e.ID(rid)
		e.U32(uint32(len(refs)))
		for _, r := range refs {
			encodePersistRef(e, r)
		}
	}

	nProv := 0
	for _, rows := range s.prov {
		nProv += len(rows)
	}
	e.U32(uint32(nProv))
	for _, rows := range s.prov {
		for _, p := range rows {
			e.Str(string(p.Loc))
			e.ID(p.VID)
			encodePersistRef(e, p.Ref)
			e.ID(p.EvID)
		}
	}

	e.U32(uint32(len(s.htequi)))
	for h, seen := range s.htequi {
		e.ID(h)
		e.Bool(seen)
	}

	e.U32(uint32(len(s.hmap)))
	for k, entry := range s.hmap {
		e.ID(k.eq)
		e.Str(k.rel)
		e.ID(entry.evid)
		e.U32(uint32(len(entry.refs)))
		for _, r := range entry.refs {
			encodePersistRef(e, r)
		}
	}

	nPend := 0
	for _, ps := range s.pending {
		nPend += len(ps)
	}
	e.U32(uint32(nPend))
	for k, ps := range s.pending {
		for _, p := range ps {
			e.ID(k.eq)
			e.Str(k.rel)
			e.ID(p.vid)
			e.ID(p.evid)
		}
	}
}

// merge folds a Persist snapshot into the store without resetting it; into
// a fresh store it rebuilds the snapshotted one, tables and accounting
// alike. Every row goes through the normal dup-checked insertion paths
// (addRuleExec/addLink/addProv/seenEquiKey), so rows already present —
// e.g. delivered by replication while the snapshot was in flight — are
// kept once and the running byte accounting stays exact. Pending outputs
// install without counting a deferral; the state machine that parked them
// counted it.
//
// hmap entries and pending outputs install only for keys this store has
// never seen. For a key both sides hold, the live entry may reflect a
// newer sig epoch than the snapshot (taken before a reset); folding the
// snapshot's references in via addHmapRef would clobber the newer epoch,
// so the live side wins. The cost is bounded staleness on a replica's
// advanced-scheme chains until the next firing refreshes the entry —
// never wrong answers, because queries resolve through prov/ruleExec
// rows, which do merge.
func (s *store) merge(d *wire.Decoder) error {
	n := d.U32()
	if n > maxPersistItems {
		return fmt.Errorf("core: state snapshot with %d ruleExec rows", n)
	}
	// addRuleExec copies a row's VIDs into the store's slab, so one list,
	// grown only by what is actually decoded, serves every row.
	var vids []types.ID
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		loc := types.NodeAddr(d.Str())
		rid := d.ID()
		rule := d.Str()
		vn := d.U32()
		if vn > maxPersistItems {
			return fmt.Errorf("core: ruleExec row with %d vids", vn)
		}
		vids = vids[:0]
		for j := uint32(0); j < vn && d.Err() == nil; j++ {
			vids = append(vids, d.ID())
		}
		next := decodePersistRef(d)
		if d.Err() == nil {
			s.addRuleExec(loc, rid, rule, vids, next)
		}
	}

	n = d.U32()
	if n > maxPersistItems {
		return fmt.Errorf("core: state snapshot with %d link rows", n)
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		rid := d.ID()
		rn := d.U32()
		if rn > maxPersistItems {
			return fmt.Errorf("core: link row with %d refs", rn)
		}
		for j := uint32(0); j < rn && d.Err() == nil; j++ {
			ref := decodePersistRef(d)
			if d.Err() == nil {
				s.addLink(rid, ref)
			}
		}
	}

	n = d.U32()
	if n > maxPersistItems {
		return fmt.Errorf("core: state snapshot with %d prov rows", n)
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var p Prov
		p.Loc = types.NodeAddr(d.Str())
		p.VID = d.ID()
		p.Ref = decodePersistRef(d)
		p.EvID = d.ID()
		if d.Err() == nil {
			s.addProv(p)
		}
	}

	n = d.U32()
	if n > maxPersistItems {
		return fmt.Errorf("core: state snapshot with %d htequi entries", n)
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		h := d.ID()
		seen := d.Bool()
		if d.Err() == nil && seen {
			s.seenEquiKey(h)
		}
	}

	n = d.U32()
	if n > maxPersistItems {
		return fmt.Errorf("core: state snapshot with %d hmap entries", n)
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		eq := d.ID()
		rel := d.Str()
		evid := d.ID()
		rn := d.U32()
		if rn > maxPersistItems {
			return fmt.Errorf("core: hmap entry with %d refs", rn)
		}
		k := hmapKey{eq: eq, rel: rel}
		_, have := s.hmap[k]
		for j := uint32(0); j < rn && d.Err() == nil; j++ {
			ref := decodePersistRef(d)
			if d.Err() == nil && !have {
				s.addHmapRef(eq, rel, evid, ref)
			}
		}
		if rn == 0 && !have && d.Err() == nil {
			// Entry with an epoch but no refs yet: preserve the epoch marker.
			if s.hmap == nil {
				s.hmap = make(map[hmapKey]*hmapEntry)
			}
			s.hmap[k] = &hmapEntry{evid: evid}
			s.hmapBytes += int64(len(eq) + len(rel) + len(evid))
		}
	}

	n = d.U32()
	if n > maxPersistItems {
		return fmt.Errorf("core: state snapshot with %d pending outputs", n)
	}
	livePending := make(map[hmapKey]bool, len(s.pending))
	for k := range s.pending {
		livePending[k] = true
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		eq := d.ID()
		rel := d.Str()
		var p pendingOutput
		p.vid = d.ID()
		p.evid = d.ID()
		k := hmapKey{eq: eq, rel: rel}
		if d.Err() == nil && !livePending[k] {
			s.deferOutput(eq, rel, p)
		}
	}

	if err := d.Err(); err != nil {
		return fmt.Errorf("core: corrupt state snapshot: %w", err)
	}
	return nil
}
