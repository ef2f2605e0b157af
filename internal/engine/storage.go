// Storage surface of the engine beyond the evaluator's reads: the
// durability hooks (Contains, Reset) and the snapshot codec the
// write-ahead-log subsystem checkpoints and recovers from.
package engine

import (
	"fmt"

	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// Contains reports whether a live tuple is stored (deleted tuples are not
// contained even though their contents remain resolvable). The durability
// layer uses it to decide whether a mutation will be accepted before
// writing its WAL record.
func (db *Database) Contains(t types.Tuple) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.byVID[types.HashTuple(t)]
	return ok
}

// GraveyardVIDs returns the retained deleted-tuple VIDs oldest-first — the
// FIFO eviction order. Exposed for tests that pin eviction behavior.
func (db *Database) GraveyardVIDs() []types.ID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []types.ID
	for _, vid := range db.graveyardOrder[db.graveyardHead:] {
		// Skip stale slots left behind by a delete→re-insert cycle.
		if _, ok := db.graveyard[vid]; ok {
			out = append(out, vid)
		}
	}
	return out
}

// Reset empties the database in place: tables, indexes, VID map, and
// graveyard all drop; the graveyard cap is retained. Recovery uses it to
// discard a crashed node's in-memory state before replaying the durable
// log, without invalidating the *Database pointers other goroutines hold.
func (db *Database) Reset() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables = make(map[string]*relation)
	db.rels = nil
	db.byVID = make(map[types.ID]rowRef)
	db.graveyard = nil
	db.graveyardOrder = nil
	db.graveyardHead = 0
}

// EncodeSnapshot serializes the database — every relation's rows in slice
// order, then the graveyard contents in FIFO order — into the encoder. The
// layout is unversioned here: the payload that embeds it carries the one
// version byte. Secondary indexes are deliberately not persisted: they
// rebuild lazily on first probe, so a snapshot stays small and a restore
// answers probes identically without trusting on-disk index state.
func (db *Database) EncodeSnapshot(e *wire.Encoder) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e.U32(uint32(len(db.tables)))
	for rel, r := range db.tables {
		e.Str(rel)
		e.U32(uint32(len(r.rows)))
		for _, t := range r.rows {
			e.Tuple(t)
		}
	}
	// Stale order slots (delete→re-insert) carry VIDs absent from the map;
	// only live entries are persisted, in FIFO order.
	var live []types.ID
	for _, vid := range db.graveyardOrder[db.graveyardHead:] {
		if _, ok := db.graveyard[vid]; ok {
			live = append(live, vid)
		}
	}
	e.U32(uint32(len(live)))
	for _, vid := range live {
		e.Tuple(db.graveyard[vid])
	}
}

// maxSnapshotItems bounds a decoded collection; larger counts indicate a
// corrupt snapshot rather than a plausible state.
const maxSnapshotItems = 1 << 26

// MergeSnapshot folds a snapshot into the database without resetting it:
// rows insert with set semantics (duplicates are no-ops) in their recorded
// order, graveyard entries append in FIFO order only when absent, and the
// receiver's own retention cap then applies to them. It is the one snapshot decoder: boot
// recovery merges into an empty database, which rebuilds the snapshotted
// one, and handoff installs and read-repair merge over a store that may
// already hold replicated inserts for the same partition, in either
// arrival order.
func (db *Database) MergeSnapshot(d *wire.Decoder) error {
	nTables := d.U32()
	if nTables > maxSnapshotItems {
		return fmt.Errorf("engine: snapshot with %d tables", nTables)
	}
	for i := uint32(0); i < nTables && d.Err() == nil; i++ {
		rel := d.Str()
		nRows := d.U32()
		if nRows > maxSnapshotItems {
			return fmt.Errorf("engine: snapshot relation %q with %d rows", rel, nRows)
		}
		for j := uint32(0); j < nRows && d.Err() == nil; j++ {
			t := d.Tuple()
			if d.Err() == nil {
				db.Insert(t)
			}
		}
	}
	nGrave := d.U32()
	if nGrave > maxSnapshotItems {
		return fmt.Errorf("engine: snapshot with %d graveyard entries", nGrave)
	}
	db.mu.Lock()
	for i := uint32(0); i < nGrave && d.Err() == nil; i++ {
		t := d.Tuple()
		if d.Err() != nil {
			break
		}
		vid := types.HashTuple(t)
		if db.graveyard == nil {
			db.graveyard = make(map[types.ID]types.Tuple)
		}
		if _, ok := db.graveyard[vid]; !ok {
			db.graveyard[vid] = t
			db.graveyardOrder = append(db.graveyardOrder, vid)
		}
	}
	db.enforceGraveyardCapLocked()
	db.mu.Unlock()
	if err := d.Err(); err != nil {
		return fmt.Errorf("engine: corrupt database snapshot: %w", err)
	}
	return nil
}
