// Package engine executes DELPs over a distributed set of nodes following
// the pipelined semi-naïve evaluation strategy of Section 3.1: an event
// tuple arriving at a node joins the local slow-changing tables, fires
// every rule it matches, and ships each head tuple to the node named by its
// location specifier, where evaluation continues until the pipeline's output
// relations are reached.
//
// The engine is provenance-agnostic: a Maintainer (internal/core) observes
// injections, rule firings and outputs through hooks and threads its own
// metadata along each shipped tuple, which is how the three provenance
// schemes of the paper are realized without duplicating the evaluator.
//
// Rule evaluation is compiled and index-driven: each rule becomes a plan
// (plan.go) that evaluates over a flat frame of value slots — variables
// are resolved to slot reads, writes and equality checks at compile time —
// and whose join steps probe per-relation secondary hash indexes
// (index.go) instead of scanning candidate tables, turning the per-event
// join from O(Π|rel_i|) into a sequence of bucket probes that allocates
// only for the firings it returns.
package engine

import (
	"fmt"
	"sync"

	"provcompress/internal/types"
)

// relation is one table of the store: rows in slice order for scans, a
// parallel VID slice so a swap-remove delete can find the moved row's
// entry in the Database's VID map, and the secondary hash indexes built
// so far (keyed by the bitmask of the attribute positions they cover). A
// row holds its tuple as it arrived: a cluster decodes tuples through its
// name table (types.Names), so a row's relation name and node addresses
// share the table's strings, and only its other strings (payloads) are
// the row's own.
type relation struct {
	id   uint32 // this relation's index in Database.rels
	rows []types.Tuple
	vids []types.ID
	idx  map[uint64]*hashIndex
}

// rowRef locates a live row: its relation's index in Database.rels and
// its position in that relation's rows. It holds no pointer, so the VID
// map that holds one per live row is never scanned by the collector.
type rowRef struct {
	rel, pos uint32
}

// Database is one node's local relational store of base (slow-changing)
// tuples and locally derived tuples of interest. One pointer-free map,
// byVID, finds every live row by its VID; the rows themselves live in
// their relations.
//
// The store is safe for concurrent use: mutations take the write lock,
// reads the read lock, and rule evaluation (plan.go) holds the read lock
// for the duration of a join so the row slices and index buckets it
// iterates stay stable against concurrent swap-remove deletes. This is
// what lets the cluster runtime evaluate independent events on parallel
// shards while slow-changing updates proceed.
type Database struct {
	// mu is the store lock: Insert/Delete exclusive, scans/probes shared.
	mu sync.RWMutex
	// idxMu serializes lazy index construction, which happens under the
	// shared (read) side of mu: concurrent probes for a missing index must
	// not both install it. Lock order is always mu before idxMu.
	idxMu sync.Mutex

	tables map[string]*relation
	rels   []*relation // by rowRef.rel, in creation order
	byVID  map[types.ID]rowRef
	// graveyard retains the contents of deleted tuples so provenance —
	// which is monotone (Section 5.5: deletions do not affect stored
	// provenance) — can still resolve the VIDs it recorded. Under delete
	// churn it grows without bound unless a retention cap is set, in
	// which case the oldest entries are evicted FIFO (graveyardOrder)
	// and provenance referencing them stops resolving — the
	// monotonicity/memory tradeoff documented in DESIGN.md §10.
	graveyard map[types.ID]types.Tuple
	// graveyardOrder is a head-compacted FIFO of graveyard VIDs:
	// graveyardOrder[graveyardHead:] are the live entries, oldest first.
	// Eviction advances the head (zeroing the vacated slot so the ID is
	// collectable) and copy-compacts once the dead prefix outgrows the
	// live tail, so a long-running capped node never pins the backing
	// array of every entry it ever evicted.
	graveyardOrder []types.ID
	graveyardHead  int
	graveyardCap   int // 0 = unbounded
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		tables: make(map[string]*relation),
		byVID:  make(map[types.ID]rowRef),
	}
}

// Insert adds a tuple; duplicates (set semantics) are ignored.
// It reports whether the tuple was newly added.
func (db *Database) Insert(t types.Tuple) bool {
	vid := types.HashTuple(t)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.byVID[vid]; ok {
		return false
	}
	// A re-inserted tuple is live again: drop its graveyard entry so the
	// gauge and the retention cap track only genuinely deleted tuples (and
	// so a later cap eviction cannot fire an invalidation for a live VID).
	// Its slot in graveyardOrder stays behind as a stale entry; the cap
	// enforcement skips VIDs no longer in the map.
	if _, ok := db.graveyard[vid]; ok {
		delete(db.graveyard, vid)
	}
	rel := db.tables[t.Rel]
	if rel == nil {
		rel = &relation{id: uint32(len(db.rels)), idx: make(map[uint64]*hashIndex)}
		db.tables[t.Rel] = rel
		db.rels = append(db.rels, rel)
	}
	pos := uint32(len(rel.rows))
	db.byVID[vid] = rowRef{rel: rel.id, pos: pos}
	rel.rows = append(rel.rows, t)
	rel.vids = append(rel.vids, vid)
	for _, ix := range rel.idx {
		ix.add(t, pos)
	}
	return true
}

// Delete removes a tuple from its table in O(1) by swapping the last row
// into its slot (the VID map finds the slot, and the moved row's entry is
// rewritten); every secondary index built for the relation is kept
// consistent. It reports whether the tuple was present. The tuple's
// content stays resolvable through LookupVID so that previously recorded
// provenance remains queryable.
func (db *Database) Delete(t types.Tuple) bool {
	ok, _ := db.DeleteEvicted(t)
	return ok
}

// DeleteEvicted is Delete, additionally reporting the VIDs of graveyard
// entries evicted by the retention cap as a consequence of this delete.
// Provenance referencing an evicted VID can no longer resolve its
// contents, so the serving layer treats those VIDs as invalidated too — a
// cached tree that resolved the tuple before eviction must not outlive
// the fresh recomputation that cannot (DESIGN.md §14).
func (db *Database) DeleteEvicted(t types.Tuple) (bool, []types.ID) {
	vid := types.HashTuple(t)
	db.mu.Lock()
	defer db.mu.Unlock()
	ref, ok := db.byVID[vid]
	if !ok {
		return false, nil
	}
	delete(db.byVID, vid)
	var evicted []types.ID
	if db.graveyard == nil {
		db.graveyard = make(map[types.ID]types.Tuple)
	}
	if _, ok := db.graveyard[vid]; !ok {
		db.graveyard[vid] = t
		db.graveyardOrder = append(db.graveyardOrder, vid)
		evicted = db.enforceGraveyardCapLocked()
	}
	rel := db.rels[ref.rel]
	i, last := ref.pos, uint32(len(rel.rows)-1)
	for _, ix := range rel.idx {
		ix.remove(rel.rows, i, last)
	}
	if i != last {
		rel.rows[i] = rel.rows[last]
		rel.vids[i] = rel.vids[last]
		db.byVID[rel.vids[i]] = rowRef{rel: ref.rel, pos: i}
	}
	rel.rows[last] = types.Tuple{}
	rel.rows = rel.rows[:last]
	rel.vids = rel.vids[:last]
	return true, evicted
}

// Scan returns a copy of a relation's tuples, so writers may run while the
// caller reads it. The order is insertion order until the first Delete on
// the relation (deletes swap the last row into the vacated slot).
func (db *Database) Scan(rel string) []types.Tuple {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]types.Tuple(nil), db.scanLocked(rel)...)
}

// scanLocked is Scan without the copy, for callers that hold mu (either
// side) for as long as they read the rows.
func (db *Database) scanLocked(rel string) []types.Tuple {
	if r := db.tables[rel]; r != nil {
		return r.rows
	}
	return nil
}

// bucketLocked looks up (building on first use) the index for the
// position set and returns the relation's rows with the chain of the
// bucket for key: rows[p] for p := head; p != noRow; p = next[p] are the
// candidates, in bucket order. The bucket may hold rows of another key
// whose hash collides, so the caller must re-check every candidate. The
// caller must hold mu — the read side suffices: index construction only
// reads rows, and idxMu serializes the map install against concurrent
// probes.
func (db *Database) bucketLocked(relName string, positions []int, key []byte) (rows []types.Tuple, next []uint32, head uint32) {
	rel := db.tables[relName]
	if rel == nil {
		return nil, nil, noRow
	}
	mask, ok := posMask(positions)
	if !ok {
		return nil, nil, noRow
	}
	db.idxMu.Lock()
	ix := rel.idx[mask]
	if ix == nil {
		ix = newHashIndex(positions, len(rel.rows))
		for p, t := range rel.rows {
			ix.add(t, uint32(p))
		}
		rel.idx[mask] = ix
	}
	db.idxMu.Unlock()
	return rel.rows, ix.next, ix.probe(key)
}

// LookupVID resolves a tuple by its content hash, used by the provenance
// query protocols to fetch slow-changing tuple contents referenced by VIDs.
// Deleted tuples remain resolvable (provenance is monotone).
func (db *Database) LookupVID(vid types.ID) (types.Tuple, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if ref, ok := db.byVID[vid]; ok {
		return db.rels[ref.rel].rows[ref.pos], true
	}
	t, ok := db.graveyard[vid]
	return t, ok
}

// SetGraveyardCap bounds the graveyard to at most n deleted tuples,
// evicting the oldest entries FIFO when the cap is exceeded; n <= 0
// restores the default unbounded retention. Capping trades provenance
// monotonicity for memory: a provenance entry recorded before an
// evicted tuple's deletion can no longer resolve that VID's contents.
func (db *Database) SetGraveyardCap(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if n < 0 {
		n = 0
	}
	db.graveyardCap = n
	db.enforceGraveyardCapLocked()
}

// enforceGraveyardCapLocked evicts oldest-first down to the cap,
// returning the evicted VIDs. Caller holds mu exclusively. Eviction
// advances graveyardHead instead of re-slicing (which would pin the
// evicted prefix in the backing array forever); the dead prefix is
// copy-compacted away once it exceeds the live tail.
func (db *Database) enforceGraveyardCapLocked() []types.ID {
	if db.graveyardCap <= 0 {
		return nil
	}
	var evicted []types.ID
	// The cap applies to live entries (the map), not the order slice: a
	// delete→re-insert leaves a stale order slot behind, which is popped
	// here without counting as an eviction.
	for len(db.graveyard) > db.graveyardCap && db.graveyardHead < len(db.graveyardOrder) {
		oldest := db.graveyardOrder[db.graveyardHead]
		db.graveyardOrder[db.graveyardHead] = types.ID{}
		db.graveyardHead++
		if _, live := db.graveyard[oldest]; !live {
			continue
		}
		delete(db.graveyard, oldest)
		evicted = append(evicted, oldest)
	}
	// Also drain any stale prefix so re-inserted VIDs don't pin slots.
	for db.graveyardHead < len(db.graveyardOrder) {
		if _, live := db.graveyard[db.graveyardOrder[db.graveyardHead]]; live {
			break
		}
		db.graveyardOrder[db.graveyardHead] = types.ID{}
		db.graveyardHead++
	}
	if db.graveyardHead > len(db.graveyardOrder)-db.graveyardHead {
		n := copy(db.graveyardOrder, db.graveyardOrder[db.graveyardHead:])
		db.graveyardOrder = db.graveyardOrder[:n]
		db.graveyardHead = 0
	}
	return evicted
}

// GraveyardSize returns the number of deleted tuples retained for VID
// resolution — the gauge the serving layer exports.
func (db *Database) GraveyardSize() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.graveyard)
}

// Len returns the number of live tuples across every relation (the
// graveyard not included).
func (db *Database) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.byVID)
}

// Count returns the number of tuples in a relation.
func (db *Database) Count(rel string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if r := db.tables[rel]; r != nil {
		return len(r.rows)
	}
	return 0
}

// Node is one entity of the distributed system: an address plus its local
// database.
type Node struct {
	Addr types.NodeAddr
	DB   *Database
}

// NewNode returns a node with an empty database.
func NewNode(addr types.NodeAddr) *Node {
	return &Node{Addr: addr, DB: NewDatabase()}
}

// String identifies the node in logs.
func (n *Node) String() string { return fmt.Sprintf("node(%s)", n.Addr) }
