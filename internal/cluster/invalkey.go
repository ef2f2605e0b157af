package cluster

import (
	"encoding/binary"

	"provcompress/internal/types"
)

// Invalidation keys are the currency of the serving layer's dependency-
// indexed result cache (internal/provserve, DESIGN.md §14). There is one
// kind: the first eight bytes of a content hash — a tuple's VID or a rule
// execution's RID. An answer is a function of the prov rows on the VIDs
// its walk read (its root output's and, under ExSPAN, the recorded ones),
// of the link rows on the rule executions it collected (Basic) and of the
// tuples it resolved, so every cached answer is tagged with the keys of
// its root output, of every recorded VID and event ID the walk touched
// and, where executions carry link rows, of their RIDs (walkInvalKeys),
// and every change to one of those fires the same key through the cluster
// event hook: provenance landing on an output (Output returning the VID),
// a slow-changing tuple inserted or deleted, the graveyard cap evicting a
// VID's contents, a second derivation adding a prov row to a tuple or a
// link row to an execution already stored (NodeState.Regained). Only cache
// entries tagged with a fired key are evicted; an answer in flight when
// its key fires is dropped by the admission check in provserve. An event
// of an equivalence class the answer's events share fires nothing the
// answer carries — §5.3: it adds one prov row under its own event ID and
// leaves what the class stored untouched.

// InvalKey is a 64-bit cache-invalidation key.
type InvalKey = uint64

// VIDInvalKey returns the invalidation key of one content hash (a VID, an
// event ID, a RID): its first eight bytes — the ID is a SHA-1, already
// uniform.
func VIDInvalKey(id types.ID) InvalKey {
	return binary.BigEndian.Uint64(id[:8])
}

// addInvalKey inserts k into a small sorted key set, keeping it sorted
// and duplicate-free (the canonical form cache entries are tagged with).
func addInvalKey(set []uint64, k uint64) []uint64 {
	i := 0
	for i < len(set) && set[i] < k {
		i++
	}
	if i < len(set) && set[i] == k {
		return set
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = k
	return set
}

// vidKeysOf maps tuple IDs to their VID invalidation keys.
func vidKeysOf(ids []types.ID) []InvalKey {
	if len(ids) == 0 {
		return nil
	}
	out := make([]InvalKey, len(ids))
	for i, id := range ids {
		out[i] = VIDInvalKey(id)
	}
	return out
}
