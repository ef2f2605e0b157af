package cluster

import (
	"hash/fnv"

	"provcompress/internal/types"
)

// Invalidation keys are the currency of the serving layer's dependency-
// indexed result cache (internal/provserve, DESIGN.md §14). Every cached
// provenance answer is tagged with the set of keys its distributed walk
// touched; every accepted state change fires the keys it affects through
// the cluster event hook, and only cache entries tagged with a fired key
// are evicted.
//
// Two key kinds share the uint64 keyspace, discriminated by bit 0:
//
//   - class keys (bit 0 clear): the §5.2 equivalence class of an event
//     tuple — its relation plus the values at the relation's
//     equivalence-key attributes. Fired on Inject; tagged onto entries
//     for each leaf event of the returned trees, so a new event of a
//     class a cached tree derives from evicts that tree.
//   - VID keys (bit 0 set): the content hash of a single tuple. Fired
//     when provenance lands on an output (Output returning the VID),
//     when a slow-changing tuple is inserted or deleted, and when the
//     graveyard cap evicts a VID's contents; tagged onto an entry for
//     its root output and every tuple/EvID the walk resolved.
//
// Soundness rests on the VID keys: an event's injection fires its class
// key before downstream derivation completes, but any derivation that
// changes a cached output's provenance must eventually land a prov row
// on that output's VID — and the landing fires the VID key the entry is
// tagged with, evicting it (or, via the admission check in provserve,
// dropping an in-flight answer admitted before the landing).

// InvalKey is a 64-bit cache-invalidation key.
type InvalKey = uint64

// VIDInvalKey returns the invalidation key of one tuple's content hash.
func VIDInvalKey(id types.ID) InvalKey {
	h := fnv.New64a()
	h.Write([]byte{'v'}) //nolint:errcheck // fnv never fails
	h.Write(id[:])       //nolint:errcheck
	return h.Sum64() | 1
}

// EventClassKey returns the §5.2 equivalence-class invalidation key of an
// event tuple: its relation plus the values at the relation's
// equivalence-key attributes (the same attributes shardOf routes by).
// Relations without rules hash over every argument, which degrades the
// class to the single tuple — still sound, just maximally fine.
func (c *Cluster) EventClassKey(t types.Tuple) InvalKey {
	h := fnv.New64a()
	h.Write([]byte{'c'})   //nolint:errcheck // fnv never fails
	h.Write([]byte(t.Rel)) //nolint:errcheck
	var buf [64]byte
	if keys, ok := c.shardKeys[t.Rel]; ok {
		for _, i := range keys {
			if i < len(t.Args) {
				h.Write(t.Args[i].AppendEncode(buf[:0])) //nolint:errcheck
			}
		}
	} else {
		for _, a := range t.Args {
			h.Write(a.AppendEncode(buf[:0])) //nolint:errcheck
		}
	}
	return h.Sum64() &^ 1
}

// IsVIDKey reports which kind an invalidation key is (bit 0 set = VID
// key, clear = equivalence-class key) — the label the serving layer uses
// for its per-reason eviction counters.
func IsVIDKey(k InvalKey) bool { return k&1 == 1 }

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
