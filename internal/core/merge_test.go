package core

import (
	"testing"

	"provcompress/internal/wire"
)

// TestStateMergeIntoFresh: merging a snapshot into a never-used state is
// equivalent to restoring it — same tables, same byte accounting.
func TestStateMergeIntoFresh(t *testing.T) {
	for _, scheme := range stateSchemes {
		t.Run(scheme, func(t *testing.T) {
			src := populatedNodeState(t, scheme)
			dst := freshNodeState(t, scheme)
			if err := dst.Merge(wire.NewDecoder(persistBytes(src))); err != nil {
				t.Fatal(err)
			}
			assertStoresEqual(t, stateStore(t, src), stateStore(t, dst))
		})
	}
}

// TestStateMergeIdempotent: merging the same snapshot twice changes
// nothing the second time — replication may deliver a handoff or repair
// payload more than once.
func TestStateMergeIdempotent(t *testing.T) {
	for _, scheme := range stateSchemes {
		t.Run(scheme, func(t *testing.T) {
			src := populatedNodeState(t, scheme)
			buf := persistBytes(src)
			dst := freshNodeState(t, scheme)
			if err := dst.Merge(wire.NewDecoder(buf)); err != nil {
				t.Fatal(err)
			}
			before := dst.StorageBytes()
			if err := dst.Merge(wire.NewDecoder(buf)); err != nil {
				t.Fatal(err)
			}
			if got := dst.StorageBytes(); got != before {
				t.Fatalf("second merge changed accounting: %d -> %d", before, got)
			}
			assertStoresEqual(t, stateStore(t, src), stateStore(t, dst))
		})
	}
}

// TestStateMergeUnion: a state that already holds a subset of the
// snapshot's rows (e.g. delivered by replication while the handoff was in
// flight) merges to exactly the superset state, including byte
// accounting — the reorder-tolerance the handoff install depends on.
func TestStateMergeUnion(t *testing.T) {
	// Two packets in different equivalence classes so the subset state's
	// advanced-scheme hmap entries match the superset's for the shared
	// class.
	a := packet("n1", "n1", "n3", "data")
	b := packet("n2", "n2", "n3", "ack")
	for _, scheme := range stateSchemes {
		t.Run(scheme, func(t *testing.T) {
			// One event at a time: a ruleExecLink list keeps arrival order,
			// and the comparison below is order-sensitive.
			full := freshNodeState(t, scheme)
			driveForwarding(t, full, a)
			driveForwarding(t, full, b)

			partial := freshNodeState(t, scheme)
			driveForwarding(t, partial, a) // subset arrives first
			if err := partial.Merge(wire.NewDecoder(persistBytes(full))); err != nil {
				t.Fatal(err)
			}
			assertStoresEqual(t, stateStore(t, full), stateStore(t, partial))
		})
	}
}

// TestStateMergeTruncatedErrors: every strict prefix of a snapshot fails
// cleanly when merged.
func TestStateMergeTruncatedErrors(t *testing.T) {
	scheme := "advanced"
	buf := persistBytes(populatedNodeState(t, scheme))
	for cut := 0; cut < len(buf); cut++ {
		if err := freshNodeState(t, scheme).Merge(wire.NewDecoder(buf[:cut])); err == nil {
			t.Fatalf("truncated snapshot of %d/%d bytes merged without error", cut, len(buf))
		}
	}
}

// TestStoreMergeKeepsNewerEpoch: when both sides hold an hmap entry for
// the same class, the live (receiver) entry wins — a snapshot taken
// before a sig reset must not clobber the newer epoch's references.
func TestStoreMergeKeepsNewerEpoch(t *testing.T) {
	donor := newStore(false, true, false)
	donor.addHmapRef(id("class"), "recv", id("old-epoch"), Ref{Loc: "n1", RID: id("stale")})
	e := wire.NewEncoder(256)
	donor.persist(e)

	live := newStore(false, true, false)
	live.addHmapRef(id("class"), "recv", id("new-epoch"), Ref{Loc: "n2", RID: id("fresh")})
	if err := live.merge(wire.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	entry := live.hmap[hmapKey{eq: id("class"), rel: "recv"}]
	if entry == nil || entry.evid != id("new-epoch") {
		t.Fatalf("live epoch clobbered by merge: %+v", entry)
	}
	if len(entry.refs) != 1 || entry.refs[0] != (Ref{Loc: "n2", RID: id("fresh")}) {
		t.Fatalf("live refs clobbered by merge: %v", entry.refs)
	}
}
