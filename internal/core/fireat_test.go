package core

import (
	"fmt"
	"reflect"
	"testing"

	"provcompress/internal/apps"
	"provcompress/internal/engine"
	"provcompress/internal/raceflag"
	"provcompress/internal/types"
)

// forwardFirings evaluates Forwarding's r1 for n distinct packets at n1,
// each joining the one route n1 holds: the firings a hop's FireAt sees.
func forwardFirings(t *testing.T, n int) []engine.Firing {
	t.Helper()
	r1 := apps.Forwarding().Rule("r1")
	db := engine.NewDatabase()
	db.Insert(routeTuple("n1", "n3", "n2"))
	out := make([]engine.Firing, 0, n)
	for i := 0; i < n; i++ {
		fs, err := engine.EvalRule(r1, db, packet("n1", "n1", "n3", fmt.Sprintf("p%d", i)), nil)
		if err != nil || len(fs) != 1 {
			t.Fatalf("r1 gave %d firings, err %v; want 1", len(fs), err)
		}
		out = append(out, fs...)
	}
	return out
}

// TestFireAtAllocs holds each scheme's maintenance of an existFlag=false
// firing that stores a row to at most one allocation, amortized: the slow
// VIDs are hashed into a stack array, the RID is computed without a
// hasher, and a ruleExec row and its VIDs land in the store's slabs. (The
// one left is a new key's row list: ExSPAN's prov row for the event
// tuple, the inter-class link row.) Each firing chains to a predecessor of
// its own, as the first execution of a fresh class does, so every scheme
// stores a row for every firing: a ruleExec row, or under the inter-class
// split, whose location-free RID the shared route collapses, a link row.
func TestFireAtAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const warm, runs = 100, 1000
	firings := forwardFirings(t, warm+runs+1)
	prevs := make([]Ref, len(firings))
	for i := range prevs {
		prevs[i] = Ref{Loc: "n0", RID: types.HashBytes([]byte(fmt.Sprint(i)))}
	}
	for _, scheme := range stateSchemes {
		st := freshNodeState(t, scheme)
		next, stored := 0, 0
		fire := func() {
			before := st.StorageBytes()
			st.FireAt("n1", firings[next], AdvMeta{Prev: prevs[next]})
			if st.StorageBytes() > before {
				stored++
			}
			next++
		}
		for i := 0; i < warm; i++ {
			fire()
		}
		got := testing.AllocsPerRun(runs, fire)
		if stored != next {
			t.Fatalf("%s: %d of %d firings stored a row", scheme, stored, next)
		}
		t.Logf("%s: %.0f allocs per firing", scheme, got)
		if got > 1 {
			t.Errorf("%s: FireAt allocates %.0f times per firing, budget 1", scheme, got)
		}
	}
}

// TestFireAtDoesNotRetainSlow: a shard worker hands FireAt firings whose
// Slow lists are carved from a slab it reuses for the next rule, so no
// scheme may keep f.Slow, or the VID list it hashes from it, past the
// call. Overwriting the firing's slow tuples — and then firing another
// execution through the same list — leaves the stored rows, the storage
// accounting and the query walk's view of the first execution unchanged.
func TestFireAtDoesNotRetainSlow(t *testing.T) {
	for _, scheme := range stateSchemes {
		st := freshNodeState(t, scheme)
		f := forwardFirings(t, 1)[0]
		m := st.FireAt("n1", f, AdvMeta{Prev: NilRef})
		ref := m.Prev
		wantRows := stateStore(t, st).serialize()
		wantBytes := st.StorageBytes()
		wantCE, wantVIDs, wantProvs, wantNexts, ok := st.Collect(ref)
		if !ok || len(wantVIDs) == 0 {
			t.Fatalf("%s: Collect(%v) = %v, %v vids: the firing stored no row", scheme, ref, ok, len(wantVIDs))
		}

		f.Slow[0] = routeTuple("n1", "n9", "n4")
		if got := stateStore(t, st).serialize(); string(got) != string(wantRows) || st.StorageBytes() != wantBytes {
			t.Fatalf("%s: overwriting f.Slow changed the stored rows", scheme)
		}
		f.Event = packet("n1", "n1", "n9", "other")
		st.FireAt("n1", f, AdvMeta{Prev: Ref{Loc: "n0", RID: types.HashBytes([]byte("other"))}})
		gotCE, gotVIDs, gotProvs, gotNexts, ok := st.Collect(ref)
		if !ok ||
			!reflect.DeepEqual(wantCE, gotCE) ||
			!reflect.DeepEqual(wantVIDs, gotVIDs) ||
			!reflect.DeepEqual(wantProvs, gotProvs) ||
			!reflect.DeepEqual(wantNexts, gotNexts) {
			t.Fatalf("%s: Collect(%v) changed after the firing's slow list was reused:\nwant %v %v\ngot  %v %v",
				scheme, ref, wantCE, wantVIDs, gotCE, gotVIDs)
		}
	}
}
