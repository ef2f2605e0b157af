package core

import (
	"reflect"
	"testing"

	"provcompress/internal/analysis"
	"provcompress/internal/apps"
	"provcompress/internal/engine"
	"provcompress/internal/topo"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// stateSchemes names every NodeState machine: the three the cluster
// transport (and thus the durability layer) runs, plus the Section 5.4
// inter-class variant, whose ruleExecLink rows the same codec must carry.
var stateSchemes = []string{"exspan", "basic", "advanced", "advanced-ic"}

// stateStore reaches into a NodeState for its backing store, for
// white-box equality checks.
func stateStore(t *testing.T, st NodeState) *store {
	t.Helper()
	switch s := st.(type) {
	case *AdvancedState:
		return s.st
	case *BasicState:
		return s.st
	case *ExSPANState:
		return s.st
	}
	t.Fatalf("unknown NodeState %T", st)
	return nil
}

// driveForwarding pushes events through one NodeState with the same
// frame discipline the cluster runtime uses (internal/cluster/partition.go
// step): insert the tuple at its location's database, Inject if
// fresh, fire the matching rules threading the metadata, Output when no
// rule consumes the relation. One state instance holds every node's rows
// (keyed by Loc), exactly like the simulated maintainers.
func driveForwarding(t *testing.T, st NodeState, events ...types.Tuple) {
	t.Helper()
	prog := apps.Forwarding()
	funcs := apps.Funcs()
	dbs := map[types.NodeAddr]*engine.Database{}
	dbFor := func(loc types.NodeAddr) *engine.Database {
		if dbs[loc] == nil {
			dbs[loc] = engine.NewDatabase()
		}
		return dbs[loc]
	}
	for _, r := range topo.Fig2Routes() {
		dbFor(r.Loc()).Insert(r)
	}
	type frame struct {
		t     types.Tuple
		m     AdvMeta
		fresh bool
	}
	var queue []frame
	for _, ev := range events {
		queue = append(queue, frame{t: ev, fresh: true})
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		loc := f.t.Loc()
		db := dbFor(loc)
		db.Insert(f.t)
		meta := f.m
		if f.fresh {
			meta = st.Inject(f.t)
		}
		rules := prog.RulesForEvent(f.t.Rel)
		if len(rules) == 0 {
			st.Output(f.t, meta)
			continue
		}
		for _, r := range rules {
			firings, err := engine.EvalRule(r, db, f.t, funcs)
			if err != nil {
				t.Fatal(err)
			}
			for _, fr := range firings {
				out := st.FireAt(loc, fr, meta)
				queue = append(queue, frame{t: fr.Head, m: out})
			}
		}
	}
}

// populatedNodeState runs the Figure 2 forwarding example under one
// scheme with packets that share an equivalence class (populating every
// table: ruleExec, prov, and for Advanced htequi and hmap).
func populatedNodeState(t *testing.T, scheme string) NodeState {
	t.Helper()
	keys := analysis.EquivalenceKeys(apps.Forwarding())
	st, err := NewNodeState(scheme, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	driveForwarding(t, st,
		packet("n1", "n1", "n3", "data"),
		packet("n1", "n1", "n3", "url"), // same class: the sharing path
		packet("n2", "n2", "n3", "ack"))
	return st
}

func freshNodeState(t *testing.T, scheme string) NodeState {
	t.Helper()
	st, err := NewNodeState(scheme, analysis.EquivalenceKeys(apps.Forwarding()), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// assertStoresEqual compares two stores: the deterministic measurement
// serialization (ruleExec/links/prov), the auxiliary tables the
// serialization does not cover, and the byte accounting — StorageBytes
// is the paper's headline metric and must survive a crash bit-for-bit.
func assertStoresEqual(t *testing.T, want, got *store) {
	t.Helper()
	if w, g := string(want.serialize()), string(got.serialize()); w != g {
		t.Error("measurement serialization diverged after restore")
	}
	if !reflect.DeepEqual(want.htequi, got.htequi) {
		t.Errorf("htequi diverged: want %v, got %v", want.htequi, got.htequi)
	}
	if !reflect.DeepEqual(want.hmap, got.hmap) {
		t.Error("hmap diverged after restore")
	}
	if !reflect.DeepEqual(want.pending, got.pending) {
		t.Error("pending outputs diverged after restore")
	}
	if want.bytes() != got.bytes() {
		t.Errorf("byte accounting diverged: want %d, got %d", want.bytes(), got.bytes())
	}
}

func persistBytes(st NodeState) []byte {
	e := wire.NewEncoder(1024)
	st.Persist(e)
	return e.Bytes()
}

// TestStatePersistRoundTrip: Persist into a fresh state of the same
// scheme reproduces every table and the accounting, and the restored
// machine answers query-walk Collect calls identically.
func TestStatePersistRoundTrip(t *testing.T) {
	for _, scheme := range stateSchemes {
		t.Run(scheme, func(t *testing.T) {
			st := populatedNodeState(t, scheme)
			if st.StorageBytes() <= 0 {
				t.Fatalf("populated %s state reports %d bytes", scheme, st.StorageBytes())
			}
			if scheme == "advanced-ic" && len(stateStore(t, st).links) == 0 {
				t.Fatal("inter-class state holds no ruleExecLink rows")
			}
			fresh := freshNodeState(t, scheme)
			if err := fresh.Merge(wire.NewDecoder(persistBytes(st))); err != nil {
				t.Fatal(err)
			}
			assertStoresEqual(t, stateStore(t, st), stateStore(t, fresh))

			// The restored machine serves the query walk identically: every
			// stored rule execution collects to the same entry and nexts.
			for rid := range stateStore(t, st).ruleExec {
				row, _ := stateStore(t, st).getRuleExec(rid)
				ref := Ref{Loc: row.Loc, RID: rid}
				wantCE, wantVIDs, wantProvs, wantNexts, wantOK := st.Collect(ref)
				gotCE, gotVIDs, gotProvs, gotNexts, gotOK := fresh.Collect(ref)
				if wantOK != gotOK ||
					!reflect.DeepEqual(wantCE, gotCE) ||
					!reflect.DeepEqual(wantVIDs, gotVIDs) ||
					!reflect.DeepEqual(wantProvs, gotProvs) ||
					!reflect.DeepEqual(wantNexts, gotNexts) {
					t.Fatalf("Collect(%v) diverged after restore", ref)
				}
			}
		})
	}
}

// TestStatePersistRestoreReplaces: Merge into a populated state is a union
// and keeps that state's own rows, so restoring — as restart recovery does —
// swaps in a fresh state of the same scheme and merges into it; the result
// holds the snapshot's tables and accounting and nothing else.
func TestStatePersistRestoreReplaces(t *testing.T) {
	for _, scheme := range stateSchemes {
		t.Run(scheme, func(t *testing.T) {
			src := freshNodeState(t, scheme)
			driveForwarding(t, src, packet("n1", "n1", "n3", "data"))
			buf := persistBytes(src)

			dst := freshNodeState(t, scheme)
			driveForwarding(t, dst, packet("n2", "n2", "n3", "other")) // different rows land first
			if err := dst.Merge(wire.NewDecoder(buf)); err != nil {
				t.Fatal(err)
			}
			if dst.StorageBytes() <= src.StorageBytes() {
				t.Errorf("merge into a populated state dropped its rows: %d bytes, snapshot alone %d",
					dst.StorageBytes(), src.StorageBytes())
			}

			dst = freshNodeState(t, scheme)
			if err := dst.Merge(wire.NewDecoder(buf)); err != nil {
				t.Fatal(err)
			}
			assertStoresEqual(t, stateStore(t, src), stateStore(t, dst))
		})
	}
}

// TestStatePersistTruncatedErrors: every strict prefix of a valid state
// snapshot fails cleanly — the torn-snapshot corpus at the state-machine
// layer.
func TestStatePersistTruncatedErrors(t *testing.T) {
	for _, scheme := range stateSchemes {
		t.Run(scheme, func(t *testing.T) {
			buf := persistBytes(populatedNodeState(t, scheme))
			for cut := 0; cut < len(buf); cut++ {
				if err := freshNodeState(t, scheme).Merge(wire.NewDecoder(buf[:cut])); err == nil {
					t.Fatalf("truncated state snapshot of %d/%d bytes restored without error", cut, len(buf))
				}
			}
			if err := freshNodeState(t, scheme).Merge(wire.NewDecoder(buf)); err != nil {
				t.Fatalf("full snapshot failed: %v", err)
			}
		})
	}
}

// TestStatePersistEmpty: a never-used state round-trips too (a fresh
// boot's checkpoint before any traffic).
func TestStatePersistEmpty(t *testing.T) {
	for _, scheme := range stateSchemes {
		t.Run(scheme, func(t *testing.T) {
			st := freshNodeState(t, scheme)
			fresh := freshNodeState(t, scheme)
			if err := fresh.Merge(wire.NewDecoder(persistBytes(st))); err != nil {
				t.Fatal(err)
			}
			if got := fresh.StorageBytes(); got != 0 {
				t.Errorf("empty state restored to %d bytes", got)
			}
		})
	}
}

// TestStorePersistAllTables populates every store table directly —
// including the links and pending tables the forwarding workload may not
// reach — and round-trips at the store layer.
func TestStorePersistAllTables(t *testing.T) {
	// Inter-class shape: next-hops live in the links table.
	s := newStore(false, true, true)
	s.addRuleExec("n1", id("a"), "r1", []types.ID{id("v1"), id("v2")}, NilRef)
	s.addRuleExec("n2", id("b"), "r2", nil, NilRef)
	s.addLink(id("a"), Ref{Loc: "n3", RID: id("linked")})
	s.addLink(id("a"), NilRef)
	s.addProv(Prov{Loc: "n3", VID: id("out"), Ref: Ref{Loc: "n3", RID: id("a")}, EvID: id("e1")})
	s.addProv(Prov{Loc: "n3", VID: id("out"), Ref: Ref{Loc: "n3", RID: id("a")}, EvID: id("e2")})
	s.seenEquiKey(id("k1"))
	s.seenEquiKey(id("k2"))
	s.addHmapRef(id("class"), "recv", id("e1"), Ref{Loc: "n3", RID: id("chain")})
	s.deferOutput(id("class2"), "recv", pendingOutput{vid: id("o1"), evid: id("e3")})

	e := wire.NewEncoder(1024)
	s.persist(e)
	s2 := newStore(false, true, true)
	if err := s2.merge(wire.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, s, s2)
	if !reflect.DeepEqual(s.links, s2.links) {
		t.Errorf("links diverged: want %v, got %v", s.links, s2.links)
	}
	if got := s2.nexts(id("a")); len(got) != 2 {
		t.Errorf("nexts after restore = %v, want the two links", got)
	}
	if got := s2.provRows(id("out"), id("e1")); len(got) != 1 {
		t.Errorf("filtered prov rows after restore = %v", got)
	}
	if !s2.seenEquiKey(id("k1")) {
		t.Error("equi key forgotten across restore")
	}
	if got := s2.hmapRefs(id("class"), "recv"); len(got) != 1 {
		t.Errorf("hmap refs after restore = %v", got)
	}
	// The parked output is still pending: the next addHmapRef releases it.
	if waiting := s2.addHmapRef(id("class2"), "recv", id("e3"), Ref{Loc: "n1", RID: id("c")}); len(waiting) != 1 {
		t.Errorf("pending output not released after restore: %v", waiting)
	}

	// Chained shape: the row's own Next column survives.
	c := newStore(true, true, false)
	c.addRuleExec("n1", id("a"), "r1", []types.ID{id("v1")}, Ref{Loc: "n0", RID: id("prev")})
	e2 := wire.NewEncoder(256)
	c.persist(e2)
	c2 := newStore(true, true, false)
	if err := c2.merge(wire.NewDecoder(e2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := c2.nexts(id("a")); len(got) != 1 || got[0] != (Ref{Loc: "n0", RID: id("prev")}) {
		t.Errorf("chained nexts after restore = %v", got)
	}
}

// TestMergeCountsNoDeferral: the deferral counter counts outputs the state
// machine parked, not pending outputs a snapshot carried in — merging one
// into a fresh Advanced state installs it and leaves every counter at zero.
func TestMergeCountsNoDeferral(t *testing.T) {
	src := NewAdvancedState([]int{1, 2})
	out := types.NewTuple("recv", types.String("n3"), types.String("n1"), types.String("n3"), types.String("data"))
	src.Output(out, AdvMeta{Eq: id("class"), Exist: true, EvID: id("e1")})
	if got := src.Stats().DeferredOutputs; got != 1 {
		t.Fatalf("an output parked by Output counted %d deferrals, want 1", got)
	}

	dst := NewAdvancedState([]int{1, 2})
	if err := dst.Merge(wire.NewDecoder(persistBytes(src))); err != nil {
		t.Fatal(err)
	}
	if got := dst.Stats(); got != (AdvancedStats{}) {
		t.Errorf("merging a snapshot counted %+v", got)
	}
	assertStoresEqual(t, src.st, dst.st)
}
