package core

import (
	"testing"

	"provcompress/internal/engine"
	"provcompress/internal/ndlog"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// projSrc projects away the event attribute Y, so different events can
// derive the same output tuple — exercising multi-derivation handling.
const projSrc = `
r1 mid(@R, X)  :- ev(@L, X, Y), hop(@L, Y, R).
r2 out(@R, X)  :- mid(@R, X), sink(@R, X).
`

func projRuntime(t *testing.T, maint engine.Maintainer) *engine.Runtime {
	t.Helper()
	prog, err := ndlog.ParseDELP(projSrc)
	if err != nil {
		t.Fatal(err)
	}
	var sched sim.Scheduler
	g := topo.Line(2, "n")
	net := netsim.New(&sched, g)
	rt := engine.NewRuntime(net, prog, nil, maint)
	base := []types.Tuple{
		types.NewTuple("hop", types.String("n0"), types.Int(1), types.String("n1")),
		types.NewTuple("hop", types.String("n0"), types.Int(2), types.String("n1")),
		types.NewTuple("sink", types.String("n1"), types.Int(7)),
	}
	if err := rt.LoadBase(base); err != nil {
		t.Fatal(err)
	}
	return rt
}

func projEvent(y int64) types.Tuple {
	return types.NewTuple("ev", types.String("n0"), types.Int(7), types.Int(y))
}

// TestMultipleDerivationsSameOutput injects two events that differ only in
// the projected-away attribute: both derive out(@n1, 7) through different
// slow tuples, so the output has two stored derivations. Every scheme must
// return both trees for an unfiltered query and exactly one for an
// evid-filtered query.
func TestMultipleDerivationsSameOutput(t *testing.T) {
	ev1, ev2 := projEvent(1), projEvent(2)

	rec := NewRecorder()
	rrec := projRuntime(t, rec)
	injectSpaced(rrec, ev1, ev2)
	rrec.Run()
	checkNoErrors(t, rrec)
	out := types.NewTuple("out", types.String("n1"), types.Int(7))
	if got := rec.TreesFor(types.HashTuple(out), types.ZeroID); len(got) != 2 {
		t.Fatalf("reference trees = %d, want 2", len(got))
	}

	for _, m := range []queryMaintainer{mustScheme(SchemeExSPAN), mustScheme(SchemeBasic), mustScheme(SchemeAdvanced), mustScheme(SchemeAdvancedInterClass)} {
		t.Run(m.Name(), func(t *testing.T) {
			rt := projRuntime(t, m)
			injectSpaced(rt, ev1, ev2)
			rt.Run()
			checkNoErrors(t, rt)
			if rt.NumOutputs() != 2 {
				t.Fatalf("outputs = %d, want 2 (out derived twice)", rt.NumOutputs())
			}

			// Unfiltered query: both derivations.
			res := runQuery(t, rt, m, out, types.ZeroID)
			if len(res.Trees) != 2 {
				t.Fatalf("%s: unfiltered trees = %d, want 2", m.Name(), len(res.Trees))
			}
			for _, want := range rec.TreesFor(types.HashTuple(out), types.ZeroID) {
				found := false
				for _, g := range res.Trees {
					if g.Equal(want) {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: derivation missing:\n%s", m.Name(), want)
				}
			}

			// Filtered by each event: exactly that derivation.
			for _, ev := range []types.Tuple{ev1, ev2} {
				res := runQuery(t, rt, m, out, types.HashTuple(ev))
				if len(res.Trees) != 1 {
					t.Fatalf("%s: filtered trees = %d, want 1", m.Name(), len(res.Trees))
				}
				if !res.Trees[0].EventOf().Equal(ev) {
					t.Errorf("%s: wrong event %v", m.Name(), res.Trees[0].EventOf())
				}
			}
		})
	}
}

// TestProjectionKeysIncludeY pins why the two events above form different
// equivalence classes: Y joins the hop table, so it is a key.
func TestProjectionKeysIncludeY(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := projRuntime(t, a)
	_ = rt
	keys := a.Keys()
	if len(keys) != 3 {
		t.Errorf("keys = %v, want [0 1 2] (X joins sink downstream, Y joins hop)", keys)
	}
}

// TestRegainedReportsSecondPredecessor drives one firing of r2 on mid(@n1,7)
// three times — from a first derivation, from a second one, and from the
// second one again — under every scheme. Only the second call gives a row
// that was already stored another predecessor, and Regained must name that
// row: the tuple's VID under ExSPAN, the execution's RID under Basic and
// Advanced+IC (whose shared node gains a link row), nothing under Advanced
// (its RID folds the predecessor in, so the second derivation is a new
// execution). A third derivation regains again; repeating it with
// existFlag set must report nothing: the Advanced schemes skip such a
// firing, and must not leave the previous answer standing.
func TestRegainedReportsSecondPredecessor(t *testing.T) {
	prog, err := ndlog.ParseDELP(projSrc)
	if err != nil {
		t.Fatal(err)
	}
	mid := types.NewTuple("mid", types.String("n1"), types.Int(7))
	fr := engine.Firing{Rule: prog.Rules[1], Event: mid,
		Slow: []types.Tuple{types.NewTuple("sink", types.String("n1"), types.Int(7))},
		Head: types.NewTuple("out", types.String("n1"), types.Int(7))}
	meta := func(y int64) AdvMeta {
		ev := types.HashTuple(projEvent(y))
		return AdvMeta{EvID: ev, Prev: Ref{Loc: "n0", RID: ev}}
	}
	for scheme, c := range map[string]struct{ vid, rid, links bool }{
		SchemeExSPAN: {vid: true}, SchemeBasic: {rid: true, links: true}, SchemeAdvanced: {},
		SchemeAdvancedInterClass: {rid: true, links: true},
	} {
		st, err := NewNodeState(scheme, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.GainsLinks() != c.links {
			t.Errorf("%s: GainsLinks = %v", scheme, st.GainsLinks())
		}
		st.FireAt("n1", fr, meta(1))
		if got := st.Regained(); !got.IsZero() {
			t.Errorf("%s: first derivation regained %s", scheme, got.Hex())
		}
		var want types.ID
		if rid := st.FireAt("n1", fr, meta(2)).Prev.RID; c.rid {
			want = rid
		} else if c.vid {
			want = types.HashTuple(mid)
		}
		if got := st.Regained(); got != want {
			t.Errorf("%s: second derivation regained %s, want %s", scheme, got.Hex(), want.Hex())
		}
		st.FireAt("n1", fr, meta(2))
		if got := st.Regained(); !got.IsZero() {
			t.Errorf("%s: repeated derivation regained %s", scheme, got.Hex())
		}
		st.FireAt("n1", fr, meta(3))
		m := meta(3)
		m.Exist = true
		st.FireAt("n1", fr, m)
		if got := st.Regained(); !got.IsZero() {
			t.Errorf("%s: existFlag firing after a regain reports %s", scheme, got.Hex())
		}
	}
}

// TestMaintainsSaysWhetherFireAtStores fires r2 on mid(@n1,7) with and
// without existFlag under every scheme and requires Maintains to say
// exactly when the firing changed the persisted state: a durable node logs
// an intermediate event by that answer, so a firing it says stores nothing
// must leave nothing a replay would rebuild.
func TestMaintainsSaysWhetherFireAtStores(t *testing.T) {
	prog, err := ndlog.ParseDELP(projSrc)
	if err != nil {
		t.Fatal(err)
	}
	mid := types.NewTuple("mid", types.String("n1"), types.Int(7))
	fr := engine.Firing{Rule: prog.Rules[1], Event: mid,
		Slow: []types.Tuple{types.NewTuple("sink", types.String("n1"), types.Int(7))},
		Head: types.NewTuple("out", types.String("n1"), types.Int(7))}
	persisted := func(st NodeState) string {
		e := wire.NewEncoder(256)
		st.Persist(e)
		return string(e.Bytes())
	}
	for _, scheme := range AllSchemeNames() {
		for _, exist := range []bool{false, true} {
			st, err := NewNodeState(scheme, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ev := types.HashTuple(projEvent(1))
			m := AdvMeta{Eq: ev, Exist: exist, EvID: ev, Prev: Ref{Loc: "n0", RID: ev}}
			before := persisted(st)
			st.FireAt("n1", fr, m)
			if stored := persisted(st) != before; stored != st.Maintains(m) {
				t.Errorf("%s, existFlag %v: FireAt stored %v, Maintains says %v", scheme, exist, stored, st.Maintains(m))
			}
		}
	}
}
