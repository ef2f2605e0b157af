package core

import (
	"strings"
	"testing"

	"provcompress/internal/types"
)

// TestTable1ExspanTables reproduces Table 1: the prov and ruleExec rows
// ExSPAN maintains for the provenance tree of Figure 3 after
// packet(@n1, n1, n3, "data") traverses n1 -> n2 -> n3.
func TestTable1ExspanTables(t *testing.T) {
	e := mustScheme(SchemeExSPAN)
	rt := fig2Runtime(t, e)
	ev := packet("n1", "n1", "n3", "data")
	rt.Inject(ev)
	rt.Run()
	checkNoErrors(t, rt)

	if rt.NumOutputs() != 1 {
		t.Fatalf("outputs = %d, want 1", rt.NumOutputs())
	}
	out := rt.Outputs()[0].Tuple
	if !out.Equal(recvTuple("n3", "n1", "n3", "data")) {
		t.Fatalf("output = %v", out)
	}

	// VIDs of the paper's table.
	vid1 := types.HashTuple(routeTuple("n1", "n3", "n2"))
	vid2 := types.HashTuple(packet("n1", "n1", "n3", "data"))
	vid3 := types.HashTuple(routeTuple("n2", "n3", "n3"))
	vid4 := types.HashTuple(packet("n2", "n1", "n3", "data"))
	vid5 := types.HashTuple(packet("n3", "n1", "n3", "data"))
	vid6 := types.HashTuple(out)

	// RIDs per the table's hash recipe: sha1(rule + loc + vids).
	rid1 := types.RuleExecID("r1", "n1", []types.ID{vid1, vid2})
	rid2 := types.RuleExecID("r1", "n2", []types.ID{vid3, vid4})
	rid3 := types.RuleExecID("r2", "n3", []types.ID{vid5})

	// ruleExec rows: one per node, matching Table 1.
	wantExec := []struct {
		loc  types.NodeAddr
		rid  types.ID
		rule string
		vids []types.ID
	}{
		{"n1", rid1, "r1", []types.ID{vid1, vid2}},
		{"n2", rid2, "r1", []types.ID{vid3, vid4}},
		{"n3", rid3, "r2", []types.ID{vid5}},
	}
	for _, w := range wantExec {
		rows := e.RuleExecRows(w.loc)
		if len(rows) != 1 {
			t.Fatalf("%s: ruleExec rows = %d, want 1", w.loc, len(rows))
		}
		got := rows[0]
		if got.RID != w.rid || got.Rule != w.rule {
			t.Errorf("%s: ruleExec = (%s, %s), want (%s, %s)", w.loc, got.RID, got.Rule, w.rid, w.rule)
		}
		if len(got.VIDs) != len(w.vids) {
			t.Fatalf("%s: vids = %v, want %v", w.loc, got.VIDs, w.vids)
		}
		for i := range w.vids {
			if got.VIDs[i] != w.vids[i] {
				t.Errorf("%s: vid[%d] = %s, want %s", w.loc, i, got.VIDs[i], w.vids[i])
			}
		}
		if !got.Next.IsNil() {
			t.Errorf("%s: ExSPAN rows have no NLoc/NRID, got %v", w.loc, got.Next)
		}
	}

	// prov rows, matching Table 1: (loc, vid) -> (rid, rloc).
	wantProv := map[types.ID]Prov{
		vid6: {Loc: "n3", VID: vid6, Ref: Ref{"n3", rid3}},
		vid5: {Loc: "n3", VID: vid5, Ref: Ref{"n2", rid2}},
		vid4: {Loc: "n2", VID: vid4, Ref: Ref{"n1", rid1}},
		vid3: {Loc: "n2", VID: vid3, Ref: NilRef},
		vid2: {Loc: "n1", VID: vid2, Ref: NilRef},
		vid1: {Loc: "n1", VID: vid1, Ref: NilRef},
	}
	var total int
	for _, loc := range []types.NodeAddr{"n1", "n2", "n3"} {
		for _, p := range e.ProvRows(loc) {
			w, ok := wantProv[p.VID]
			if !ok {
				t.Errorf("unexpected prov row %+v", p)
				continue
			}
			if p != w {
				t.Errorf("prov row = %+v, want %+v", p, w)
			}
			total++
		}
	}
	if total != len(wantProv) {
		t.Errorf("prov rows = %d, want %d", total, len(wantProv))
	}
	if e.TotalStorageBytes() <= 0 {
		t.Error("storage accounting is zero")
	}
}

// TestTable2BasicTables reproduces Table 2: the optimized tables after the
// same single-packet run. RIDs are identical to Table 1's; the prov table
// holds only the output row; NLoc/NRID link the chain; intermediate event
// VIDs are dropped except at the leaf.
func TestTable2BasicTables(t *testing.T) {
	b := mustScheme(SchemeBasic)
	rt := fig2Runtime(t, b)
	rt.Inject(packet("n1", "n1", "n3", "data"))
	rt.Run()
	checkNoErrors(t, rt)

	vid1 := types.HashTuple(routeTuple("n1", "n3", "n2"))
	vid2 := types.HashTuple(packet("n1", "n1", "n3", "data"))
	vid3 := types.HashTuple(routeTuple("n2", "n3", "n3"))
	vid4 := types.HashTuple(packet("n2", "n1", "n3", "data"))
	vid5 := types.HashTuple(packet("n3", "n1", "n3", "data"))
	vid6 := types.HashTuple(recvTuple("n3", "n1", "n3", "data"))
	rid1 := types.RuleExecID("r1", "n1", []types.ID{vid1, vid2})
	rid2 := types.RuleExecID("r1", "n2", []types.ID{vid3, vid4})
	rid3 := types.RuleExecID("r2", "n3", []types.ID{vid5})

	wantExec := []struct {
		loc  types.NodeAddr
		rid  types.ID
		rule string
		vids []types.ID
		next Ref
	}{
		{"n3", rid3, "r2", nil, Ref{"n2", rid2}},
		{"n2", rid2, "r1", []types.ID{vid3}, Ref{"n1", rid1}},
		{"n1", rid1, "r1", []types.ID{vid1, vid2}, NilRef},
	}
	for _, w := range wantExec {
		rows := b.RuleExecRows(w.loc)
		if len(rows) != 1 {
			t.Fatalf("%s: ruleExec rows = %d, want 1", w.loc, len(rows))
		}
		got := rows[0]
		if got.RID != w.rid || got.Rule != w.rule || got.Next != w.next {
			t.Errorf("%s: row = %+v, want rid=%s rule=%s next=%v", w.loc, got, w.rid, w.rule, w.next)
		}
		if len(got.VIDs) != len(w.vids) {
			t.Fatalf("%s: vids = %v, want %v", w.loc, got.VIDs, w.vids)
		}
		for i := range w.vids {
			if got.VIDs[i] != w.vids[i] {
				t.Errorf("%s: vid[%d] mismatch", w.loc, i)
			}
		}
	}

	// Only the output's prov row exists.
	if n := len(b.ProvRows("n1")) + len(b.ProvRows("n2")); n != 0 {
		t.Errorf("intermediate prov rows = %d, want 0", n)
	}
	rows := b.ProvRows("n3")
	if len(rows) != 1 {
		t.Fatalf("n3 prov rows = %d, want 1", len(rows))
	}
	if rows[0].VID != vid6 || rows[0].Ref != (Ref{"n3", rid3}) {
		t.Errorf("prov row = %+v", rows[0])
	}

	// Basic must store strictly less than ExSPAN for the same run.
	e := mustScheme(SchemeExSPAN)
	rte := fig2Runtime(t, e)
	rte.Inject(packet("n1", "n1", "n3", "data"))
	rte.Run()
	if b.TotalStorageBytes() >= e.TotalStorageBytes() {
		t.Errorf("Basic storage %d >= ExSPAN storage %d", b.TotalStorageBytes(), e.TotalStorageBytes())
	}
}

// TestTable3AdvancedTables reproduces Table 3: after packet "data" followed
// by packet "url" (same equivalence keys), only one shared chain of three
// rule-execution nodes exists, and the prov table holds two rows pointing
// at the same chain with distinct EVIDs.
func TestTable3AdvancedTables(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := fig2Runtime(t, a)
	evData := packet("n1", "n1", "n3", "data")
	evURL := packet("n1", "n1", "n3", "url")
	injectSpaced(rt, evData, evURL)
	rt.Run()
	checkNoErrors(t, rt)

	if rt.NumOutputs() != 2 {
		t.Fatalf("outputs = %d, want 2", rt.NumOutputs())
	}

	// Exactly one rule-execution node per hop; the second packet added none.
	vid1 := types.HashTuple(routeTuple("n2", "n3", "n3")) // Table 3's vid1
	vid2 := types.HashTuple(routeTuple("n1", "n3", "n2")) // Table 3's vid2
	for _, w := range []struct {
		loc  types.NodeAddr
		rule string
		vids []types.ID
	}{
		{"n3", "r2", nil},
		{"n2", "r1", []types.ID{vid1}},
		{"n1", "r1", []types.ID{vid2}},
	} {
		rows := a.RuleExecRows(w.loc)
		if len(rows) != 1 {
			t.Fatalf("%s: ruleExec rows = %d, want 1 (shared chain)", w.loc, len(rows))
		}
		got := rows[0]
		if got.Rule != w.rule {
			t.Errorf("%s: rule = %s, want %s", w.loc, got.Rule, w.rule)
		}
		if len(got.VIDs) != len(w.vids) {
			t.Fatalf("%s: vids = %v, want %v (slow-changing only)", w.loc, got.VIDs, w.vids)
		}
		for i := range w.vids {
			if got.VIDs[i] != w.vids[i] {
				t.Errorf("%s: vid[%d] mismatch", w.loc, i)
			}
		}
	}

	// Chain links: n3 -> n2 -> n1 -> NULL.
	n3row := a.RuleExecRows("n3")[0]
	n2row := a.RuleExecRows("n2")[0]
	n1row := a.RuleExecRows("n1")[0]
	if n3row.Next != (Ref{"n2", n2row.RID}) {
		t.Errorf("n3 next = %v, want -> n2", n3row.Next)
	}
	if n2row.Next != (Ref{"n1", n1row.RID}) {
		t.Errorf("n2 next = %v, want -> n1", n2row.Next)
	}
	if !n1row.Next.IsNil() {
		t.Errorf("n1 next = %v, want NULL", n1row.Next)
	}

	// prov rows: two outputs sharing the chain head, distinct EVIDs.
	rows := a.ProvRows("n3")
	if len(rows) != 2 {
		t.Fatalf("n3 prov rows = %d, want 2", len(rows))
	}
	sharedRef := Ref{"n3", n3row.RID}
	evids := map[types.ID]bool{}
	for _, p := range rows {
		if p.Ref != sharedRef {
			t.Errorf("prov ref = %v, want shared %v", p.Ref, sharedRef)
		}
		evids[p.EvID] = true
	}
	if !evids[types.HashTuple(evData)] || !evids[types.HashTuple(evURL)] {
		t.Errorf("EVIDs = %v, want hashes of both input events", evids)
	}

	// Stage 1 state: one equivalence class seen at the origin.
	if st := a.states["n1"].tables(); len(st.htequi) != 1 {
		t.Errorf("htequi size = %d, want 1", len(st.htequi))
	}
	// Stage 3 state: the shared-chain reference installed at the output node.
	refs := a.states["n3"].tables().hmapRefs(hashKeys(a, evData), "recv")
	if len(refs) != 1 || refs[0] != sharedRef {
		t.Errorf("hmap = %v; want [%v]", refs, sharedRef)
	}
}

// TestDumpTables renders the Table 3 scenario and checks the paper-style
// layout.
func TestDumpTables(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := fig2Runtime(t, a)
	injectSpaced(rt, packet("n1", "n1", "n3", "data"), packet("n1", "n1", "n3", "url"))
	rt.Run()

	dump := DumpTables(a, []types.NodeAddr{"n1", "n2", "n3"})
	for _, want := range []string{
		"ruleExec", "prov", "RLoc", "NRID", "EVID",
		"r1", "r2", "NULL",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	// Three ruleExec rows, two prov rows.
	if got := strings.Count(dump, "\nn1 ") + strings.Count(dump, "\nn2 ") + strings.Count(dump, "\nn3 "); got != 5 {
		t.Errorf("rows = %d, want 5:\n%s", got, dump)
	}
	// Deterministic.
	if dump != DumpTables(a, []types.NodeAddr{"n3", "n2", "n1"}) {
		t.Error("dump depends on node order")
	}
}

// hashKeys computes the equivalence-key hash of an event the way the
// Advanced maintainer does.
func hashKeys(a *SimMaintainer, ev types.Tuple) types.ID {
	keys := a.Keys()
	vals := make([]types.Value, len(keys))
	for i, k := range keys {
		vals[i] = ev.Args[k]
	}
	return types.HashValues(vals)
}

// TestTable4InterClassSharing reproduces Table 4: with the ruleExecNode /
// ruleExecLink split, the tree of packet(@n2, n2, n3, "ack") — a different
// equivalence class — shares the rule-execution nodes of the data packet's
// tree at n2 and n3, adding only link rows.
func TestTable4InterClassSharing(t *testing.T) {
	a := mustScheme(SchemeAdvancedInterClass)
	rt := fig2Runtime(t, a)
	evData := packet("n1", "n1", "n3", "data")
	evAck := packet("n2", "n2", "n3", "ack")
	injectSpaced(rt, evData, evAck)
	rt.Run()
	checkNoErrors(t, rt)

	if rt.NumOutputs() != 2 {
		t.Fatalf("outputs = %d, want 2", rt.NumOutputs())
	}

	// Shared nodes: one per location despite two classes.
	for _, loc := range []types.NodeAddr{"n1", "n2", "n3"} {
		if n := len(a.RuleExecRows(loc)); n != 1 {
			t.Errorf("%s: ruleExecNode rows = %d, want 1 (shared across classes)", loc, n)
		}
	}

	// Links at n2: the r1 node is both an interior node (-> n1) for the
	// data tree and a leaf (NULL) for the ack tree.
	n2rid := a.RuleExecRows("n2")[0].RID
	nexts := a.states["n2"].tables().nexts(n2rid)
	if len(nexts) != 2 {
		t.Fatalf("n2 links = %v, want 2 (interior + leaf)", nexts)
	}
	var sawNil, sawN1 bool
	for _, nx := range nexts {
		if nx.IsNil() {
			sawNil = true
		} else if nx.Loc == "n1" {
			sawN1 = true
		}
	}
	if !sawNil || !sawN1 {
		t.Errorf("n2 links = %v, want one NULL and one -> n1", nexts)
	}

	// Queries disambiguate via validation (Theorem 5 set semantics): the ack
	// query returns exactly the 2-rule derivation, the data query the 3-rule
	// one.
	resAck := runQuery(t, rt, a, recvTuple("n3", "n2", "n3", "ack"), types.HashTuple(evAck))
	if len(resAck.Trees) != 1 {
		t.Fatalf("ack query trees = %d, want 1\n%v", len(resAck.Trees), resAck.Trees)
	}
	if d := resAck.Trees[0].Depth(); d != 2 {
		t.Errorf("ack tree depth = %d, want 2\n%s", d, resAck.Trees[0])
	}
	if !resAck.Trees[0].EventOf().Equal(evAck) {
		t.Errorf("ack tree event = %v", resAck.Trees[0].EventOf())
	}

	resData := runQuery(t, rt, a, recvTuple("n3", "n1", "n3", "data"), types.HashTuple(evData))
	if len(resData.Trees) != 1 {
		t.Fatalf("data query trees = %d, want 1", len(resData.Trees))
	}
	if d := resData.Trees[0].Depth(); d != 3 {
		t.Errorf("data tree depth = %d, want 3\n%s", d, resData.Trees[0])
	}

	// Inter-class storage is at most the chained scheme's for this workload.
	chained := mustScheme(SchemeAdvanced)
	rtc := fig2Runtime(t, chained)
	injectSpaced(rtc, evData, evAck)
	rtc.Run()
	if a.TotalStorageBytes() >= chained.TotalStorageBytes() {
		t.Errorf("inter-class storage %d >= chained %d", a.TotalStorageBytes(), chained.TotalStorageBytes())
	}
}
