package engine

import (
	"fmt"
	"strings"
	"testing"

	"provcompress/internal/apps"
	"provcompress/internal/ndlog"
	"provcompress/internal/raceflag"
	"provcompress/internal/types"
)

func pktT(loc, src, dst, dt string) types.Tuple {
	return types.NewTuple("packet",
		types.String(loc), types.String(src), types.String(dst), types.String(dt))
}

func TestEvalRuleForwardingR1(t *testing.T) {
	prog := apps.Forwarding()
	r1 := prog.Rule("r1")
	db := NewDatabase()
	db.Insert(rt3("n1", "n3", "n2"))
	db.Insert(rt3("n1", "n5", "n4"))

	firings, err := EvalRule(r1, db, pktT("n1", "n1", "n3", "data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(firings) != 1 {
		t.Fatalf("firings = %d, want 1 (only the n3 route matches)", len(firings))
	}
	f := firings[0]
	if !f.Head.Equal(pktT("n2", "n1", "n3", "data")) {
		t.Errorf("head = %v", f.Head)
	}
	if len(f.Slow) != 1 || !f.Slow[0].Equal(rt3("n1", "n3", "n2")) {
		t.Errorf("slow = %v", f.Slow)
	}
	if !strings.Contains(f.String(), "r1") {
		t.Errorf("firing string = %q", f.String())
	}
}

func TestEvalRuleForwardingR2Constraint(t *testing.T) {
	prog := apps.Forwarding()
	r2 := prog.Rule("r2")
	db := NewDatabase()

	// D == L holds: fires.
	firings, err := EvalRule(r2, db, pktT("n3", "n1", "n3", "data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(firings) != 1 {
		t.Fatalf("firings = %d, want 1", len(firings))
	}
	if firings[0].Head.Rel != "recv" {
		t.Errorf("head = %v", firings[0].Head)
	}

	// D != L: does not fire.
	firings, err = EvalRule(r2, db, pktT("n2", "n1", "n3", "data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(firings) != 0 {
		t.Errorf("firings = %d, want 0", len(firings))
	}
}

func TestEvalRuleWrongEventRelation(t *testing.T) {
	prog := apps.Forwarding()
	firings, err := EvalRule(prog.Rule("r1"), NewDatabase(), rt3("n1", "n3", "n2"), nil)
	if err != nil || len(firings) != 0 {
		t.Errorf("firings = %v, err = %v", firings, err)
	}
}

func TestEvalRuleMultipleJoins(t *testing.T) {
	// A rule joining two slow relations, with a shared variable.
	prog := ndlog.MustParse(`
r1 out(@L, X, Y, Z) :- e(@L, X), a(@L, X, Y), b(@L, Y, Z).
`)
	db := NewDatabase()
	db.Insert(types.NewTuple("a", types.String("n"), types.Int(1), types.Int(10)))
	db.Insert(types.NewTuple("a", types.String("n"), types.Int(1), types.Int(20)))
	db.Insert(types.NewTuple("a", types.String("n"), types.Int(2), types.Int(30)))
	db.Insert(types.NewTuple("b", types.String("n"), types.Int(10), types.Int(100)))
	db.Insert(types.NewTuple("b", types.String("n"), types.Int(20), types.Int(200)))

	ev := types.NewTuple("e", types.String("n"), types.Int(1))
	firings, err := EvalRule(prog.Rule("r1"), db, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	// X=1 joins a-rows (1,10),(1,20); b joins on Y: 10->100, 20->200.
	if len(firings) != 2 {
		t.Fatalf("firings = %d, want 2", len(firings))
	}
	for _, f := range firings {
		if len(f.Slow) != 2 {
			t.Errorf("slow tuples = %d, want 2", len(f.Slow))
		}
	}
}

func TestEvalRuleSelfJoinVariableConsistency(t *testing.T) {
	// The same variable appearing twice in the event atom must unify.
	prog := ndlog.MustParse(`r1 out(@L, X) :- e(@L, X, X).`)
	db := NewDatabase()
	ok1, err := EvalRule(prog.Rule("r1"), db,
		types.NewTuple("e", types.String("n"), types.Int(3), types.Int(3)), nil)
	if err != nil || len(ok1) != 1 {
		t.Errorf("equal args: firings = %v, err = %v", ok1, err)
	}
	ok2, err := EvalRule(prog.Rule("r1"), db,
		types.NewTuple("e", types.String("n"), types.Int(3), types.Int(4)), nil)
	if err != nil || len(ok2) != 0 {
		t.Errorf("unequal args: firings = %v, err = %v", ok2, err)
	}
}

func TestEvalRuleAssignmentsAndUDF(t *testing.T) {
	prog := ndlog.MustParse(`r1 out(@L, N, B) :- e(@L, X), N := X * 2 + 1, B := f_even(N), N > 0.`)
	funcs := ndlog.FuncMap{
		"f_even": func(args []types.Value) (types.Value, error) {
			return types.Bool(args[0].AsInt()%2 == 0), nil
		},
	}
	db := NewDatabase()
	ev := types.NewTuple("e", types.String("n"), types.Int(5))
	firings, err := EvalRule(prog.Rule("r1"), db, ev, funcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(firings) != 1 {
		t.Fatalf("firings = %d", len(firings))
	}
	h := firings[0].Head
	if h.Args[1].AsInt() != 11 || h.Args[2].AsBool() != false {
		t.Errorf("head = %v, want N=11, B=false", h)
	}
}

func TestEvalRuleErrors(t *testing.T) {
	db := NewDatabase()
	ev := types.NewTuple("e", types.String("n"), types.String("notanint"))

	// Arithmetic on a string.
	prog := ndlog.MustParse(`r1 out(@L, N) :- e(@L, X), N := X * 2.`)
	if _, err := EvalRule(prog.Rule("r1"), db, ev, nil); err == nil {
		t.Error("arithmetic on string accepted")
	}

	// Unknown function.
	prog = ndlog.MustParse(`r1 out(@L, N) :- e(@L, X), N := f_missing(X).`)
	if _, err := EvalRule(prog.Rule("r1"), db, ev, nil); err == nil {
		t.Error("unknown function accepted")
	}

	// Division by zero.
	prog = ndlog.MustParse(`r1 out(@L, N) :- e(@L, X), N := 1 / 0.`)
	if _, err := EvalRule(prog.Rule("r1"), db, ev, nil); err == nil {
		t.Error("division by zero accepted")
	}

	// Ordered comparison across kinds.
	prog = ndlog.MustParse(`r1 out(@L, X) :- e(@L, X), X < 3.`)
	if _, err := EvalRule(prog.Rule("r1"), db, ev, nil); err == nil {
		t.Error("cross-kind ordered comparison accepted")
	}
}

// frameOf lays a name→value binding out as a compile scope and the frame
// it describes, so single expressions can be compiled and evaluated
// outside a rule.
func frameOf(b map[string]types.Value) (map[string]int, []types.Value) {
	slots := make(map[string]int, len(b))
	frame := make([]types.Value, 0, len(b))
	for name, v := range b {
		slots[name] = len(frame)
		frame = append(frame, v)
	}
	return slots, frame
}

func TestEvalExprStringConcat(t *testing.T) {
	slots, frame := frameOf(map[string]types.Value{"A": types.String("foo"), "B": types.String("bar")})
	e := compileExpr(ndlog.BinExpr{Op: ndlog.OpAdd, L: ndlog.VarExpr{Name: "A"}, R: ndlog.VarExpr{Name: "B"}}, slots)
	v, err := e.eval(frame, nil)
	if err != nil || v.AsString() != "foobar" {
		t.Errorf("concat = %v, %v", v, err)
	}
}

func TestEvalConstraintOperators(t *testing.T) {
	slots, frame := frameOf(map[string]types.Value{"X": types.Int(3), "Y": types.Int(5), "S": types.String("abc")})
	cases := []struct {
		src  string
		want bool
	}{
		{`X == 3`, true}, {`X != 3`, false}, {`X < Y`, true}, {`X <= 3`, true},
		{`Y > 9`, false}, {`Y >= 5`, true}, {`S == "abc"`, true}, {`S != "abc"`, false},
	}
	for _, tc := range cases {
		prog := ndlog.MustParse(fmt.Sprintf(`r1 out(@L, X, Y, S) :- e(@L, X, Y, S), %s.`, tc.src))
		c := prog.Rules[0].Constraints[0]
		cc := constraint{op: c.Op, l: compileExpr(c.L, slots), r: compileExpr(c.R, slots)}
		got, err := cc.eval(frame, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got != tc.want {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestEvalArithOperators(t *testing.T) {
	slots, frame := frameOf(map[string]types.Value{"X": types.Int(7), "Y": types.Int(2)})
	cases := []struct {
		src  string
		want int64
	}{
		{"X + Y", 9}, {"X - Y", 5}, {"X * Y", 14}, {"X / Y", 3}, {"X % Y", 1},
	}
	for _, tc := range cases {
		prog := ndlog.MustParse(fmt.Sprintf(`r1 out(@L, N) :- e(@L, X, Y), N := %s.`, tc.src))
		e := compileExpr(prog.Rules[0].Assigns[0].Expr, slots)
		got, err := e.eval(frame, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got.AsInt() != tc.want {
			t.Errorf("%s = %v, want %d", tc.src, got, tc.want)
		}
	}
}

func TestEvalExprUnbound(t *testing.T) {
	e := compileExpr(ndlog.VarExpr{Name: "Z"}, nil)
	if _, err := e.eval(nil, nil); err == nil {
		t.Error("unbound variable accepted")
	}
}

// TestEvalAllocs pins the evaluator's allocation budget on a Forwarding and
// a BGP arrival: a rule that does not fire allocates nothing (no probe
// hit, a failed constraint, or an event the atom rejects), and one that
// fires allocates at most three times per firing through Eval — the
// returned slice, the Slow slab and the head's Args — and once per firing
// through EvalAppend on warm reused buffers, the head's Args alone.
func TestEvalAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := types.String
	db := NewDatabase()
	db.Insert(rt3("n1", "n3", "n2"))
	db.Insert(types.NewTuple("bgpRoute", s("n1"), s("p1"), s("n2")))
	db.Insert(types.NewTuple("bgpRoute", s("n1"), s("p1"), s("n4")))
	advert := types.NewTuple("advert", s("n1"), s("p1"), s("n0"), types.Int(1))
	fprog, bprog := apps.Forwarding(), apps.BGP()
	fwd, bgp := CompileProgram(fprog), CompileProgram(bprog)
	cases := []struct {
		name    string
		plans   *Plans
		rule    *ndlog.Rule
		ev      types.Tuple
		firings int
	}{
		{"forwarding r1 fires", fwd, fprog.Rule("r1"), pktT("n1", "n1", "n3", "data"), 1},
		{"forwarding r1 no route", fwd, fprog.Rule("r1"), pktT("n1", "n1", "n9", "data"), 0},
		{"forwarding r2 constraint fails", fwd, fprog.Rule("r2"), pktT("n1", "n1", "n3", "data"), 0},
		{"forwarding r2 fires", fwd, fprog.Rule("r2"), pktT("n3", "n1", "n3", "data"), 1},
		{"forwarding r1 wrong arity", fwd, fprog.Rule("r1"), types.NewTuple("packet", s("n1")), 0},
		{"bgp b1 fires twice", bgp, bprog.Rule("b1"), advert, 2},
		{"bgp b2 no owner", bgp, bprog.Rule("b2"), advert, 0},
	}
	for _, tc := range cases {
		// The first evaluation builds the indexes it probes.
		fs, err := tc.plans.Eval(tc.rule, db, tc.ev, nil)
		if err != nil || len(fs) != tc.firings {
			t.Fatalf("%s: %d firings, err %v; want %d", tc.name, len(fs), err, tc.firings)
		}
		got := testing.AllocsPerRun(100, func() {
			fs, _ = tc.plans.Eval(tc.rule, db, tc.ev, nil)
		})
		if budget := float64(3 * tc.firings); got > budget {
			t.Errorf("%s: %.0f allocs per evaluation, budget %.0f", tc.name, got, budget)
		}
		var slow []types.Tuple
		fs, slow, _ = tc.plans.EvalAppend(fs[:0], slow[:0], tc.rule, db, tc.ev, nil)
		got = testing.AllocsPerRun(100, func() {
			fs, slow, _ = tc.plans.EvalAppend(fs[:0], slow[:0], tc.rule, db, tc.ev, nil)
		})
		if len(fs) != tc.firings {
			t.Fatalf("%s: EvalAppend gave %d firings, want %d", tc.name, len(fs), tc.firings)
		}
		if budget := float64(tc.firings); got > budget {
			t.Errorf("%s: %.0f allocs per evaluation into warm buffers, budget %.0f", tc.name, got, budget)
		}
	}
}
