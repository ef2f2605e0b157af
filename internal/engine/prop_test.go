package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"provcompress/internal/apps"
	"provcompress/internal/ndlog"
	"provcompress/internal/types"
)

// TestIndexedEvalMatchesScanOracle is the equivalence property test of the
// indexed join pipeline: for randomly generated rules, databases, and event
// tuples, the compiled plan (index probes, reordered atoms) must produce a
// firing set identical to the scan-based reference evaluator EvalRuleScan —
// same heads, same slow tuples in body-atom order, same error behavior —
// and EvalAppend into a reused buffer must produce the plan's own firings
// (reusedBuf.evalAppend).
func TestIndexedEvalMatchesScanOracle(t *testing.T) {
	const cases = 1200
	var reused reusedBuf
	for seed := int64(0); seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := genRuleSource(rng)
		prog, err := ndlog.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: generated unparsable rule %q: %v", seed, src, err)
		}
		r := prog.Rules[0]
		db := genDatabase(rng, r)
		ev := genEvent(rng, r)

		want, errScan := EvalRuleScan(r, db, ev, nil)
		plan := CompileRule(r)
		got, errPlan := plan.Eval(db, ev, nil)
		reused.evalAppend(t, fmt.Sprintf("seed %d: rule %q event %v", seed, src, ev), plan, db, ev, nil, got, errPlan)

		if (errScan != nil) != (errPlan != nil) {
			t.Fatalf("seed %d: rule %q event %v:\nscan err = %v\nplan err = %v\nplan = %s",
				seed, src, ev, errScan, errPlan, plan)
		}
		if errScan != nil {
			continue
		}
		wk, gk := firingKeys(want), firingKeys(got)
		if strings.Join(wk, "\n") != strings.Join(gk, "\n") {
			t.Fatalf("seed %d: rule %q event %v: firings differ\nplan = %s\nscan (%d):\n%s\nindexed (%d):\n%s",
				seed, src, ev, plan, len(wk), strings.Join(wk, "\n"), len(gk), strings.Join(gk, "\n"))
		}
	}
}

// edgeRules are the unifier's corner cases, evaluated next to the bundled
// DELPs by TestIndexedEvalMatchesScanOracleAppRules.
// Each is its own program: a program fixes one arity per relation.
var edgeRules = []string{
	`e1 out(@L, X, Y) :- e(@L, X, X), s0(@L, Y, Y).`,
	`e2 out(@L, X, V) :- e(@L, 1, X), s0(@L, X, V).`,
	`e3 out(@L, N)    :- e(@L, X), s0(@L, X, V), N := V + 1, N > 1.`,
	`e4 out(@L, Q)    :- e(@L, X), s0(@L, X, V).`,
	`e5 out(@L, X, V) :- e(@L, X), s0(@L, X, V), X := V, X != 0.`,
	`e6 out(@L, X, W) :- e(@L, X), s2(@M, X, V), s1(@L, V, W), s0(@L, W, "a").`,
}

// TestIndexedEvalMatchesScanOracleAppRules is the differential test of the
// slot-compiled evaluator against the map-based one it replaced
// (ref_test.go), over every rule of the bundled application DELPs —
// including the BGP and gossip scenarios — with the real UDF registry, plus
// the edge rules above: a variable repeated inside one atom, a constant in
// the event atom, an assignment feeding a constraint (and type-erroring on
// some rows), an unbound head variable, an assignment shadowing a join
// variable, and a reordered three-way join. Events of the right arity and
// of one attribute more and fewer run against seeded random databases
// holding ~10% wrong-arity rows. The plan must produce the reference's
// firings in the reference's order with the reference's error, on the
// indexed path and on the scan oracle alike, and the two paths must agree
// as sets. EvalAppend into a buffer reused across every rule must produce
// the plan's own firings.
func TestIndexedEvalMatchesScanOracleAppRules(t *testing.T) {
	progs := []*ndlog.Program{
		apps.Forwarding(), apps.DNS(), apps.ARP(), apps.DHCP(), apps.BGP(), apps.Gossip(),
	}
	for _, src := range edgeRules {
		p := ndlog.MustParse(src)
		p.Name = "edge"
		progs = append(progs, p)
	}
	funcs := apps.Funcs()
	var reused reusedBuf
	same := func(what string, got []Firing, gotErr error, want []Firing, wantErr error) {
		t.Helper()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: err = %v, reference err = %v", what, gotErr, wantErr)
		}
		gs, ws := firingSeq(got), firingSeq(want)
		if strings.Join(gs, "\n") != strings.Join(ws, "\n") {
			t.Fatalf("%s: firings differ\nreference (%d):\n%s\nslots (%d):\n%s",
				what, len(ws), strings.Join(ws, "\n"), len(gs), strings.Join(gs, "\n"))
		}
	}
	for _, prog := range progs {
		for _, r := range prog.Rules {
			plan := CompileRule(r)
			fired, errored := 0, 0
			for seed := int64(0); seed < 150; seed++ {
				rng := rand.New(rand.NewSource(seed))
				db := genDatabase(rng, r)
				ev := genEvent(rng, r)
				long := types.Tuple{Rel: ev.Rel, Args: append(ev.Args[:len(ev.Args):len(ev.Args)], genValue(rng))}
				short := types.Tuple{Rel: ev.Rel, Args: ev.Args[:len(ev.Args)-1]}
				for _, ev := range []types.Tuple{ev, long, short} {
					what := fmt.Sprintf("%s/%s seed %d event %v", prog.Name, r.Label, seed, ev)

					got, errPlan := plan.Eval(db, ev, funcs)
					want, errRef := refEval(plan, db, ev, funcs)
					same(what+" indexed", got, errPlan, want, errRef)
					reused.evalAppend(t, what+" into a reused buffer", plan, db, ev, funcs, got, errPlan)
					fired += len(got)
					if errPlan != nil {
						errored++
					}

					gotScan, errScan := EvalRuleScan(r, db, ev, funcs)
					wantScan, errRefScan := refEvalScan(r, db, ev, funcs)
					same(what+" scan", gotScan, errScan, wantScan, errRefScan)

					if (errScan != nil) != (errPlan != nil) {
						t.Fatalf("%s:\nscan err = %v\nplan err = %v", what, errScan, errPlan)
					}
					if errScan != nil {
						continue
					}
					wk, gk := firingKeys(gotScan), firingKeys(got)
					if strings.Join(wk, "\n") != strings.Join(gk, "\n") {
						t.Fatalf("%s: firings differ\nscan (%d):\n%s\nindexed (%d):\n%s",
							what, len(wk), strings.Join(wk, "\n"), len(gk), strings.Join(gk, "\n"))
					}
				}
			}
			if prog.Name == "edge" && fired+errored == 0 {
				t.Errorf("edge rule %s neither fired nor failed on any seed: the case is not exercised", r.Label)
			}
		}
	}
}

// firingSeq renders firings (rule, event, head, slow tuples in body order)
// as strings in the order they were produced.
// reusedBuf is an EvalAppend buffer pair kept across evaluations, the way
// a shard worker keeps its own. Most calls append after the firings it
// already holds; every third starts it over from empty, on top of the
// stale firings and slow tuples its arrays still hold.
type reusedBuf struct {
	fs    []Firing
	slow  []types.Tuple
	calls int
}

// evalAppend runs plan.EvalAppend on the buffer and holds it to the plan's
// Eval result (want, wantErr): the same error; on success the firings
// already in the buffer — Slow lists included — are untouched, the
// appended ones equal want in order, and each appended Slow list is capped
// at its length, so appending to it cannot reach the next firing's; on
// error dst and slow come back unchanged, with no partial firings.
func (b *reusedBuf) evalAppend(t *testing.T, what string, plan *RulePlan, db *Database, ev types.Tuple, funcs ndlog.FuncMap, want []Firing, wantErr error) {
	t.Helper()
	if b.calls++; b.calls%3 == 0 || len(b.fs) > 64 {
		b.fs, b.slow = b.fs[:0], b.slow[:0]
	}
	before := firingSeq(b.fs)
	fs, slow, err := plan.EvalAppend(b.fs, b.slow, db, ev, funcs)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: EvalAppend err = %v, Eval err = %v", what, err, wantErr)
	}
	if err != nil {
		if len(fs) != len(b.fs) || cap(fs) != cap(b.fs) || len(slow) != len(b.slow) || cap(slow) != cap(b.slow) {
			t.Fatalf("%s: failed EvalAppend changed its buffers: %d/%d firings and %d/%d slow tuples, had %d/%d and %d/%d",
				what, len(fs), cap(fs), len(slow), cap(slow), len(b.fs), cap(b.fs), len(b.slow), cap(b.slow))
		}
	}
	got := firingSeq(fs)
	if strings.Join(got[:len(before)], "\n") != strings.Join(before, "\n") {
		t.Fatalf("%s: EvalAppend changed the firings already in dst\nbefore:\n%s\nafter:\n%s",
			what, strings.Join(before, "\n"), strings.Join(got[:len(before)], "\n"))
	}
	if err != nil {
		return
	}
	if ws := firingSeq(want); strings.Join(got[len(before):], "\n") != strings.Join(ws, "\n") {
		t.Fatalf("%s: EvalAppend firings differ from Eval's\nEval (%d):\n%s\nEvalAppend (%d):\n%s",
			what, len(ws), strings.Join(ws, "\n"), len(got)-len(before), strings.Join(got[len(before):], "\n"))
	}
	for _, f := range fs[len(before):] {
		if cap(f.Slow) != len(f.Slow) {
			t.Fatalf("%s: firing %v has a Slow list of length %d and capacity %d", what, f, len(f.Slow), cap(f.Slow))
		}
	}
	b.fs, b.slow = fs, slow
}

func firingSeq(fs []Firing) []string {
	keys := make([]string, len(fs))
	for i, f := range fs {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %v => %v", f.Rule.Label, f.Event, f.Head)
		for _, s := range f.Slow {
			fmt.Fprintf(&b, " | %v", s)
		}
		keys[i] = b.String()
	}
	return keys
}

// firingKeys is firingSeq sorted, so set comparison ignores enumeration
// order.
func firingKeys(fs []Firing) []string {
	keys := firingSeq(fs)
	sort.Strings(keys)
	return keys
}

// genRuleSource generates a random single-rule program: an event atom with
// 1-3 payload variables (sometimes repeated, exercising self-unification),
// 1-3 slow atoms over relations s0..s2 mixing bound variables, fresh
// variables and constants (so plans mix index probes and scan fallbacks),
// an optional constraint, and a head over bound variables.
func genRuleSource(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("p out(@L")

	// Event atom payload.
	k := 1 + rng.Intn(3)
	eventArgs := make([]string, k)
	pool := []string{"L"}
	for i := 0; i < k; i++ {
		eventArgs[i] = fmt.Sprintf("E%d", i)
		pool = append(pool, eventArgs[i])
	}
	if k >= 2 && rng.Float64() < 0.2 {
		eventArgs[k-1] = eventArgs[0] // repeated event variable
	}

	// Slow atoms. The parser enforces one arity per relation, so fix each
	// relation's payload arity the first time it is drawn.
	fresh := 0
	relArity := make(map[string]int)
	var atoms []string
	m := 1 + rng.Intn(3)
	for i := 0; i < m; i++ {
		rel := fmt.Sprintf("s%d", rng.Intn(3))
		arity, ok := relArity[rel]
		if !ok {
			arity = 1 + rng.Intn(3)
			relArity[rel] = arity
		}
		var args []string
		if rng.Float64() < 0.8 {
			args = append(args, "L")
		} else {
			v := fmt.Sprintf("LF%d", i)
			args = append(args, v)
			pool = append(pool, v)
		}
		for j := 0; j < arity; j++ {
			switch roll := rng.Float64(); {
			case roll < 0.4:
				args = append(args, pool[rng.Intn(len(pool))])
			case roll < 0.7:
				v := fmt.Sprintf("V%d", fresh)
				fresh++
				args = append(args, v)
				pool = append(pool, v)
			default:
				args = append(args, genConstSource(rng))
			}
		}
		atoms = append(atoms, fmt.Sprintf("%s(@%s)", rel, strings.Join(args, ", ")))
	}

	// Head: the location variable plus 1-3 body variables.
	for n := 1 + rng.Intn(3); n > 0; n-- {
		fmt.Fprintf(&b, ", %s", pool[rng.Intn(len(pool))])
	}
	b.WriteString(") :- e(@L")
	for _, a := range eventArgs {
		fmt.Fprintf(&b, ", %s", a)
	}
	b.WriteString(")")
	for _, a := range atoms {
		fmt.Fprintf(&b, ", %s", a)
	}

	// Optional constraint; may type-error on some bindings, which both
	// evaluation paths must surface identically.
	if rng.Float64() < 0.3 {
		v := pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, ", %s == %s", v, genConstSource(rng))
		case 1:
			fmt.Fprintf(&b, ", %s != %s", v, genConstSource(rng))
		default:
			fmt.Fprintf(&b, ", %s < 2", v)
		}
	}
	b.WriteString(".")
	return b.String()
}

func genConstSource(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return fmt.Sprintf("%d", rng.Intn(3))
	}
	return fmt.Sprintf("%q", string(rune('a'+rng.Intn(3))))
}

// genValue draws from a small domain so joins actually match.
func genValue(rng *rand.Rand) types.Value {
	switch rng.Intn(7) {
	case 0, 1, 2:
		return types.Int(int64(rng.Intn(3)))
	case 3, 4, 5:
		return types.String(string(rune('a' + rng.Intn(3))))
	default:
		return types.Bool(rng.Intn(2) == 0)
	}
}

// genDatabase populates every slow relation the rule mentions with random
// tuples: mostly the atom's arity at location "n", some at a second
// location, and ~10% with a different arity (the store is schema-free and
// indexes must skip tuples they do not cover).
func genDatabase(rng *rand.Rand, r *ndlog.Rule) *Database {
	db := NewDatabase()
	arities := make(map[string][]int)
	for _, atom := range r.Slow {
		arities[atom.Rel] = append(arities[atom.Rel], len(atom.Args))
	}
	for rel, as := range arities {
		n := 5 + rng.Intn(25)
		for i := 0; i < n; i++ {
			arity := as[rng.Intn(len(as))]
			if rng.Float64() < 0.1 {
				arity++
			}
			args := make([]types.Value, arity)
			if rng.Float64() < 0.85 {
				args[0] = types.String("n")
			} else {
				args[0] = types.String("m")
			}
			for j := 1; j < arity; j++ {
				args[j] = genValue(rng)
			}
			db.Insert(types.Tuple{Rel: rel, Args: args})
		}
	}
	return db
}

// genEvent builds an event tuple at location "n" matching the rule's event
// relation and arity.
func genEvent(rng *rand.Rand, r *ndlog.Rule) types.Tuple {
	args := make([]types.Value, len(r.Event.Args))
	args[0] = types.String("n")
	for i := 1; i < len(args); i++ {
		args[i] = genValue(rng)
	}
	return types.Tuple{Rel: r.Event.Rel, Args: args}
}
