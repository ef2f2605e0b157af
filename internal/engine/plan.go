// Rule compilation: at deploy time each rule's slow-changing atoms are
// ordered and annotated with the attribute positions that are bound when
// the atom is joined, so evaluation probes one hash-index bucket per join
// step instead of scanning the relation. The bound-position information is
// the same attribute-level structure the Section 5.2 dependency graph
// (internal/analysis) derives; here it is specialized to the operational
// question "which values are known by step i".

package engine

import (
	"fmt"
	"strings"
	"sync"

	"provcompress/internal/ndlog"
	"provcompress/internal/types"
)

// KeySource says how to produce one component of a join step's probe key:
// either a constant baked in at compile time or the value of a variable
// bound by the event atom or an earlier join step.
type KeySource struct {
	Pos   int         // attribute position in the slow atom
	Var   string      // bound variable name; empty for a constant
	Const types.Value // the constant, when Var is empty
}

// JoinStep is one compiled join of a rule plan: the slow atom, its
// position in the rule body (Firing.Slow stays in body-atom order), and
// the probe-key recipe. An empty Keys list means no position is bound at
// this step and the relation is scanned.
type JoinStep struct {
	Atom    ndlog.Atom
	SlowIdx int
	Keys    []KeySource
	// positions caches the sorted Pos list of Keys — the identity of the
	// secondary index this step probes.
	positions []int
}

// RulePlan is a rule compiled for indexed evaluation.
type RulePlan struct {
	Rule  *ndlog.Rule
	Steps []JoinStep
}

// CompileRule builds the join plan of a rule: slow atoms are ordered
// greedily by how many of their attribute positions are bound (constants,
// event-atom variables, and variables bound by already-placed atoms), ties
// broken by body order so plans are deterministic.
func CompileRule(r *ndlog.Rule) *RulePlan {
	bound := make(map[string]bool)
	for v := range r.Event.Vars() {
		bound[v] = true
	}
	placed := make([]bool, len(r.Slow))
	plan := &RulePlan{Rule: r, Steps: make([]JoinStep, 0, len(r.Slow))}
	for len(plan.Steps) < len(r.Slow) {
		best, bestScore := -1, -1
		for i, atom := range r.Slow {
			if placed[i] {
				continue
			}
			score := boundPositions(atom, bound)
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		atom := r.Slow[best]
		placed[best] = true
		plan.Steps = append(plan.Steps, compileStep(atom, best, bound))
		for v := range atom.Vars() {
			bound[v] = true
		}
	}
	return plan
}

// boundPositions counts the attribute positions of an atom whose value is
// known given the bound variable set.
func boundPositions(atom ndlog.Atom, bound map[string]bool) int {
	n := 0
	for _, term := range atom.Args {
		switch term := term.(type) {
		case ndlog.Const:
			n++
		case ndlog.Var:
			if bound[term.Name] {
				n++
			}
		}
	}
	return n
}

// compileStep derives the probe-key recipe for an atom joined with the
// given variables bound. Positions beyond the index mask width are left to
// unification (they cannot occur at realistic arities).
func compileStep(atom ndlog.Atom, slowIdx int, bound map[string]bool) JoinStep {
	st := JoinStep{Atom: atom, SlowIdx: slowIdx}
	for i, term := range atom.Args {
		if i >= maxIndexedPos {
			break
		}
		switch term := term.(type) {
		case ndlog.Const:
			st.Keys = append(st.Keys, KeySource{Pos: i, Const: term.Val})
		case ndlog.Var:
			if bound[term.Name] {
				st.Keys = append(st.Keys, KeySource{Pos: i, Var: term.Name})
			}
		}
	}
	st.positions = make([]int, len(st.Keys))
	for i, k := range st.Keys {
		st.positions[i] = k.Pos
	}
	return st
}

// String renders the plan for logs and tests: each step as rel[p0,p1,...]
// in join order.
func (p *RulePlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", p.Rule.Label)
	for _, st := range p.Steps {
		b.WriteByte(' ')
		b.WriteString(st.Atom.Rel)
		b.WriteByte('[')
		for i, pos := range st.positions {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", pos)
		}
		b.WriteByte(']')
	}
	return b.String()
}

// Eval computes every firing of the compiled rule triggered by the event
// tuple ev against db. Each join step probes the secondary hash index for
// its bound positions (building it on first use); candidates from the
// bucket still pass through full unification, which re-checks the bound
// positions and handles repeated variables. The database read lock is held
// for the whole join, so concurrent inserts and deletes cannot disturb the
// buckets mid-evaluation.
func (p *RulePlan) Eval(db *Database, ev types.Tuple, funcs ndlog.FuncMap) ([]Firing, error) {
	r := p.Rule
	if ev.Rel != r.Event.Rel {
		return nil, nil
	}
	base, ok := unify(r.Event, ev, Binding{})
	if !ok {
		return nil, nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()

	slow := make([]types.Tuple, len(r.Slow))
	var firings []Firing
	var joinErr error
	var keyBuf []byte
	var rec func(i int, b Binding)
	rec = func(i int, b Binding) {
		if joinErr != nil {
			return
		}
		if i == len(p.Steps) {
			f, ok, err := finishFiring(r, ev, b, append([]types.Tuple(nil), slow...), funcs)
			if err != nil {
				joinErr = err
				return
			}
			if ok {
				firings = append(firings, f)
			}
			return
		}
		st := &p.Steps[i]
		var cands []types.Tuple
		if len(st.Keys) == 0 {
			cands = db.scanLocked(st.Atom.Rel)
		} else {
			keyBuf = keyBuf[:0]
			for _, k := range st.Keys {
				if k.Var != "" {
					keyBuf = b[k.Var].AppendEncode(keyBuf)
				} else {
					keyBuf = k.Const.AppendEncode(keyBuf)
				}
			}
			cands = db.probeLocked(st.Atom.Rel, st.positions, keyBuf)
		}
		for _, cand := range cands {
			if nb, ok := unify(st.Atom, cand, b); ok {
				slow[st.SlowIdx] = cand
				rec(i+1, nb)
			}
		}
	}
	rec(0, base)
	if joinErr != nil {
		return nil, joinErr
	}
	return firings, nil
}

// Plans is the compiled form of a program: one join plan per rule,
// built once at deploy time and shared by every node.
type Plans struct {
	m map[*ndlog.Rule]*RulePlan
}

// CompileProgram compiles every rule of a program.
func CompileProgram(p *ndlog.Program) *Plans {
	ps := &Plans{m: make(map[*ndlog.Rule]*RulePlan, len(p.Rules))}
	for _, r := range p.Rules {
		ps.m[r] = CompileRule(r)
	}
	return ps
}

// For returns the plan of a rule, compiling (and caching globally) plans
// for rules outside the program the Plans were built from.
func (ps *Plans) For(r *ndlog.Rule) *RulePlan {
	if p := ps.m[r]; p != nil {
		return p
	}
	return planFor(r)
}

// Eval evaluates a rule through its compiled plan.
func (ps *Plans) Eval(r *ndlog.Rule, db *Database, ev types.Tuple, funcs ndlog.FuncMap) ([]Firing, error) {
	return ps.For(r).Eval(db, ev, funcs)
}

// EvalObserver is notified after one rule evaluation with the number of
// firings it produced. The cluster runtime hangs its per-rule tracing
// spans off this hook; a nil observer costs one comparison.
type EvalObserver func(rule string, firings int, err error)

// EvalObserved is Eval plus an observation callback — kept separate so
// the unobserved hot path stays branch-free.
func (ps *Plans) EvalObserved(r *ndlog.Rule, db *Database, ev types.Tuple, funcs ndlog.FuncMap, obs EvalObserver) ([]Firing, error) {
	fs, err := ps.Eval(r, db, ev, funcs)
	if obs != nil {
		obs(r.Label, len(fs), err)
	}
	return fs, err
}

// planCache caches compiled plans for rules evaluated outside a deployed
// program (replay, reconstruction), keyed by rule identity.
var planCache sync.Map // *ndlog.Rule -> *RulePlan

func planFor(r *ndlog.Rule) *RulePlan {
	if p, ok := planCache.Load(r); ok {
		return p.(*RulePlan)
	}
	p, _ := planCache.LoadOrStore(r, CompileRule(r))
	return p.(*RulePlan)
}
