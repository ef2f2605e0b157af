package engine

import (
	"fmt"

	"provcompress/internal/ndlog"
	"provcompress/internal/types"
)

// Firing records one rule execution: the triggering event tuple, the
// slow-changing tuples it joined with (in body-atom order), and the derived
// head tuple. Firings are what the provenance maintainers observe.
type Firing struct {
	Rule  *ndlog.Rule
	Event types.Tuple
	Slow  []types.Tuple
	Head  types.Tuple
}

// String summarizes the firing for logs.
func (f Firing) String() string {
	return fmt.Sprintf("%s: %s => %s", f.Rule.Label, f.Event, f.Head)
}

// EvalRule computes every firing of rule r triggered by the event tuple ev
// against the database db. It evaluates through the rule's compiled join
// plan (compiled and cached on first use — deployed runtimes compile all
// plans up front via CompileProgram), probing secondary hash indexes per
// join step.
func EvalRule(r *ndlog.Rule, db *Database, ev types.Tuple, funcs ndlog.FuncMap) ([]Firing, error) {
	return planFor(r).Eval(db, ev, funcs)
}

// EvalRuleScan is the original scan-based evaluator, kept as the reference
// oracle for the indexed path (property tests assert set-identical
// firings) and for A/B benchmarking: slow-changing atoms are joined in
// body order by backtracking unification over full relation scans;
// assignments extend the binding in order; constraints filter.
func EvalRuleScan(r *ndlog.Rule, db *Database, ev types.Tuple, funcs ndlog.FuncMap) ([]Firing, error) {
	if ev.Rel != r.Event.Rel {
		return nil, nil
	}
	base, ok := unify(r.Event, ev, Binding{})
	if !ok {
		return nil, nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var firings []Firing
	var joinErr error
	var rec func(i int, b Binding, slow []types.Tuple)
	rec = func(i int, b Binding, slow []types.Tuple) {
		if joinErr != nil {
			return
		}
		if i == len(r.Slow) {
			f, ok, err := finishFiring(r, ev, b, slow, funcs)
			if err != nil {
				joinErr = err
				return
			}
			if ok {
				firings = append(firings, f)
			}
			return
		}
		atom := r.Slow[i]
		for _, cand := range db.scanLocked(atom.Rel) {
			if nb, ok := unify(atom, cand, b); ok {
				rec(i+1, nb, append(slow[:len(slow):len(slow)], cand))
			}
		}
	}
	rec(0, base, nil)
	if joinErr != nil {
		return nil, joinErr
	}
	return firings, nil
}

// finishFiring applies assignments and constraints and instantiates the
// head under the completed binding.
func finishFiring(r *ndlog.Rule, ev types.Tuple, b Binding, slow []types.Tuple, funcs ndlog.FuncMap) (Firing, bool, error) {
	if len(r.Assigns) > 0 {
		b = b.clone()
		for _, a := range r.Assigns {
			v, err := EvalExpr(a.Expr, b, funcs)
			if err != nil {
				return Firing{}, false, fmt.Errorf("engine: rule %s: %s: %w", r.Label, a, err)
			}
			b[a.Var] = v
		}
	}
	for _, c := range r.Constraints {
		ok, err := EvalConstraint(c, b, funcs)
		if err != nil {
			return Firing{}, false, fmt.Errorf("engine: rule %s: %s: %w", r.Label, c, err)
		}
		if !ok {
			return Firing{}, false, nil
		}
	}
	head, err := instantiate(r.Head, b)
	if err != nil {
		return Firing{}, false, fmt.Errorf("engine: rule %s: %w", r.Label, err)
	}
	return Firing{Rule: r, Event: ev, Slow: slow, Head: head}, true, nil
}

// unify matches an atom against a concrete tuple, extending the binding.
// It returns the extended binding (a copy if anything was added) and
// whether unification succeeded.
func unify(atom ndlog.Atom, t types.Tuple, b Binding) (Binding, bool) {
	if atom.Rel != t.Rel || len(atom.Args) != len(t.Args) {
		return nil, false
	}
	out := b
	copied := false
	for i, term := range atom.Args {
		switch term := term.(type) {
		case ndlog.Const:
			if !term.Val.Equal(t.Args[i]) {
				return nil, false
			}
		case ndlog.Var:
			if v, ok := out[term.Name]; ok {
				if !v.Equal(t.Args[i]) {
					return nil, false
				}
				continue
			}
			if !copied {
				out = out.clone()
				copied = true
			}
			out[term.Name] = t.Args[i]
		}
	}
	return out, true
}

// instantiate builds the head tuple from a complete binding.
func instantiate(atom ndlog.Atom, b Binding) (types.Tuple, error) {
	args := make([]types.Value, len(atom.Args))
	for i, term := range atom.Args {
		switch term := term.(type) {
		case ndlog.Const:
			args[i] = term.Val
		case ndlog.Var:
			v, ok := b[term.Name]
			if !ok {
				return types.Tuple{}, fmt.Errorf("unbound head variable %s", term.Name)
			}
			args[i] = v
		}
	}
	return types.Tuple{Rel: atom.Rel, Args: args}, nil
}
