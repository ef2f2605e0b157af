package engine

// The map-based evaluator the slot-compiled plans replaced, kept as the
// differential reference: Binding, unify, instantiate, finishFiring and the
// expression evaluator below are the former production code verbatim
// (EvalExpr/EvalConstraint renamed ref*); refEval and refEvalScan are the
// former RulePlan.Eval and EvalRuleScan drivers over them. evalArith is
// shared with production — it never saw a binding.

import (
	"fmt"

	"provcompress/internal/ndlog"
	"provcompress/internal/types"
)

// Binding maps variable names to values during rule evaluation.
type Binding map[string]types.Value

// clone returns an independent copy of the binding.
func (b Binding) clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// refEvalExpr evaluates an expression under a binding with the given
// user-defined function registry.
func refEvalExpr(e ndlog.Expr, b Binding, funcs ndlog.FuncMap) (types.Value, error) {
	switch e := e.(type) {
	case ndlog.ConstExpr:
		return e.Val, nil
	case ndlog.VarExpr:
		v, ok := b[e.Name]
		if !ok {
			return types.Value{}, fmt.Errorf("engine: unbound variable %s", e.Name)
		}
		return v, nil
	case ndlog.BinExpr:
		l, err := refEvalExpr(e.L, b, funcs)
		if err != nil {
			return types.Value{}, err
		}
		r, err := refEvalExpr(e.R, b, funcs)
		if err != nil {
			return types.Value{}, err
		}
		return evalArith(e.Op, l, r)
	case ndlog.CallExpr:
		fn, ok := funcs[e.Fn]
		if !ok {
			return types.Value{}, fmt.Errorf("engine: unknown function %s", e.Fn)
		}
		args := make([]types.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := refEvalExpr(a, b, funcs)
			if err != nil {
				return types.Value{}, err
			}
			args[i] = v
		}
		out, err := fn(args)
		if err != nil {
			return types.Value{}, fmt.Errorf("engine: %s: %w", e.Fn, err)
		}
		return out, nil
	default:
		return types.Value{}, fmt.Errorf("engine: unknown expression %T", e)
	}
}

// refEvalConstraint evaluates a comparison under a binding.
func refEvalConstraint(c ndlog.Constraint, b Binding, funcs ndlog.FuncMap) (bool, error) {
	l, err := refEvalExpr(c.L, b, funcs)
	if err != nil {
		return false, err
	}
	r, err := refEvalExpr(c.R, b, funcs)
	if err != nil {
		return false, err
	}
	switch c.Op {
	case ndlog.OpEq:
		return l.Equal(r), nil
	case ndlog.OpNe:
		return !l.Equal(r), nil
	}
	if l.Kind() != r.Kind() {
		return false, fmt.Errorf("engine: ordered comparison %s between %s and %s", c.Op, l.Kind(), r.Kind())
	}
	cmp := l.Compare(r)
	switch c.Op {
	case ndlog.OpLt:
		return cmp < 0, nil
	case ndlog.OpLe:
		return cmp <= 0, nil
	case ndlog.OpGt:
		return cmp > 0, nil
	case ndlog.OpGe:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("engine: unknown comparison %s", c.Op)
	}
}

// finishFiring applies assignments and constraints and instantiates the
// head under the completed binding.
func finishFiring(r *ndlog.Rule, ev types.Tuple, b Binding, slow []types.Tuple, funcs ndlog.FuncMap) (Firing, bool, error) {
	if len(r.Assigns) > 0 {
		b = b.clone()
		for _, a := range r.Assigns {
			v, err := refEvalExpr(a.Expr, b, funcs)
			if err != nil {
				return Firing{}, false, fmt.Errorf("engine: rule %s: %s: %w", r.Label, a, err)
			}
			b[a.Var] = v
		}
	}
	for _, c := range r.Constraints {
		ok, err := refEvalConstraint(c, b, funcs)
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

// refEval is the former RulePlan.Eval: the plan's join order and index
// probes, with map bindings. The probe key is rebuilt from the step's atom
// (a KeySource no longer carries the variable name).
func refEval(p *RulePlan, db *Database, ev types.Tuple, funcs ndlog.FuncMap) ([]Firing, error) {
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
				switch term := st.Atom.Args[k.Pos].(type) {
				case ndlog.Var:
					keyBuf = b[term.Name].AppendEncode(keyBuf)
				case ndlog.Const:
					keyBuf = term.Val.AppendEncode(keyBuf)
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

// refEvalScan is the former EvalRuleScan: slow atoms joined in body order
// by backtracking unification over full relation scans.
func refEvalScan(r *ndlog.Rule, db *Database, ev types.Tuple, funcs ndlog.FuncMap) ([]Firing, error) {
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
