package engine

import (
	"fmt"

	"provcompress/internal/ndlog"
	"provcompress/internal/types"
)

// exprKind discriminates the nodes of a compiled expression.
type exprKind uint8

const (
	exprConst   exprKind = iota // a literal
	exprSlot                    // a bound variable: read frame[slot]
	exprUnbound                 // a variable nothing binds: evaluating it is an error
	exprBin                     // arithmetic over args[0], args[1]
	exprCall                    // user-defined function over args
)

// expr is an ndlog.Expr with its variables resolved to frame slots. It is
// one concrete struct walked by one switch rather than an interface per
// node kind: a dynamic call would make the evaluation frame escape to the
// heap.
type expr struct {
	kind exprKind
	val  types.Value // exprConst
	slot int         // exprSlot
	name string      // exprUnbound: the variable; exprCall: the function
	op   ndlog.BinOp // exprBin
	args []expr
}

// compileExpr resolves the variables of e against the slots assigned so
// far.
func compileExpr(e ndlog.Expr, slots map[string]int) expr {
	switch e := e.(type) {
	case ndlog.ConstExpr:
		return expr{kind: exprConst, val: e.Val}
	case ndlog.VarExpr:
		if s, ok := slots[e.Name]; ok {
			return expr{kind: exprSlot, slot: s}
		}
		return expr{kind: exprUnbound, name: e.Name}
	case ndlog.BinExpr:
		return expr{kind: exprBin, op: e.Op, args: []expr{compileExpr(e.L, slots), compileExpr(e.R, slots)}}
	case ndlog.CallExpr:
		args := make([]expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = compileExpr(a, slots)
		}
		return expr{kind: exprCall, name: e.Fn, args: args}
	default:
		panic(fmt.Sprintf("engine: unknown expression %T", e))
	}
}

// eval evaluates the expression over a frame with the given user-defined
// function registry.
func (e *expr) eval(frame []types.Value, funcs ndlog.FuncMap) (types.Value, error) {
	switch e.kind {
	case exprConst:
		return e.val, nil
	case exprSlot:
		return frame[e.slot], nil
	case exprUnbound:
		return types.Value{}, fmt.Errorf("engine: unbound variable %s", e.name)
	case exprBin:
		l, err := e.args[0].eval(frame, funcs)
		if err != nil {
			return types.Value{}, err
		}
		r, err := e.args[1].eval(frame, funcs)
		if err != nil {
			return types.Value{}, err
		}
		return evalArith(e.op, l, r)
	default: // exprCall
		fn, ok := funcs[e.name]
		if !ok {
			return types.Value{}, fmt.Errorf("engine: unknown function %s", e.name)
		}
		// The argument list is handed to caller-supplied code, so it is
		// the one per-evaluation allocation left in this file.
		args := make([]types.Value, len(e.args))
		for i := range e.args {
			v, err := e.args[i].eval(frame, funcs)
			if err != nil {
				return types.Value{}, err
			}
			args[i] = v
		}
		out, err := fn(args)
		if err != nil {
			return types.Value{}, fmt.Errorf("engine: %s: %w", e.name, err)
		}
		return out, nil
	}
}

func evalArith(op ndlog.BinOp, l, r types.Value) (types.Value, error) {
	// String concatenation via +.
	if op == ndlog.OpAdd && l.Kind() == types.KindString && r.Kind() == types.KindString {
		return types.String(l.AsString() + r.AsString()), nil
	}
	if l.Kind() != types.KindInt || r.Kind() != types.KindInt {
		return types.Value{}, fmt.Errorf("engine: arithmetic %s on %s and %s values", op, l.Kind(), r.Kind())
	}
	a, b := l.AsInt(), r.AsInt()
	switch op {
	case ndlog.OpAdd:
		return types.Int(a + b), nil
	case ndlog.OpSub:
		return types.Int(a - b), nil
	case ndlog.OpMul:
		return types.Int(a * b), nil
	case ndlog.OpDiv:
		if b == 0 {
			return types.Value{}, fmt.Errorf("engine: division by zero")
		}
		return types.Int(a / b), nil
	case ndlog.OpMod:
		if b == 0 {
			return types.Value{}, fmt.Errorf("engine: modulo by zero")
		}
		return types.Int(a % b), nil
	default:
		return types.Value{}, fmt.Errorf("engine: unknown operator %s", op)
	}
}

// constraint is a compiled ndlog.Constraint.
type constraint struct {
	op   ndlog.CmpOp
	l, r expr
}

// eval evaluates the comparison over a frame.
func (c *constraint) eval(frame []types.Value, funcs ndlog.FuncMap) (bool, error) {
	l, err := c.l.eval(frame, funcs)
	if err != nil {
		return false, err
	}
	r, err := c.r.eval(frame, funcs)
	if err != nil {
		return false, err
	}
	switch c.op {
	case ndlog.OpEq:
		return l.Equal(r), nil
	case ndlog.OpNe:
		return !l.Equal(r), nil
	}
	if l.Kind() != r.Kind() {
		return false, fmt.Errorf("engine: ordered comparison %s between %s and %s", c.op, l.Kind(), r.Kind())
	}
	cmp := l.Compare(r)
	switch c.op {
	case ndlog.OpLt:
		return cmp < 0, nil
	case ndlog.OpLe:
		return cmp <= 0, nil
	case ndlog.OpGt:
		return cmp > 0, nil
	case ndlog.OpGe:
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("engine: unknown comparison %s", c.op)
	}
}
