// Package ndlog implements the Network Datalog dialect of the paper: the
// abstract syntax, a lexer and parser for the concrete syntax used in
// Figures 1 and 19, and the validator for the DELP restriction
// (distributed event-driven linear programs, Definition 1).
//
// Concrete syntax, by example:
//
//	r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
//	r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.
//
// Variables begin with an uppercase letter; bare lowercase identifiers are
// string constants (so `route(@n1, n3, n2)` denotes the concrete tuple of
// Figure 2); integers and quoted strings are literals. The first relational
// atom of a rule body is the rule's designated event atom; the remaining
// relational atoms are slow-changing condition atoms. `V := expr` is an
// assignment and `expr op expr` (==, !=, <, <=, >, >=) is a constraint.
// User-defined functions are invoked as `f_name(args)` inside expressions.
package ndlog

import (
	"fmt"
	"strings"

	"provcompress/internal/types"
)

// Term is an argument of a relational atom: either a Var or a Const.
type Term interface {
	fmt.Stringer
	isTerm()
}

// Var is a variable occurrence, e.g. DT.
type Var struct{ Name string }

func (Var) isTerm()          {}
func (v Var) String() string { return v.Name }

// Const is a literal value, e.g. "data", 42, true, or a bare lowercase
// identifier like n1 (a string constant).
type Const struct{ Val types.Value }

func (Const) isTerm() {}
func (c Const) String() string {
	return c.Val.String()
}

// Atom is a relational atom rel(@a0, a1, ..., an). Args[0] carries the
// location specifier.
type Atom struct {
	Rel  string
	Args []Term
}

// Arity returns the number of attributes of the atom.
func (a Atom) Arity() int { return len(a.Args) }

// Vars returns the set of variable names occurring in the atom.
func (a Atom) Vars() map[string]bool {
	vs := make(map[string]bool)
	for _, t := range a.Args {
		if v, ok := t.(Var); ok {
			vs[v.Name] = true
		}
	}
	return vs
}

// VarPositions returns, for each variable name, the list of attribute
// indexes at which it occurs in the atom.
func (a Atom) VarPositions() map[string][]int {
	pos := make(map[string][]int)
	for i, t := range a.Args {
		if v, ok := t.(Var); ok {
			pos[v.Name] = append(pos[v.Name], i)
		}
	}
	return pos
}

// String renders the atom in concrete syntax.
func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Rel)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		if i == 0 {
			b.WriteByte('@')
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Expr is an expression usable in constraints and assignments.
type Expr interface {
	fmt.Stringer
	isExpr()
	// FreeVars appends the variable names in the expression to dst.
	FreeVars(dst []string) []string
}

// VarExpr references a variable inside an expression.
type VarExpr struct{ Name string }

func (VarExpr) isExpr()          {}
func (v VarExpr) String() string { return v.Name }

// FreeVars appends the variable name.
func (v VarExpr) FreeVars(dst []string) []string { return append(dst, v.Name) }

// ConstExpr is a literal inside an expression.
type ConstExpr struct{ Val types.Value }

func (ConstExpr) isExpr()          {}
func (c ConstExpr) String() string { return c.Val.String() }

// FreeVars returns dst unchanged.
func (c ConstExpr) FreeVars(dst []string) []string { return dst }

// BinOp enumerates arithmetic operators.
type BinOp string

// Arithmetic operators.
const (
	OpAdd BinOp = "+"
	OpSub BinOp = "-"
	OpMul BinOp = "*"
	OpDiv BinOp = "/"
	OpMod BinOp = "%"
)

// BinExpr is a binary arithmetic expression.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

func (BinExpr) isExpr() {}
func (e BinExpr) String() string {
	return fmt.Sprintf("%s %s %s", e.L, e.Op, e.R)
}

// FreeVars appends the variables of both operands.
func (e BinExpr) FreeVars(dst []string) []string {
	return e.R.FreeVars(e.L.FreeVars(dst))
}

// CallExpr is a user-defined function invocation, e.g. f_isSubDomain(DM, URL).
type CallExpr struct {
	Fn   string
	Args []Expr
}

func (CallExpr) isExpr() {}
func (e CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// FreeVars appends the variables of all arguments.
func (e CallExpr) FreeVars(dst []string) []string {
	for _, a := range e.Args {
		dst = a.FreeVars(dst)
	}
	return dst
}

// CmpOp enumerates comparison operators usable in constraints.
type CmpOp string

// Comparison operators.
const (
	OpEq CmpOp = "=="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Constraint is an arithmetic atom in the paper's terminology: a comparison
// between two expressions that must hold for the rule to fire.
type Constraint struct {
	Op   CmpOp
	L, R Expr
}

// String renders the constraint in concrete syntax.
func (c Constraint) String() string {
	return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
}

// Assignment binds a fresh variable to the value of an expression,
// e.g. N := L + 2.
type Assignment struct {
	Var  string
	Expr Expr
}

// String renders the assignment in concrete syntax.
func (a Assignment) String() string {
	return fmt.Sprintf("%s := %s", a.Var, a.Expr)
}

// Rule is one event-driven rule: head :- event, slow..., constraints...,
// assignments... . The parser designates the first relational body atom as
// the event atom; all other relational atoms are slow-changing atoms.
type Rule struct {
	Label       string // e.g. "r1"
	Head        Atom
	Event       Atom
	Slow        []Atom
	Constraints []Constraint
	Assigns     []Assignment
}

// String renders the rule in concrete syntax.
func (r *Rule) String() string {
	var parts []string
	parts = append(parts, r.Event.String())
	for _, s := range r.Slow {
		parts = append(parts, s.String())
	}
	for _, c := range r.Constraints {
		parts = append(parts, c.String())
	}
	for _, a := range r.Assigns {
		parts = append(parts, a.String())
	}
	return fmt.Sprintf("%s %s :- %s.", r.Label, r.Head.String(), strings.Join(parts, ", "))
}

// Program is an ordered list of rules, the unit that the DELP validator and
// the static analysis operate on. Programs come from Parse and
// MergePrograms, which index the finished rule list; Rules is not modified
// afterwards.
type Program struct {
	Name  string
	Rules []*Rule

	// byEvent is RulesForEvent precomputed: every arriving tuple asks for
	// the rules its relation triggers.
	byEvent map[string][]*Rule
}

// indexEvents builds byEvent from the finished rule list.
func (p *Program) indexEvents() {
	p.byEvent = make(map[string][]*Rule)
	for _, r := range p.Rules {
		p.byEvent[r.Event.Rel] = append(p.byEvent[r.Event.Rel], r)
	}
}

// String renders the program in concrete syntax, one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Rule returns the rule with the given label, or nil.
func (p *Program) Rule(label string) *Rule {
	for _, r := range p.Rules {
		if r.Label == label {
			return r
		}
	}
	return nil
}

// InputEvent returns the event relation of the first rule: the relation
// whose tuples are injected into the system to trigger executions.
func (p *Program) InputEvent() string {
	if len(p.Rules) == 0 {
		return ""
	}
	return p.Rules[0].Event.Rel
}

// HeadRelations returns the set of relations derived by some rule.
func (p *Program) HeadRelations() map[string]bool {
	hs := make(map[string]bool, len(p.Rules))
	for _, r := range p.Rules {
		hs[r.Head.Rel] = true
	}
	return hs
}

// SlowRelations returns the set of slow-changing relations: non-event body
// relations, which Definition 1 guarantees are never derived by the program.
func (p *Program) SlowRelations() map[string]bool {
	ss := make(map[string]bool)
	for _, r := range p.Rules {
		for _, s := range r.Slow {
			ss[s.Rel] = true
		}
	}
	return ss
}

// OutputRelations returns head relations that never appear as an event in
// any rule body — the "result" relations of the pipeline (e.g. recv, reply).
func (p *Program) OutputRelations() map[string]bool {
	events := make(map[string]bool)
	for _, r := range p.Rules {
		events[r.Event.Rel] = true
	}
	outs := make(map[string]bool)
	for _, r := range p.Rules {
		if !events[r.Head.Rel] {
			outs[r.Head.Rel] = true
		}
	}
	return outs
}

// RulesForEvent returns the rules whose event relation is rel, in program
// order. Several rules may share an event relation (e.g. r1/r2 of packet
// forwarding are both triggered by packet tuples). The slice is shared;
// callers must not modify it.
func (p *Program) RulesForEvent(rel string) []*Rule {
	return p.byEvent[rel]
}

// Arities returns the arity of every relation mentioned in the program, or
// an error if a relation is used with inconsistent arity.
func (p *Program) Arities() (map[string]int, error) {
	ar := make(map[string]int)
	record := func(a Atom, where string) error {
		if n, ok := ar[a.Rel]; ok && n != a.Arity() {
			return fmt.Errorf("ndlog: relation %s used with arity %d and %d (%s)", a.Rel, n, a.Arity(), where)
		}
		ar[a.Rel] = a.Arity()
		return nil
	}
	for _, r := range p.Rules {
		if err := record(r.Head, r.Label+" head"); err != nil {
			return nil, err
		}
		if err := record(r.Event, r.Label+" event"); err != nil {
			return nil, err
		}
		for _, s := range r.Slow {
			if err := record(s, r.Label+" body"); err != nil {
				return nil, err
			}
		}
	}
	return ar, nil
}
