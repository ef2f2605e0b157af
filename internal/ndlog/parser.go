package ndlog

import (
	"fmt"
	"strconv"

	"provcompress/internal/types"
)

// Parse parses NDlog source text into a Program. The relational atoms are
// split into event (first body atom) and slow-changing atoms; constraints
// and assignments are collected separately. Parse does not enforce the DELP
// restriction — call Program.ValidateDELP (or ParseDELP) for that.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for p.peek().kind != tokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("ndlog: empty program")
	}
	if _, err := prog.Arities(); err != nil {
		return nil, err
	}
	prog.indexEvents()
	return prog, nil
}

// MustParse parses src and panics on error; for tests and embedded programs.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseDELP parses src and validates the DELP restriction of Definition 1.
func ParseDELP(src string) (*Program, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := p.ValidateDELP(); err != nil {
		return nil, err
	}
	return p, nil
}

func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return fmt.Errorf("ndlog: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, p.errorf(t, "expected %s, found %s %q", k, t.kind, t.text)
	}
	return p.advance(), nil
}

// parseRule parses: label head ":-" bodyElem ("," bodyElem)* "."
func (p *parser) parseRule() (*Rule, error) {
	lbl, err := p.expect(tokIdent)
	if err != nil {
		return nil, fmt.Errorf("%w (rules start with a label, e.g. r1)", err)
	}
	head, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokDerive); err != nil {
		return nil, err
	}
	r := &Rule{Label: lbl.text, Head: head}
	sawEvent := false
	for {
		switch {
		case p.peek().kind == tokIdent && p.peek2().kind == tokLParen && p.isAtomStart():
			a, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			if !sawEvent {
				r.Event, sawEvent = a, true
			} else {
				r.Slow = append(r.Slow, a)
			}
		case p.peek().kind == tokVar && p.peek2().kind == tokAssign:
			v := p.advance()
			p.advance() // :=
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Assigns = append(r.Assigns, Assignment{Var: v.text, Expr: e})
		default:
			c, err := p.parseConstraint()
			if err != nil {
				return nil, err
			}
			r.Constraints = append(r.Constraints, c)
		}
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokPeriod); err != nil {
		return nil, err
	}
	if !sawEvent {
		return nil, fmt.Errorf("ndlog: rule %s has no event atom (first body atom must be a relation)", r.Label)
	}
	return r, nil
}

// isAtomStart distinguishes a relational atom `rel(@X, ...)` from a function
// call `f(X, ...)` at a body position: atoms carry the location specifier
// '@' on their first argument.
func (p *parser) isAtomStart() bool {
	// p.pos at IDENT, p.pos+1 at '('.
	if p.pos+2 < len(p.toks) {
		return p.toks[p.pos+2].kind == tokAt
	}
	return false
}

// parseAtom parses rel(@arg0, arg1, ..., argn).
func (p *parser) parseAtom() (Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return Atom{}, fmt.Errorf("%w (relation name)", err)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return Atom{}, err
	}
	a := Atom{Rel: name.text}
	for i := 0; ; i++ {
		if i == 0 {
			if _, err := p.expect(tokAt); err != nil {
				return Atom{}, fmt.Errorf("%w (the first attribute carries the location specifier '@')", err)
			}
		}
		t, err := p.parseTerm()
		if err != nil {
			return Atom{}, err
		}
		a.Args = append(a.Args, t)
		if p.peek().kind == tokComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return Atom{}, err
	}
	return a, nil
}

// parseTerm parses an atom argument: a variable or a literal.
func (p *parser) parseTerm() (Term, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.advance()
		return Var{Name: t.text}, nil
	case tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf(t, "bad integer %q: %v", t.text, err)
		}
		return Const{Val: types.Int(n)}, nil
	case tokString:
		p.advance()
		return Const{Val: types.String(t.text)}, nil
	case tokIdent:
		p.advance()
		switch t.text {
		case "true":
			return Const{Val: types.Bool(true)}, nil
		case "false":
			return Const{Val: types.Bool(false)}, nil
		default:
			// Bare lowercase identifiers are string constants (node names).
			return Const{Val: types.String(t.text)}, nil
		}
	case tokOp:
		if t.text == "-" && p.peek2().kind == tokInt {
			p.advance()
			it := p.advance()
			n, err := strconv.ParseInt(it.text, 10, 64)
			if err != nil {
				return nil, p.errorf(it, "bad integer %q: %v", it.text, err)
			}
			return Const{Val: types.Int(-n)}, nil
		}
	}
	return nil, p.errorf(t, "expected atom argument, found %s %q", t.kind, t.text)
}

// parseConstraint parses expr cmpop expr.
func (p *parser) parseConstraint() (Constraint, error) {
	l, err := p.parseExpr()
	if err != nil {
		return Constraint{}, err
	}
	t := p.peek()
	if t.kind != tokOp || !isCmpOp(t.text) {
		return Constraint{}, p.errorf(t, "expected comparison operator, found %s %q", t.kind, t.text)
	}
	p.advance()
	r, err := p.parseExpr()
	if err != nil {
		return Constraint{}, err
	}
	return Constraint{Op: CmpOp(t.text), L: l, R: r}, nil
}

func isCmpOp(s string) bool {
	switch CmpOp(s) {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// parseExpr parses addition-level expressions: mul (('+'|'-') mul)*.
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "+" || p.peek().text == "-") {
		op := p.advance().text
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: BinOp(op), L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && (p.peek().text == "*" || p.peek().text == "/" || p.peek().text == "%") {
		op := p.advance().text
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: BinOp(op), L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if t := p.peek(); t.kind == tokOp && t.text == "-" {
		p.advance()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return BinExpr{Op: OpSub, L: ConstExpr{Val: types.Int(0)}, R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.advance()
		return VarExpr{Name: t.text}, nil
	case tokInt:
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf(t, "bad integer %q: %v", t.text, err)
		}
		return ConstExpr{Val: types.Int(n)}, nil
	case tokString:
		p.advance()
		return ConstExpr{Val: types.String(t.text)}, nil
	case tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		switch t.text {
		case "true":
			p.advance()
			return ConstExpr{Val: types.Bool(true)}, nil
		case "false":
			p.advance()
			return ConstExpr{Val: types.Bool(false)}, nil
		}
		if p.peek2().kind == tokLParen {
			return p.parseCall()
		}
		p.advance()
		return ConstExpr{Val: types.String(t.text)}, nil
	}
	return nil, p.errorf(t, "expected expression, found %s %q", t.kind, t.text)
}

func (p *parser) parseCall() (Expr, error) {
	name := p.advance() // IDENT
	p.advance()         // (
	call := CallExpr{Fn: name.text}
	if p.peek().kind != tokRParen {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if p.peek().kind == tokComma {
				p.advance()
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return call, nil
}
