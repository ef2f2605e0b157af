// Rule compilation: at deploy time each rule's variables are assigned
// slots in a flat frame of values, and its event atom, slow-changing atoms,
// assignments, constraints and head are rewritten as reads and writes of
// those slots. The first occurrence of a variable (in evaluation order)
// binds its slot, every later occurrence is an equality check against it,
// and constants are compared in place; which of the two an occurrence is
// is fixed at compile time, so evaluation never looks a name up and
// backtracking has nothing to undo — the next candidate simply overwrites
// the slots its atom binds. The slow atoms are ordered and annotated with
// the attribute positions bound when the atom is joined, so evaluation
// probes one hash-index bucket per join step instead of scanning the
// relation. The bound-position information is the same attribute-level
// structure the Section 5.2 dependency graph (internal/analysis) derives;
// here it is specialized to the operational question "which values are
// known by step i".

package engine

import (
	"fmt"
	"strings"
	"sync"

	"provcompress/internal/ndlog"
	"provcompress/internal/types"
)

// argKind says what matching one atom argument against a tuple value does.
type argKind uint8

const (
	argConst argKind = iota // compare the value with a constant
	argBind                 // first occurrence of a variable: write its slot
	argCheck                // later occurrence: compare with its slot
)

// argOp is one compiled atom argument.
type argOp struct {
	kind argKind
	slot int         // argBind, argCheck
	val  types.Value // argConst
}

// match unifies a compiled atom with a tuple's values over the frame: it
// binds the slots the atom introduces and reports whether every constant
// and every already-bound variable agrees. A tuple of another arity never
// matches.
func match(ops []argOp, args []types.Value, frame []types.Value) bool {
	if len(ops) != len(args) {
		return false
	}
	for i := range ops {
		switch op := &ops[i]; op.kind {
		case argBind:
			frame[op.slot] = args[i]
		case argCheck:
			if !frame[op.slot].Equal(args[i]) {
				return false
			}
		default:
			if !op.val.Equal(args[i]) {
				return false
			}
		}
	}
	return true
}

// KeySource says how to produce one component of a join step's probe key:
// either a constant baked in at compile time or the slot of a variable
// bound by the event atom or an earlier join step.
type KeySource struct {
	Pos   int         // attribute position in the slow atom
	Slot  int         // frame slot of the bound variable; -1 for a constant
	Const types.Value // the constant, when Slot is -1
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
	args      []argOp
}

// assign is a compiled assignment: evaluate e, write slot.
type assign struct {
	slot int
	e    expr
}

// headArg produces one head attribute: a slot read, or the constant when
// slot is -1.
type headArg struct {
	slot int
	val  types.Value
}

// RulePlan is a rule compiled for evaluation.
type RulePlan struct {
	Rule  *ndlog.Rule
	Steps []JoinStep

	slots       int // frame size: one per atom variable plus one per assignment
	event       []argOp
	assigns     []assign
	constraints []constraint
	head        []headArg
	// unboundHead names the first head variable nothing binds; firing such
	// a rule is an error.
	unboundHead string
}

// CompileRule builds the plan of a rule: slow atoms are ordered greedily
// by how many of their attribute positions are bound (constants,
// event-atom variables, and variables bound by already-placed atoms), ties
// broken by body order so plans are deterministic.
func CompileRule(r *ndlog.Rule) *RulePlan { return compileRule(r, true) }

// compileRule compiles r. With indexed false the slow atoms stay in body
// order and no step gets a probe key, so every candidate comes from a
// relation scan — the plan of the EvalRuleScan oracle.
func compileRule(r *ndlog.Rule, indexed bool) *RulePlan {
	// slots is the compile-time scope: the frame slot of every variable
	// bound so far.
	slots := make(map[string]int)
	plan := &RulePlan{Rule: r, Steps: make([]JoinStep, 0, len(r.Slow))}
	slotOf := func(name string) int {
		s := plan.slots
		plan.slots++
		slots[name] = s
		return s
	}
	compileAtom := func(atom ndlog.Atom) []argOp {
		ops := make([]argOp, len(atom.Args))
		for i, term := range atom.Args {
			switch term := term.(type) {
			case ndlog.Const:
				ops[i] = argOp{kind: argConst, val: term.Val}
			case ndlog.Var:
				if s, ok := slots[term.Name]; ok {
					ops[i] = argOp{kind: argCheck, slot: s}
				} else {
					ops[i] = argOp{kind: argBind, slot: slotOf(term.Name)}
				}
			}
		}
		return ops
	}

	plan.event = compileAtom(r.Event)
	placed := make([]bool, len(r.Slow))
	for len(plan.Steps) < len(r.Slow) {
		best, bestScore := -1, -1
		for i, atom := range r.Slow {
			if placed[i] {
				continue
			}
			score := 0
			if indexed {
				score = boundPositions(atom, slots)
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		placed[best] = true
		st := JoinStep{Atom: r.Slow[best], SlowIdx: best}
		if indexed {
			st.Keys, st.positions = probeKeys(st.Atom, slots)
		}
		st.args = compileAtom(st.Atom)
		plan.Steps = append(plan.Steps, st)
	}

	// Assignments run in order, each seeing the ones before it. An
	// assignment always gets a fresh slot, even for a name an atom already
	// bound: the atom's slot must survive for the next join candidate.
	for _, a := range r.Assigns {
		e := compileExpr(a.Expr, slots)
		plan.assigns = append(plan.assigns, assign{slot: slotOf(a.Var), e: e})
	}
	for _, c := range r.Constraints {
		plan.constraints = append(plan.constraints,
			constraint{op: c.Op, l: compileExpr(c.L, slots), r: compileExpr(c.R, slots)})
	}
	plan.head = make([]headArg, len(r.Head.Args))
	for i, term := range r.Head.Args {
		switch term := term.(type) {
		case ndlog.Const:
			plan.head[i] = headArg{slot: -1, val: term.Val}
		case ndlog.Var:
			s, ok := slots[term.Name]
			if !ok && plan.unboundHead == "" {
				plan.unboundHead = term.Name
			}
			plan.head[i] = headArg{slot: s}
		}
	}
	return plan
}

// boundPositions counts the attribute positions of an atom whose value is
// known given the variables bound so far.
func boundPositions(atom ndlog.Atom, bound map[string]int) int {
	n := 0
	for _, term := range atom.Args {
		switch term := term.(type) {
		case ndlog.Const:
			n++
		case ndlog.Var:
			if _, ok := bound[term.Name]; ok {
				n++
			}
		}
	}
	return n
}

// probeKeys derives the probe-key recipe for an atom joined with the given
// variables bound, and the position list identifying the index it probes.
// Positions beyond the index mask width are left to matching (they cannot
// occur at realistic arities).
func probeKeys(atom ndlog.Atom, bound map[string]int) ([]KeySource, []int) {
	var keys []KeySource
	for i, term := range atom.Args {
		if i >= maxIndexedPos {
			break
		}
		switch term := term.(type) {
		case ndlog.Const:
			keys = append(keys, KeySource{Pos: i, Slot: -1, Const: term.Val})
		case ndlog.Var:
			if s, ok := bound[term.Name]; ok {
				keys = append(keys, KeySource{Pos: i, Slot: s})
			}
		}
	}
	positions := make([]int, len(keys))
	for i, k := range keys {
		positions[i] = k.Pos
	}
	return keys, positions
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

// Frames up to these sizes live on the evaluating goroutine's stack; a
// rule with more variables or slow atoms gets heap ones.
const (
	stackSlots = 16
	stackSlow  = 4
)

// joinState is what one evaluation of a plan reads and produces. These
// fields reach the heap (the event and the rule are copied into firings,
// the database takes locks), which is why the stack buffers live apart in
// scratch: escape analysis does not tell the fields of a struct apart, so
// one struct holding both would drag the buffers off the stack.
type joinState struct {
	plan    *RulePlan
	db      *Database
	ev      types.Tuple
	funcs   ndlog.FuncMap
	firings []Firing
	// slow is the slab each firing's Slow list is carved from.
	slow []types.Tuple
}

// scratch is the working memory of one evaluation: the frame and the slow
// tuples joined so far (by body position).
type scratch struct {
	frame []types.Value
	slow  []types.Tuple
}

// Eval computes every firing of the compiled rule triggered by the event
// tuple ev against db, in candidate order. Each join step probes the
// secondary hash index for its bound positions (building it on first use);
// candidates from the bucket still pass through the full match, which
// re-checks the bound positions and handles repeated variables. The
// database read lock is held for the whole join, so concurrent inserts and
// deletes cannot disturb the buckets mid-evaluation. An evaluation that
// does not fire allocates nothing; one that does allocates the returned
// slice, the slab of the firings' Slow lists and, per firing, the head's
// Args (a user-defined function call additionally allocates its argument
// list). The firings own their memory, so a caller may keep them — in a
// provenance tree, say; one that consumes them at once reuses its buffers
// through EvalAppend instead.
func (p *RulePlan) Eval(db *Database, ev types.Tuple, funcs ndlog.FuncMap) ([]Firing, error) {
	fs, _, err := p.EvalAppend(nil, nil, db, ev, funcs)
	return fs, err
}

// EvalAppend is Eval into the caller's buffers: it appends the firings to
// dst and carves each one's Slow list out of the slow slab, returning both
// grown. Each Slow list is capped at its own length, so a later append to
// the slab never writes over an earlier firing's list. Warm buffers leave
// one allocation per firing, its head's Args. A failed evaluation returns
// dst and slow unchanged, with no partial firings. Reusing the buffers for
// the next evaluation overwrites these firings, so the caller must be done
// with them — or have copied what it keeps — by then.
func (p *RulePlan) EvalAppend(dst []Firing, slow []types.Tuple, db *Database, ev types.Tuple, funcs ndlog.FuncMap) ([]Firing, []types.Tuple, error) {
	if ev.Rel != p.Rule.Event.Rel {
		return dst, slow, nil
	}
	var (
		frameBuf [stackSlots]types.Value
		slowBuf  [stackSlow]types.Tuple
		sc       scratch
	)
	if p.slots <= stackSlots {
		sc.frame = frameBuf[:p.slots]
	} else {
		sc.frame = make([]types.Value, p.slots)
	}
	if len(p.Steps) <= stackSlow {
		sc.slow = slowBuf[:len(p.Steps)]
	} else {
		sc.slow = make([]types.Tuple, len(p.Steps))
	}
	if !match(p.event, ev.Args, sc.frame) {
		return dst, slow, nil
	}
	st := joinState{plan: p, db: db, ev: ev, funcs: funcs, firings: dst, slow: slow}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := st.join(0, &sc); err != nil {
		return dst, slow, err
	}
	return st.firings, st.slow, nil
}

// join extends the partial match with the candidates of step i and
// recurses; past the last step it fires.
func (st *joinState) join(i int, sc *scratch) error {
	if i == len(st.plan.Steps) {
		return st.fire(sc)
	}
	step := &st.plan.Steps[i]
	if len(step.Keys) == 0 {
		for _, cand := range st.db.scanLocked(step.Atom.Rel) {
			if err := st.try(i, cand, sc); err != nil {
				return err
			}
		}
		return nil
	}
	var keyBuf [64]byte
	key := keyBuf[:0]
	for _, k := range step.Keys {
		if k.Slot >= 0 {
			key = sc.frame[k.Slot].AppendEncode(key)
		} else {
			key = k.Const.AppendEncode(key)
		}
	}
	rows, next, p := st.db.bucketLocked(step.Atom.Rel, step.positions, key)
	for ; p != noRow; p = next[p] {
		if err := st.try(i, rows[p], sc); err != nil {
			return err
		}
	}
	return nil
}

// try extends the partial match with one candidate of step i: if it
// matches, the join goes on to the next step.
func (st *joinState) try(i int, cand types.Tuple, sc *scratch) error {
	step := &st.plan.Steps[i]
	if !match(step.args, cand.Args, sc.frame) {
		return nil
	}
	sc.slow[step.SlowIdx] = cand
	return st.join(i+1, sc)
}

// fire completes a full join: run the assignments, filter on the
// constraints, and instantiate the head from the frame.
func (st *joinState) fire(sc *scratch) error {
	p, r := st.plan, st.plan.Rule
	for i := range p.assigns {
		v, err := p.assigns[i].e.eval(sc.frame, st.funcs)
		if err != nil {
			return fmt.Errorf("engine: rule %s: %s: %w", r.Label, r.Assigns[i], err)
		}
		sc.frame[p.assigns[i].slot] = v
	}
	for i := range p.constraints {
		ok, err := p.constraints[i].eval(sc.frame, st.funcs)
		if err != nil {
			return fmt.Errorf("engine: rule %s: %s: %w", r.Label, r.Constraints[i], err)
		}
		if !ok {
			return nil
		}
	}
	if p.unboundHead != "" {
		return fmt.Errorf("engine: rule %s: unbound head variable %s", r.Label, p.unboundHead)
	}
	args := make([]types.Value, len(p.head))
	for i, h := range p.head {
		if h.slot >= 0 {
			args[i] = sc.frame[h.slot]
		} else {
			args[i] = h.val
		}
	}
	var slow []types.Tuple
	if len(sc.slow) > 0 {
		n := len(st.slow)
		st.slow = append(st.slow, sc.slow...)
		slow = st.slow[n:len(st.slow):len(st.slow)]
	}
	st.firings = append(st.firings, Firing{
		Rule:  r,
		Event: st.ev,
		Slow:  slow,
		Head:  types.Tuple{Rel: r.Head.Rel, Args: args},
	})
	return nil
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

// EvalAppend evaluates a rule through its compiled plan into the caller's
// buffers (RulePlan.EvalAppend).
func (ps *Plans) EvalAppend(dst []Firing, slow []types.Tuple, r *ndlog.Rule, db *Database, ev types.Tuple, funcs ndlog.FuncMap) ([]Firing, []types.Tuple, error) {
	return ps.For(r).EvalAppend(dst, slow, db, ev, funcs)
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
