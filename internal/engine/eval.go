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

// EvalRuleScan is the reference oracle for the indexed path (property
// tests assert identical firings) and the baseline of the join A/B
// benchmark. It runs the same slot-compiled evaluator, but over a plan
// whose slow atoms stay in body order and whose every candidate comes from
// a full relation scan — no index, no reordering.
func EvalRuleScan(r *ndlog.Rule, db *Database, ev types.Tuple, funcs ndlog.FuncMap) ([]Firing, error) {
	return compileRule(r, false).Eval(db, ev, funcs)
}
