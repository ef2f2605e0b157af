package ndlog

import (
	"fmt"
)

// MergePrograms combines several DELPs into one rule set for joint
// deployment — the Section 8 future-work scenario of multiple network
// protocols running concurrently and sharing execution rules. Each input
// program must be a valid DELP on its own; rules that are textually
// identical across programs (same label, same structure) are shared, which
// is what lets the provenance compression share their rule-execution nodes
// across programs.
//
// The merge rejects combinations that would change semantics:
//
//   - two different rules with the same label (RIDs would collide);
//   - a relation used with inconsistent arities;
//   - a slow-changing relation of one program that another program derives
//     (condition 3 of Definition 1, applied across the union).
func MergePrograms(progs ...*Program) (*Program, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("ndlog: merge of zero programs")
	}
	for _, p := range progs {
		if err := p.ValidateDELP(); err != nil {
			return nil, fmt.Errorf("ndlog: merge input %q: %w", p.Name, err)
		}
	}
	merged := &Program{Name: "merged"}
	byLabel := make(map[string]*Rule)
	for _, p := range progs {
		for _, r := range p.Rules {
			if prev, ok := byLabel[r.Label]; ok {
				if prev.String() != r.String() {
					return nil, fmt.Errorf(
						"ndlog: merge: label %s names different rules:\n  %s\n  %s",
						r.Label, prev, r)
				}
				continue // identical shared rule
			}
			byLabel[r.Label] = r
			merged.Rules = append(merged.Rules, r)
		}
	}
	if _, err := merged.Arities(); err != nil {
		return nil, fmt.Errorf("ndlog: merge: %w", err)
	}
	heads := merged.HeadRelations()
	for _, r := range merged.Rules {
		for _, s := range r.Slow {
			if heads[s.Rel] {
				return nil, fmt.Errorf(
					"ndlog: merge: relation %s is slow-changing in rule %s but derived by another program",
					s.Rel, r.Label)
			}
		}
	}
	merged.indexEvents()
	return merged, nil
}

// InputEvents returns the input event relations of the original programs,
// deduplicated in order — the relations whose tuples are injected from
// outside.
func InputEvents(progs ...*Program) []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range progs {
		ev := p.InputEvent()
		if ev != "" && !seen[ev] {
			seen[ev] = true
			out = append(out, ev)
		}
	}
	return out
}
