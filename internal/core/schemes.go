package core

import (
	"fmt"
	"strings"

	"provcompress/internal/analysis"
	"provcompress/internal/engine"
	"provcompress/internal/ndlog"
	"provcompress/internal/types"
)

// Maintainer is the surface of a simulated maintenance scheme the facade
// and the experiments program against: the engine hooks (with per-node
// storage accounting) plus distributed querying. SimMaintainer implements
// it for every scheme.
type Maintainer interface {
	engine.Maintainer
	// QueryProvenance starts a distributed provenance query for an output
	// tuple; cb is invoked in virtual time with the result.
	QueryProvenance(out types.Tuple, evid types.ID, cb func(QueryResult))
}

// Canonical scheme names, as ResolveScheme returns them.
const (
	SchemeExSPAN             = "ExSPAN"
	SchemeBasic              = "Basic"
	SchemeAdvanced           = "Advanced"
	SchemeAdvancedInterClass = "Advanced+IC"
)

// SchemeNames lists the maintenance schemes the evaluation compares, in
// presentation order.
func SchemeNames() []string {
	return []string{SchemeExSPAN, SchemeBasic, SchemeAdvanced}
}

// AllSchemeNames additionally includes the Section 5.4 inter-class variant.
func AllSchemeNames() []string {
	return []string{SchemeExSPAN, SchemeBasic, SchemeAdvanced, SchemeAdvancedInterClass}
}

// NewNodeState is the one scheme-name → state machine switch
// (case-insensitive; "advanced-ic" is SchemeAdvancedInterClass's URL-safe
// spelling). keys are the program's equivalence keys; keysByEvent, when
// non-nil, overrides them per input event relation (multi-program
// deployments); only the Advanced schemes use either. Drivers resolve the
// name against their programs with ResolveScheme first.
func NewNodeState(scheme string, keys []int, keysByEvent map[string][]int) (NodeState, error) {
	switch strings.ToLower(scheme) {
	case "exspan":
		return NewExSPANState(), nil
	case "basic":
		return NewBasicState(), nil
	case "advanced":
		return newAdvancedState(keys, keysByEvent, false), nil
	case "advanced-ic", "advanced+ic":
		return newAdvancedState(keys, keysByEvent, true), nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %q (want exspan, basic, advanced or advanced-ic)", scheme)
	}
}

// ResolveScheme is the one place a scheme name is decided, for the
// simulator (NewSystem, NewMultiSystem) and the cluster (cluster.New)
// alike. It returns the canonical name and, under the schemes with a prov
// EVID column, refuses programs whose outputs of one equivalence class may
// land on different nodes (analysis.CheckAdvancedApplicableFor, on the
// rule set the programs deploy together).
func ResolveScheme(name string, progs ...*ndlog.Program) (string, error) {
	probe, err := NewNodeState(name, nil, nil)
	if err != nil {
		return "", err
	}
	if probe.EventByEvID() {
		merged, err := ndlog.MergePrograms(progs...)
		if err != nil {
			return "", err
		}
		if err := analysis.CheckAdvancedApplicableFor(merged, ndlog.InputEvents(progs...)); err != nil {
			return "", err
		}
	}
	return probe.Scheme(), nil
}

// NewScheme builds the simulator's maintainer for a scheme name.
func NewScheme(name string) (*SimMaintainer, error) {
	probe, err := NewNodeState(name, nil, nil)
	if err != nil {
		return nil, err
	}
	return &SimMaintainer{
		Cost:   DefaultQueryCost(),
		name:   probe.Scheme(),
		layout: probe.tables().layout,
	}, nil
}
