package core

import (
	"fmt"
	"strings"

	"provcompress/internal/engine"
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

// Scheme names accepted by NewScheme.
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

// newNodeState is the one scheme-name → state machine switch
// (case-insensitive; "advanced-ic" and "advanced+ic" both select the
// Section 5.4 inter-class variant). keys are the program's equivalence
// keys; keysByEvent, when non-nil, overrides them per input event relation
// (multi-program deployments). Only the Advanced schemes use either.
func newNodeState(scheme string, keys []int, keysByEvent map[string][]int) (NodeState, error) {
	switch strings.ToLower(scheme) {
	case "exspan":
		return NewExSPANState(), nil
	case "basic":
		return NewBasicState(), nil
	case "advanced":
		return newAdvancedState(keys, keysByEvent, false), nil
	case "advanced+ic", "advanced-ic", "advancedic", "interclass":
		return newAdvancedState(keys, keysByEvent, true), nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %q (want exspan, basic, advanced, or advanced-ic)", scheme)
	}
}

// NewNodeState builds the per-node state machine a cluster transport
// drives, by scheme name (SchemeExSPAN, SchemeBasic, SchemeAdvanced); keys
// are the program's equivalence keys (used by Advanced only). The
// inter-class variant is not served over the cluster transport.
func NewNodeState(scheme string, keys []int) (NodeState, error) {
	st, err := newNodeState(scheme, append([]int(nil), keys...), nil)
	if err != nil {
		return nil, err
	}
	if st.Scheme() == SchemeAdvancedInterClass {
		return nil, fmt.Errorf("core: scheme %s is not available on the cluster transport", scheme)
	}
	return st, nil
}

// NewScheme builds the simulator's maintainer for a scheme name.
func NewScheme(name string) (*SimMaintainer, error) {
	probe, err := newNodeState(name, nil, nil)
	if err != nil {
		return nil, err
	}
	return &SimMaintainer{
		Cost:   DefaultQueryCost(),
		name:   probe.Scheme(),
		layout: probe.tables().layout,
	}, nil
}
