package core

import (
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/engine"
	"provcompress/internal/ndlog"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// fig2Runtime builds the paper's running example: the 3-node topology of
// Figure 2 running the packet forwarding program with the routes of the
// figure loaded.
func fig2Runtime(t *testing.T, maint engine.Maintainer) *engine.Runtime {
	t.Helper()
	var sched sim.Scheduler
	net := netsim.New(&sched, topo.Fig2())
	rt := engine.NewRuntime(net, apps.Forwarding(), apps.Funcs(), maint)
	if err := rt.LoadBase(topo.Fig2Routes()); err != nil {
		t.Fatal(err)
	}
	return rt
}

// mustScheme builds the simulator maintainer for a known scheme name.
func mustScheme(name string) *SimMaintainer {
	m, err := NewScheme(name)
	if err != nil {
		panic(err)
	}
	return m
}

func packet(loc, src, dst, data string) types.Tuple {
	return types.NewTuple("packet",
		types.String(loc), types.String(src), types.String(dst), types.String(data))
}

func recvTuple(loc, src, dst, data string) types.Tuple {
	return types.NewTuple("recv",
		types.String(loc), types.String(src), types.String(dst), types.String(data))
}

func routeTuple(loc, dst, next string) types.Tuple {
	return types.NewTuple("route",
		types.String(loc), types.String(dst), types.String(next))
}

// runQuery drives a provenance query to completion in virtual time and
// returns the result.
func runQuery(t *testing.T, rt *engine.Runtime, q interface {
	QueryProvenance(types.Tuple, types.ID, func(QueryResult))
}, out types.Tuple, evid types.ID) QueryResult {
	t.Helper()
	var res QueryResult
	done := false
	q.QueryProvenance(out, evid, func(r QueryResult) { res = r; done = true })
	rt.Run()
	if !done {
		t.Fatal("query did not complete")
	}
	return res
}

// mustDELPSrc parses and validates a DELP from source.
func mustDELPSrc(t *testing.T, src string) *ndlog.Program {
	t.Helper()
	p, err := ndlog.ParseDELP(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkNoErrors fails the test if the runtime collected evaluation errors.
func checkNoErrors(t *testing.T, rt *engine.Runtime) {
	t.Helper()
	for _, err := range rt.Errors() {
		t.Errorf("runtime error: %v", err)
	}
}

// injectSpaced injects events one millisecond apart starting at t=0.
func injectSpaced(rt *engine.Runtime, evs ...types.Tuple) {
	for i, ev := range evs {
		rt.InjectAt(time.Duration(i)*time.Millisecond, ev)
	}
}
