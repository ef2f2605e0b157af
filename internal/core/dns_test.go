package core

import (
	"fmt"
	"testing"

	"provcompress/internal/apps"
	"provcompress/internal/engine"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// dnsRuntime builds a small DNS hierarchy with clients and returns the
// runtime plus the resolvable URL records.
func dnsRuntime(t *testing.T, maint engine.Maintainer) (*engine.Runtime, []topo.URLRecord, []types.NodeAddr) {
	t.Helper()
	tree := topo.GenDNSTree(topo.DNSTreeConfig{NumServers: 12, MaxDepth: 5, Seed: 3})
	clients := tree.AttachClients(2)
	urls := tree.PickURLs(4)

	var sched sim.Scheduler
	net := netsim.New(&sched, tree.Graph)
	rt := engine.NewRuntime(net, apps.DNS(), apps.Funcs(), maint)
	if err := rt.LoadBase(tree.NameServerTuples(clients)); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadBase(topo.AddressRecordTuples(urls)); err != nil {
		t.Fatal(err)
	}
	return rt, urls, clients
}

func urlEvent(host types.NodeAddr, url string, rqid int) types.Tuple {
	return types.NewTuple("url", types.String(string(host)), types.String(url), types.Int(int64(rqid)))
}

// TestDNSResolutionEndToEnd runs the Figure 19 program: every request is
// answered with the right IP at the right client.
func TestDNSResolutionEndToEnd(t *testing.T) {
	rec := NewRecorder()
	rt, urls, clients := dnsRuntime(t, rec)
	for i, u := range urls {
		rt.InjectAt(0, urlEvent(clients[i%len(clients)], u.URL, i))
	}
	rt.Run()
	checkNoErrors(t, rt)

	if rt.NumOutputs() != int64(len(urls)) {
		t.Fatalf("outputs = %d, want %d", rt.NumOutputs(), len(urls))
	}
	for i, u := range urls {
		want := types.NewTuple("reply",
			types.String(string(clients[i%len(clients)])), types.String(u.URL),
			types.String(u.IP), types.Int(int64(i)))
		found := false
		for _, o := range rt.Outputs() {
			if o.Tuple.Equal(want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing reply %v", want)
		}
	}
	// Every tree ends at rule r4 and starts at rule r1's url event.
	for _, tr := range rec.Trees() {
		if tr.Rule != "r4" {
			t.Errorf("root rule = %s, want r4", tr.Rule)
		}
		if tr.EventOf().Rel != "url" {
			t.Errorf("leaf event relation = %s, want url", tr.EventOf().Rel)
		}
		if tr.Depth() < 3 {
			t.Errorf("tree depth = %d, want >= 3 (r1, r3, r4 at least)", tr.Depth())
		}
	}
}

// TestDNSQueryAllSchemes checks the compressed schemes reconstruct the DNS
// provenance trees exactly.
func TestDNSQueryAllSchemes(t *testing.T) {
	rec := NewRecorder()
	rrt, urls, clients := dnsRuntime(t, rec)
	var evs []types.Tuple
	for i, u := range urls {
		evs = append(evs, urlEvent(clients[i%len(clients)], u.URL, i))
	}
	injectSpaced(rrt, evs...)
	rrt.Run()
	checkNoErrors(t, rrt)

	for _, m := range []queryMaintainer{mustScheme(SchemeExSPAN), mustScheme(SchemeBasic), mustScheme(SchemeAdvanced), mustScheme(SchemeAdvancedInterClass)} {
		t.Run(m.Name(), func(t *testing.T) {
			rt, _, _ := dnsRuntime(t, m)
			injectSpaced(rt, evs...)
			rt.Run()
			checkNoErrors(t, rt)

			for _, tr := range rec.Trees() {
				res := runQuery(t, rt, m, tr.Output, tr.EvID())
				if len(res.Trees) != 1 {
					t.Fatalf("%s: query %v: %d trees, want 1", m.Name(), tr.Output, len(res.Trees))
				}
				if !res.Trees[0].Equal(tr) {
					t.Errorf("%s: tree mismatch for %v:\ngot:\n%s\nwant:\n%s",
						m.Name(), tr.Output, res.Trees[0], tr)
				}
			}
		})
	}
}

// TestDNSEquivalenceClassesByURL checks the Section 6.2 claim driving
// Figure 14: the number of shared chains Advanced maintains grows with the
// number of distinct (host, URL) pairs, not with the number of requests.
func TestDNSEquivalenceClassesByURL(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt, urls, clients := dnsRuntime(t, a)
	host := clients[0]
	// 12 requests, but only 3 distinct URLs from one host.
	var evs []types.Tuple
	for i := 0; i < 12; i++ {
		evs = append(evs, urlEvent(host, urls[i%3].URL, i))
	}
	injectSpaced(rt, evs...)
	rt.Run()
	checkNoErrors(t, rt)

	if rt.NumOutputs() != 12 {
		t.Fatalf("outputs = %d, want 12", rt.NumOutputs())
	}
	// htequi at the origin host has exactly 3 classes.
	if n := len(a.states[host].tables().htequi); n != 3 {
		t.Errorf("classes = %d, want 3", n)
	}
	// prov rows: one per request, all at the client.
	if n := len(a.ProvRows(host)); n != 12 {
		t.Errorf("prov rows at client = %d, want 12", n)
	}
}

// TestDNSKeysIncludeHostAndURL pins the analysis result the runtime uses.
func TestDNSKeysIncludeHostAndURL(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt, _, _ := dnsRuntime(t, a)
	_ = rt
	keys := a.Keys()
	if len(keys) != 2 || keys[0] != 0 || keys[1] != 1 {
		t.Errorf("keys = %v, want [0 1]", keys)
	}
}

// TestDNSDelegationAmbiguity: two sibling delegations where only one covers
// the URL — r2 must follow exactly the matching child.
func TestDNSDelegationAmbiguity(t *testing.T) {
	g := topo.NewGraph()
	g.MustAddLink("root", "a", topo.NSLinkLatency, topo.NSLinkBandwidth)
	g.MustAddLink("root", "b", topo.NSLinkLatency, topo.NSLinkBandwidth)
	g.MustAddLink("host", "root", topo.ClientLinkLatency, topo.ClientLinkBandwidth)

	var sched sim.Scheduler
	net := netsim.New(&sched, g)
	rec := NewRecorder()
	rt := engine.NewRuntime(net, apps.DNS(), apps.Funcs(), rec)
	base := []types.Tuple{
		types.NewTuple("rootServer", types.String("host"), types.String("root")),
		types.NewTuple("nameServer", types.String("root"), types.String("alpha"), types.String("a")),
		types.NewTuple("nameServer", types.String("root"), types.String("beta"), types.String("b")),
		types.NewTuple("addressRecord", types.String("a"), types.String("www.alpha"), types.String("10.0.0.1")),
		types.NewTuple("addressRecord", types.String("b"), types.String("www.beta"), types.String("10.0.0.2")),
	}
	if err := rt.LoadBase(base); err != nil {
		t.Fatal(err)
	}
	rt.Inject(urlEvent("host", "www.alpha", 1))
	rt.Run()
	checkNoErrors(t, rt)

	if rt.NumOutputs() != 1 {
		t.Fatalf("outputs = %d, want 1", rt.NumOutputs())
	}
	out := rt.Outputs()[0].Tuple
	if out.Args[2].AsString() != "10.0.0.1" {
		t.Errorf("resolved to %v, want 10.0.0.1 via nameserver a", out)
	}
	// The tree passes through exactly one delegation (r2 once).
	tr := rec.Trees()[0]
	r2Count := 0
	for cur := tr; cur != nil; cur = cur.Child {
		if cur.Rule == "r2" {
			r2Count++
		}
	}
	if r2Count != 1 {
		t.Errorf("r2 executions = %d, want 1\n%s", r2Count, tr)
	}
}

// TestDNSManyRequestsLossless is a heavier randomized check: many repeated
// requests, then every reply's provenance is queried under Advanced.
func TestDNSManyRequestsLossless(t *testing.T) {
	rec := NewRecorder()
	rrt, urls, clients := dnsRuntime(t, rec)
	var evs []types.Tuple
	for i := 0; i < 30; i++ {
		evs = append(evs, urlEvent(clients[i%len(clients)], urls[i%len(urls)].URL, i))
	}
	injectSpaced(rrt, evs...)
	rrt.Run()

	a := mustScheme(SchemeAdvanced)
	rt, _, _ := dnsRuntime(t, a)
	injectSpaced(rt, evs...)
	rt.Run()
	checkNoErrors(t, rt)

	for i, tr := range rec.Trees() {
		res := runQuery(t, rt, a, tr.Output, tr.EvID())
		if len(res.Trees) != 1 || !res.Trees[0].Equal(tr) {
			t.Fatalf("tree %d mismatch (%s)", i, fmt.Sprint(tr.Output))
		}
	}
}
