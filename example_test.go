package provcompress_test

import (
	"fmt"
	"sort"
	"time"

	"provcompress"
	"provcompress/internal/metrics"
	"provcompress/internal/scenario"
	"provcompress/internal/topo"
	"provcompress/internal/workload"
)

// The packet-forwarding program of the paper's Figure 1, parsed from
// source and statically analyzed.
func ExampleEquivalenceKeys() {
	prog, err := provcompress.ParseDELP(`
r1 packet(@N, S, D, DT) :- packet(@L, S, D, DT), route(@L, D, N).
r2 recv(@L, S, D, DT)   :- packet(@L, S, D, DT), D == L.
`)
	if err != nil {
		panic(err)
	}
	fmt.Println(provcompress.EquivalenceKeys(prog))
	// Output: [0 2]
}

// Running the Figure 2 scenario end to end under equivalence-based
// compression and querying the received packet's provenance.
func ExampleSystem_Query() {
	sys, err := provcompress.NewSystem(
		provcompress.Fig2(),
		provcompress.ForwardingProgram(),
		provcompress.SchemeAdvanced,
		nil)
	if err != nil {
		panic(err)
	}
	if err := sys.LoadBase(provcompress.Fig2Routes()...); err != nil {
		panic(err)
	}

	ev := provcompress.NewTuple("packet",
		provcompress.Str("n1"), provcompress.Str("n1"),
		provcompress.Str("n3"), provcompress.Str("data"))
	sys.Inject(ev)
	if err := sys.Run(); err != nil {
		panic(err)
	}

	res, err := sys.Query(sys.Outputs()[0], provcompress.HashTuple(ev))
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Trees[0])
	// Output:
	// recv(@n3, "n1", "n3", "data") <- r2
	//   packet(@n3, "n1", "n3", "data") <- r1 [route(@n2, "n3", "n3")]
	//     packet(@n2, "n1", "n3", "data") <- r1 [route(@n1, "n3", "n2")]
	//       event packet(@n1, "n1", "n3", "data")
}

// Two packets of one equivalence class share a single provenance chain;
// the storage at the intermediate node does not grow with the second
// packet. The second packet's tree was never stored, yet it is queryable:
// the query re-derives it from the shared chain plus the packet's event
// (TRANSFORM_TO_D, Section 5.6).
func ExampleSystem_compression() {
	sys, _ := provcompress.NewSystem(provcompress.Fig2(),
		provcompress.ForwardingProgram(), provcompress.SchemeAdvanced, nil)
	_ = sys.LoadBase(provcompress.Fig2Routes()...)

	pkt := func(payload string) provcompress.Tuple {
		return provcompress.NewTuple("packet",
			provcompress.Str("n1"), provcompress.Str("n1"),
			provcompress.Str("n3"), provcompress.Str(payload))
	}
	sys.Inject(pkt("first"))
	_ = sys.Run()
	after1 := sys.StorageBytes("n2")
	second := pkt("second")
	sys.Inject(second)
	_ = sys.Run()
	after2 := sys.StorageBytes("n2")
	fmt.Println(after1 == after2)

	res, _ := sys.Query(provcompress.NewTuple("recv", provcompress.Str("n3"),
		second.Args[1], second.Args[2], second.Args[3]), provcompress.HashTuple(second))
	fmt.Printf("%d protocol hops:\n%s", res.Hops, res.Trees[0])
	// Output:
	// true
	// 3 protocol hops:
	// recv(@n3, "n1", "n3", "second") <- r2
	//   packet(@n3, "n1", "n3", "second") <- r1 [route(@n2, "n3", "n3")]
	//     packet(@n2, "n1", "n3", "second") <- r1 [route(@n1, "n3", "n2")]
	//       event packet(@n1, "n1", "n3", "second")
}

// Merging programs for joint deployment (the Section 8 extension): shared
// rules collapse.
func ExampleMergePrograms() {
	tap, _ := provcompress.ParseDELP(
		`t1 mirror(@M, S, D, DT) :- packet(@L, S, D, DT), tap(@L, M).`)
	merged, err := provcompress.MergePrograms(provcompress.ForwardingProgram(), tap)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(merged.Rules))
	// Output: 3
}

// Validation errors from the DELP restriction (Definition 1) are precise.
func ExampleParseDELP_invalid() {
	_, err := provcompress.ParseDELP(`
r1 a(@L, X) :- e(@L, X).
r2 c(@L, X) :- d(@L, X).
`)
	fmt.Println(err != nil)
	// Output: true
}

// Section 6.1's storage comparison at example scale: the forwarding DELP
// over the 100-node transit-stub topology under all three schemes, with
// 20 stub-node pairs each sending 20 packets per second for 5 seconds.
// Advanced keeps one shared provenance chain per (source, destination)
// equivalence class plus a prov row per packet, so its storage is an
// order of magnitude below ExSPAN's while its wire traffic stays within a
// few percent (Figures 9 and 11 of the paper).
func ExampleForwardingProgram() {
	ts := topo.GenTransitStub(topo.DefaultTransitStub())
	diameter, mean := ts.Graph.HopStats()
	fmt.Printf("transit-stub topology: %d nodes (%d transit), hop diameter %d, mean distance %.1f\n\n",
		ts.Graph.NumNodes(), len(ts.Transit), diameter, mean)

	routes := ts.Graph.ShortestPaths().RouteTuples()
	chosen := workload.ChoosePairs(ts.Stubs, 20, 1)
	var table [][]string
	var exspan int64
	for _, scheme := range []string{
		provcompress.SchemeExSPAN, provcompress.SchemeBasic, provcompress.SchemeAdvanced,
	} {
		sys, err := provcompress.NewSystem(ts.Graph, provcompress.ForwardingProgram(), scheme, nil)
		if err != nil {
			panic(err)
		}
		if err := sys.LoadBase(routes...); err != nil {
			panic(err)
		}
		w := workload.PairTraffic{Pairs: chosen, Rate: 20, PayloadBytes: 500, Duration: 5 * time.Second}
		w.Schedule(sys.Runtime, 0)
		if err := sys.Run(); err != nil {
			panic(err)
		}
		storage, packets := sys.TotalStorageBytes(), sys.Runtime.Injected()
		if exspan == 0 {
			exspan = storage
		}
		table = append(table, []string{
			scheme,
			fmt.Sprint(packets),
			metrics.HumanBytes(storage),
			metrics.HumanBytes(storage/packets) + "/pkt",
			fmt.Sprintf("%.1fx", float64(exspan)/float64(storage)),
			metrics.HumanBytes(sys.NetworkBytes()),
		})
	}
	fmt.Println(metrics.FormatTable(
		[]string{"scheme", "packets", "prov storage", "per packet", "vs ExSPAN", "wire traffic"},
		table))
	// Output:
	// transit-stub topology: 100 nodes (4 transit), hop diameter 12, mean distance 6.3
	//
	// scheme    packets  prov storage  per packet  vs ExSPAN  wire traffic
	// --------  -------  ------------  ----------  ---------  ------------
	// ExSPAN    2000     1.9 MB        969 B/pkt   1.0x       7.7 MB
	// Basic     2000     1.3 MB        634 B/pkt   1.5x       7.7 MB
	// Advanced  2000     165.0 KB      82 B/pkt    11.8x      7.8 MB
}

// The recursive DNS resolution DELP of Figure 19 over a synthetic
// nameserver hierarchy (Section 6.2): clients issue Zipfian requests for a
// fixed URL population under equivalence-based compression, and the
// provenance of the last reply is its delegation chain from the root
// nameserver down to the authoritative server.
func ExampleDNSProgram() {
	const servers, requests = 40, 200
	tree := topo.GenDNSTree(topo.DNSTreeConfig{NumServers: servers, MaxDepth: 12, Seed: 1})
	clients := tree.AttachClients(3)
	records := tree.PickURLs(12)
	fmt.Printf("nameserver hierarchy: %d servers, max depth %d, %d URLs, %d clients\n\n",
		servers, tree.MaxObservedDepth(), len(records), len(clients))

	sys, err := provcompress.NewSystem(tree.Graph, provcompress.DNSProgram(),
		provcompress.SchemeAdvanced, provcompress.BuiltinFuncs())
	if err != nil {
		panic(err)
	}
	if err := sys.LoadBase(tree.NameServerTuples(clients)...); err != nil {
		panic(err)
	}
	if err := sys.LoadBase(topo.AddressRecordTuples(records)...); err != nil {
		panic(err)
	}
	names := make([]string, len(records))
	for i, u := range records {
		names[i] = u.URL
	}
	w := workload.DNSTraffic{URLs: names, Clients: clients, Rate: 500, Alpha: 0.9, Seed: 7, Count: requests}
	w.Schedule(sys.Runtime, 0)
	if err := sys.Run(); err != nil {
		panic(err)
	}

	outs := sys.Outputs()
	fmt.Printf("resolved %d of %d requests\n", len(outs), requests)
	fmt.Printf("provenance storage: %s total (%s per request)\n",
		metrics.HumanBytes(sys.TotalStorageBytes()),
		metrics.HumanBytes(sys.TotalStorageBytes()/int64(len(outs))))

	// The five most requested URLs, ties broken by name.
	counts := make(map[string]int)
	for _, o := range outs {
		counts[o.Args[1].AsString()]++
	}
	top := make([]string, 0, len(counts))
	for u := range counts {
		top = append(top, u)
	}
	sort.Slice(top, func(i, j int) bool {
		if counts[top[i]] != counts[top[j]] {
			return counts[top[i]] > counts[top[j]]
		}
		return top[i] < top[j]
	})
	fmt.Printf("\nZipfian popularity (top 5):\n")
	for _, u := range top[:min(5, len(top))] {
		fmt.Printf("  %-28s %4d requests\n", u, counts[u])
	}

	out := outs[len(outs)-1]
	res, err := sys.Query(out, provcompress.ZeroID)
	if err != nil {
		panic(err)
	}
	if len(res.Trees) == 0 {
		panic(fmt.Sprintf("no provenance for %s", out))
	}
	fmt.Printf("\nprovenance of %s\n(%d protocol hops, %d bytes moved):\n%s",
		out, res.Hops, res.Bytes, res.Trees[0])
	// Output:
	// nameserver hierarchy: 40 servers, max depth 12, 12 URLs, 3 clients
	//
	// resolved 200 of 200 requests
	// provenance storage: 26.9 KB total (134 B per request)
	//
	// Zipfian popularity (top 5):
	//   www.d1                         54 requests
	//   www.d2.d1                      34 requests
	//   www.d4.d3.d2.d1                15 requests
	//   www.d17.d15.d2.d1              14 requests
	//   www.d30.d17.d15.d2.d1          13 requests
	//
	// provenance of reply(@host2, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "10.0.10.1", 191)
	// (12 protocol hops, 1559 bytes moved):
	// reply(@host2, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "10.0.10.1", 191) <- r4
	//   dnsResult(@ns14, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "10.0.10.1", "host2", 191) <- r3 [addressRecord(@ns14, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "10.0.10.1")]
	//     request(@ns14, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r2 [nameServer(@ns9, "d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "ns14")]
	//       request(@ns9, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r2 [nameServer(@ns8, "d9.d8.d7.d6.d5.d4.d3.d2.d1", "ns9")]
	//         request(@ns8, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r2 [nameServer(@ns7, "d8.d7.d6.d5.d4.d3.d2.d1", "ns8")]
	//           request(@ns7, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r2 [nameServer(@ns6, "d7.d6.d5.d4.d3.d2.d1", "ns7")]
	//             request(@ns6, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r2 [nameServer(@ns5, "d6.d5.d4.d3.d2.d1", "ns6")]
	//               request(@ns5, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r2 [nameServer(@ns4, "d5.d4.d3.d2.d1", "ns5")]
	//                 request(@ns4, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r2 [nameServer(@ns3, "d4.d3.d2.d1", "ns4")]
	//                   request(@ns3, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r2 [nameServer(@ns2, "d3.d2.d1", "ns3")]
	//                     request(@ns2, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r2 [nameServer(@ns1, "d2.d1", "ns2")]
	//                       request(@ns1, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r2 [nameServer(@ns0, "d1", "ns1")]
	//                         request(@ns0, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", "host2", 191) <- r1 [rootServer(@host2, "ns0")]
	//                           event url(@host2, "www.d14.d9.d8.d7.d6.d5.d4.d3.d2.d1", 191)
}

// Section 5.5's slow-changing updates, in the Figure 7 scenario: an
// administrator reroutes the n1-to-n3 traffic through a new node n4. The
// sig broadcast resets every node's equivalence-key table, so the
// rerouted class's provenance is concretely maintained again, while the
// old path's provenance stays queryable (provenance is monotone).
func ExampleSystem_InsertSlow() {
	// n1 -- n2 -- n3 plus the alternative n1 -- n4 -- n3.
	g := topo.Fig2()
	g.MustAddLink("n1", "n4", topo.SimpleLatency, topo.SimpleBandwidth)
	g.MustAddLink("n4", "n3", topo.SimpleLatency, topo.SimpleBandwidth)
	sys, err := provcompress.NewSystem(g, provcompress.ForwardingProgram(),
		provcompress.SchemeAdvanced, nil)
	if err != nil {
		panic(err)
	}
	route := func(loc, dst, next string) provcompress.Tuple {
		return provcompress.NewTuple("route",
			provcompress.Str(loc), provcompress.Str(dst), provcompress.Str(next))
	}
	if err := sys.LoadBase(provcompress.Fig2Routes()...); err != nil {
		panic(err)
	}
	if err := sys.LoadBase(route("n4", "n3", "n3")); err != nil {
		panic(err)
	}
	pkt := func(payload string) provcompress.Tuple {
		return provcompress.NewTuple("packet",
			provcompress.Str("n1"), provcompress.Str("n1"),
			provcompress.Str("n3"), provcompress.Str(payload))
	}
	run := func() {
		if err := sys.Run(); err != nil {
			panic(err)
		}
	}

	before := pkt("before-update")
	sys.Inject(before)
	run()
	fmt.Println("phase 1: packet forwarded over n1 -> n2 -> n3")

	// The deletion leaves stored provenance intact; the insertion
	// broadcasts sig, emptying every node's equivalence-key table (htequi).
	msgsBefore := sys.Runtime.Net.TotalMessages()
	sys.DeleteSlow(route("n1", "n3", "n2"))
	sys.InsertSlow(route("n1", "n3", "n4"))
	run()
	fmt.Printf("phase 2: route updated; sig broadcast delivered to all %d nodes (%d control messages)\n",
		g.NumNodes(), sys.Runtime.Net.TotalMessages()-msgsBefore)

	after := pkt("after-update")
	sys.Inject(after)
	run()
	fmt.Println("phase 3: packet forwarded over n1 -> n4 -> n3, provenance re-maintained")

	// Both trees are queryable and show the two packets' different paths.
	for _, ev := range []provcompress.Tuple{before, after} {
		out := provcompress.NewTuple("recv",
			provcompress.Str("n3"), ev.Args[1], ev.Args[2], ev.Args[3])
		printTree(sys, out, ev)
	}
	// Output:
	// phase 1: packet forwarded over n1 -> n2 -> n3
	// phase 2: route updated; sig broadcast delivered to all 4 nodes (4 control messages)
	// phase 3: packet forwarded over n1 -> n4 -> n3, provenance re-maintained
	//
	// provenance of recv(@n3, "n1", "n3", "before-update"):
	// recv(@n3, "n1", "n3", "before-update") <- r2
	//   packet(@n3, "n1", "n3", "before-update") <- r1 [route(@n2, "n3", "n3")]
	//     packet(@n2, "n1", "n3", "before-update") <- r1 [route(@n1, "n3", "n2")]
	//       event packet(@n1, "n1", "n3", "before-update")
	//
	// provenance of recv(@n3, "n1", "n3", "after-update"):
	// recv(@n3, "n1", "n3", "after-update") <- r2
	//   packet(@n3, "n1", "n3", "after-update") <- r1 [route(@n4, "n3", "n3")]
	//     packet(@n4, "n1", "n3", "after-update") <- r1 [route(@n1, "n3", "n4")]
	//       event packet(@n1, "n1", "n3", "after-update")
}

// printTree queries out's provenance for the event ev and prints its one
// tree.
func printTree(sys *provcompress.System, out, ev provcompress.Tuple) {
	res, err := sys.Query(out, provcompress.HashTuple(ev))
	if err != nil {
		panic(err)
	}
	if len(res.Trees) != 1 {
		panic(fmt.Sprintf("expected one tree for %s, got %d", out, len(res.Trees)))
	}
	fmt.Printf("\nprovenance of %s:\n%s", out, res.Trees[0])
}

// The BGP-style interdomain routing DELP: an advertisement for a prefix
// propagates hop by hop along the slow bgpRoute table (rule b1) and
// installs into the RIB wherever a bgpOwner policy entry exists (rule b2).
// Its provenance shape is the opposite of packet forwarding: the advert is
// long-lived and the slow state churns. A policy update arrives as
// InsertSlow, broadcasts a §5.5 sig to every AS, and the next
// advertisement of the same class is re-maintained from scratch.
func ExampleBGPProgram() {
	// A 4-AS chain n0 -- n1 -- n2 -- n3; adverts enter at n0.
	g := topo.Line(4, "n")
	sys, err := provcompress.NewSystem(g, provcompress.BGPProgram(),
		provcompress.SchemeAdvanced, nil)
	if err != nil {
		panic(err)
	}
	route := func(loc, prefix, next string) provcompress.Tuple {
		return provcompress.NewTuple("bgpRoute",
			provcompress.Str(loc), provcompress.Str(prefix), provcompress.Str(next))
	}
	owner := func(loc, prefix string) provcompress.Tuple {
		return provcompress.NewTuple("bgpOwner",
			provcompress.Str(loc), provcompress.Str(prefix))
	}
	// The prefix's route threads the whole chain; only the far end owns a
	// policy entry, so the RIB materializes after the longest walk.
	if err := sys.LoadBase(
		route("n0", "p0", "n1"), route("n1", "p0", "n2"), route("n2", "p0", "n3"),
		owner("n3", "p0"),
	); err != nil {
		panic(err)
	}
	advert := func(seq int64) provcompress.Tuple {
		return provcompress.NewTuple("advert",
			provcompress.Str("n0"), provcompress.Str("p0"),
			provcompress.Str("as-east"), provcompress.Int(seq))
	}
	rib := func(loc string, seq int64) provcompress.Tuple {
		return provcompress.NewTuple("rib",
			provcompress.Str(loc), provcompress.Str("p0"),
			provcompress.Str("as-east"), provcompress.Int(seq))
	}
	run := func() {
		if err := sys.Run(); err != nil {
			panic(err)
		}
	}

	first := advert(1)
	sys.Inject(first)
	run()
	fmt.Println("phase 1: advert 1 propagated; rib installed at n3")

	// n1 starts owning p0 too; the sig resets every AS's htequi.
	msgsBefore := sys.Runtime.Net.TotalMessages()
	sys.InsertSlow(owner("n1", "p0"))
	run()
	fmt.Printf("phase 2: bgpOwner(n1,p0) inserted; sig broadcast reached all %d ASes (%d control messages)\n",
		g.NumNodes(), sys.Runtime.Net.TotalMessages()-msgsBefore)

	second := advert(2)
	sys.Inject(second)
	run()
	fmt.Println("phase 3: advert 2 installed at n1 and n3")

	printTree(sys, rib("n3", 1), first)  // the deep pre-update chain
	printTree(sys, rib("n1", 2), second) // the post-update install at the new owner
	printTree(sys, rib("n3", 2), second)
	// Output:
	// phase 1: advert 1 propagated; rib installed at n3
	// phase 2: bgpOwner(n1,p0) inserted; sig broadcast reached all 4 ASes (4 control messages)
	// phase 3: advert 2 installed at n1 and n3
	//
	// provenance of rib(@n3, "p0", "as-east", 1):
	// rib(@n3, "p0", "as-east", 1) <- b2 [bgpOwner(@n3, "p0")]
	//   advert(@n3, "p0", "as-east", 1) <- b1 [bgpRoute(@n2, "p0", "n3")]
	//     advert(@n2, "p0", "as-east", 1) <- b1 [bgpRoute(@n1, "p0", "n2")]
	//       advert(@n1, "p0", "as-east", 1) <- b1 [bgpRoute(@n0, "p0", "n1")]
	//         event advert(@n0, "p0", "as-east", 1)
	//
	// provenance of rib(@n1, "p0", "as-east", 2):
	// rib(@n1, "p0", "as-east", 2) <- b2 [bgpOwner(@n1, "p0")]
	//   advert(@n1, "p0", "as-east", 2) <- b1 [bgpRoute(@n0, "p0", "n1")]
	//     event advert(@n0, "p0", "as-east", 2)
	//
	// provenance of rib(@n3, "p0", "as-east", 2):
	// rib(@n3, "p0", "as-east", 2) <- b2 [bgpOwner(@n3, "p0")]
	//   advert(@n3, "p0", "as-east", 2) <- b1 [bgpRoute(@n2, "p0", "n3")]
	//     advert(@n2, "p0", "as-east", 2) <- b1 [bgpRoute(@n1, "p0", "n2")]
	//       advert(@n1, "p0", "as-east", 2) <- b1 [bgpRoute(@n0, "p0", "n1")]
	//         event advert(@n0, "p0", "as-east", 2)
}

// The epidemic rumor-dissemination DELP over a binary out-tree: one rumor
// injected at the root replicates to every gossip peer (rule g1) and is
// delivered wherever a gossipMember row exists (rule g2). Its provenance
// trees are wide and shallow, the opposite extreme from BGP's deep chains,
// and a single equivalence class per node absorbs every rumor.
func ExampleGossipProgram() {
	// A 7-member binary out-tree rooted at n0 (n0 -> n1,n2; n1 -> n3,n4;
	// n2 -> n5,n6).
	g := scenario.GossipTree(7)
	sys, err := provcompress.NewSystem(g, provcompress.GossipProgram(),
		provcompress.SchemeAdvanced, nil)
	if err != nil {
		panic(err)
	}
	// Peers follow the tree's child edges; every node is a member.
	nodes := g.Nodes()
	var base []provcompress.Tuple
	for i, n := range nodes {
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(nodes) {
				base = append(base, provcompress.NewTuple("gossipPeer",
					provcompress.Str(string(n)), provcompress.Str(string(nodes[c]))))
			}
		}
		base = append(base, provcompress.NewTuple("gossipMember", provcompress.Str(string(n))))
	}
	if err := sys.LoadBase(base...); err != nil {
		panic(err)
	}

	rumor := provcompress.NewTuple("rumor",
		provcompress.Str("n0"), provcompress.Str("blackout"), provcompress.Str("m0"))
	sys.Inject(rumor)
	if err := sys.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("rumor \"blackout\" delivered at %d of %d members\n", len(sys.Outputs()), len(nodes))

	// A leaf's delivery carries the full dissemination path back to the
	// root (n6 heard it via n2).
	printTree(sys, provcompress.NewTuple("deliver",
		provcompress.Str("n6"), provcompress.Str("blackout"), provcompress.Str("m0")), rumor)
	// Output:
	// rumor "blackout" delivered at 7 of 7 members
	//
	// provenance of deliver(@n6, "blackout", "m0"):
	// deliver(@n6, "blackout", "m0") <- g2 [gossipMember(@n6)]
	//   rumor(@n6, "blackout", "m0") <- g1 [gossipPeer(@n2, "n6")]
	//     rumor(@n2, "blackout", "m0") <- g1 [gossipPeer(@n0, "n2")]
	//       event rumor(@n0, "blackout", "m0")
}

// Compressing provenance across programs that share execution rules (the
// paper's Section 8 future work, implemented): packet forwarding and a
// traffic-tap program deployed together on Figure 2, every packet driving
// both. The tap's chains reuse the forwarding chains' rule-execution
// nodes, so the extra storage is almost entirely the per-mirror prov rows.
func ExampleNewMultiSystem() {
	tap, err := provcompress.ParseDELP(
		`t1 mirror(@M, S, D, DT) :- packet(@L, S, D, DT), tap(@L, M).`)
	if err != nil {
		panic(err)
	}
	build := func(progs ...*provcompress.Program) *provcompress.System {
		sys, err := provcompress.NewMultiSystem(provcompress.Fig2(), progs,
			provcompress.SchemeAdvanced, nil)
		if err != nil {
			panic(err)
		}
		if err := sys.LoadBase(provcompress.Fig2Routes()...); err != nil {
			panic(err)
		}
		if len(progs) > 1 {
			if err := sys.LoadBase(provcompress.NewTuple("tap",
				provcompress.Str("n2"), provcompress.Str("n3"))); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 50; i++ {
			sys.Inject(provcompress.NewTuple("packet",
				provcompress.Str("n1"), provcompress.Str("n1"),
				provcompress.Str("n3"), provcompress.Str(fmt.Sprintf("payload-%d", i))))
		}
		if err := sys.Run(); err != nil {
			panic(err)
		}
		return sys
	}
	solo := build(provcompress.ForwardingProgram())
	both := build(provcompress.ForwardingProgram(), tap)

	fmt.Printf("forwarding alone:        %3d outputs, %s provenance\n",
		len(solo.Outputs()), metrics.HumanBytes(solo.TotalStorageBytes()))
	fmt.Printf("forwarding + tap:        %3d outputs, %s provenance\n",
		len(both.Outputs()), metrics.HumanBytes(both.TotalStorageBytes()))
	fmt.Printf("cost of the tap program: %s total\n",
		metrics.HumanBytes(both.TotalStorageBytes()-solo.TotalStorageBytes()))

	// A mirror tuple's tree interleaves the tap program's rule t1 with
	// forwarding's r1.
	printTree(both,
		provcompress.NewTuple("mirror", provcompress.Str("n3"), provcompress.Str("n1"),
			provcompress.Str("n3"), provcompress.Str("payload-7")),
		provcompress.NewTuple("packet", provcompress.Str("n1"), provcompress.Str("n1"),
			provcompress.Str("n3"), provcompress.Str("payload-7")))
	// Output:
	// forwarding alone:         50 outputs, 3.7 KB provenance
	// forwarding + tap:        100 outputs, 7.2 KB provenance
	// cost of the tap program: 3.5 KB total
	//
	// provenance of mirror(@n3, "n1", "n3", "payload-7"):
	// mirror(@n3, "n1", "n3", "payload-7") <- t1 [tap(@n2, "n3")]
	//   packet(@n2, "n1", "n3", "payload-7") <- r1 [route(@n1, "n3", "n2")]
	//     event packet(@n1, "n1", "n3", "payload-7")
}
