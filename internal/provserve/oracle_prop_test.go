package provserve

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/cluster"
	"provcompress/internal/ndlog"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// This file is the oracle-backed correctness suite for the keyed cache:
// seeded random insert/delete/query interleavings run against a live
// server, and every answer the server serves — cached or cold — must be
// byte-identical to a fresh, cacheless recomputation on the same cluster
// (the oracle). A cache that ever serves a tree the current cluster state
// would not reproduce fails here, whichever invalidation path it slipped
// through.

// oracleOp is one step of a generated interleaving. Ops are plain values
// so a failing case dumps as a replayable script: shrink by deleting
// lines and re-running with the same seed space.
type oracleOp struct {
	Kind  string      // "inject", "insert", "delete", "query"
	Tuple types.Tuple // the event, the slow (or event) tuple, or the queried output
	EvID  types.ID    // query only; ZeroID asks for every derivation
}

func (o oracleOp) String() string {
	if o.Kind == "query" && o.EvID != types.ZeroID {
		return fmt.Sprintf("query %s evid %s", o.Tuple, o.EvID.Hex())
	}
	return o.Kind + " " + o.Tuple.String()
}

// oracleWorld is one deployment the interleavings run against: its
// program, members and base tuples, and how to generate case number id.
// Every case works on tuples unique to it, so cases compound into one long
// mixed history per cluster — invalidation has to stay correct under
// accumulation, not just from a cold start.
type oracleWorld struct {
	name   string
	cases  int // per scheme
	deploy func() (cluster.Config, []types.Tuple)
	gen    func(rng *rand.Rand, id int) []oracleOp
}

// oracleGraveyardCap is small enough that a case's deletes push earlier
// ones out of a node's graveyard: trees that resolved an evicted tuple stop
// resolving it (the eviction's key), and resolve it again once it is
// re-inserted (the insert's key).
const oracleGraveyardCap = 2

func str(s string) types.Value { return types.String(s) }

// forwardingCase works a pool of three packets on the three-node chain.
// The first two share a (src,dst) pair two hops apart — two events of one
// equivalence class — and between their injections the case rewrites that
// pair's routes for real: the via-n1 route and a direct one are inserted
// (a §5.5 sig reset; with both present the class goes multi-path) and
// deleted, so the class is re-maintained along a different chain while
// answers of its earlier events sit in the cache. Queries ask for every
// derivation (ZeroID), for the packet's own event, and for another pool
// packet's event; they may run before the packet is injected, which
// exercises cached-empty-answer invalidation.
func forwardingCase(rng *rand.Rand, id int) []oracleOp {
	type flow struct{ src, dst, payload string }
	packet := func(f flow) types.Tuple {
		return types.NewTuple("packet", str(f.src), str(f.src), str(f.dst), str(f.payload))
	}
	recv := func(f flow) types.Tuple {
		return types.NewTuple("recv", str(f.dst), str(f.src), str(f.dst), str(f.payload))
	}
	far := [][2]string{{"n0", "n2"}, {"n2", "n0"}}[rng.Intn(2)]
	near := [][2]string{{"n1", "n2"}, {"n0", "n1"}, {"n2", "n0"}, {"n0", "n2"}}[rng.Intn(4)]
	pool := []flow{
		{far[0], far[1], fmt.Sprintf("c%dp0", id)},
		{far[0], far[1], fmt.Sprintf("c%dp1", id)},
		{near[0], near[1], fmt.Sprintf("c%dp2", id)},
	}
	route := func(via string) types.Tuple {
		return types.NewTuple("route", str(far[0]), str(far[1]), str(via))
	}
	evidOf := func(f flow) types.ID { return types.HashTuple(packet(f)) }
	query := func(f flow, evid types.ID) oracleOp {
		return oracleOp{Kind: "query", Tuple: recv(f), EvID: evid}
	}
	var ops []oracleOp
	var injected []flow
	steps := 6 + rng.Intn(6)
	for i := 0; i < steps; i++ {
		pick := pool[rng.Intn(len(pool))]
		switch r := rng.Intn(12); {
		case r < 4:
			ops = append(ops, oracleOp{Kind: "inject", Tuple: packet(pick)})
			injected = append(injected, pick)
		case r < 5 && len(injected) > 0:
			ops = append(ops, oracleOp{Kind: "delete", Tuple: packet(injected[rng.Intn(len(injected))])})
		case r < 7:
			kind := []string{"insert", "delete"}[rng.Intn(2)]
			ops = append(ops, oracleOp{Kind: kind, Tuple: route([]string{"n1", far[1]}[rng.Intn(2)])})
		case r < 8:
			// A link to a phantom endpoint: a sig reset that changes no
			// route, so the class re-maintains the chain it already has.
			ops = append(ops, oracleOp{Kind: "insert", Tuple: types.NewTuple("link",
				str(pick.src), str(pick.src), str("phantom-"+pick.payload))})
		default:
			evid := types.ZeroID
			switch r := rng.Intn(8); {
			case r < 3:
				evid = evidOf(pick)
			case r < 4:
				evid = evidOf(pool[rng.Intn(len(pool))])
			}
			ops = append(ops, query(pick, evid))
		}
	}
	// Check every payload's final answers, put the routes back as the next
	// case expects them — which makes a route the graveyard lost resolvable
	// again — and check once more (repeat queries exercise cache hits).
	for _, f := range pool {
		ops = append(ops, query(f, types.ZeroID))
	}
	ops = append(ops, oracleOp{Kind: "insert", Tuple: route("n1")}, oracleOp{Kind: "delete", Tuple: route(far[1])})
	for _, f := range pool {
		ops = append(ops, query(f, types.ZeroID), query(f, evidOf(f)))
	}
	return ops
}

// projSrc projects away the event attribute Y (the proj program of
// cluster's TestInvalKeysGolden), so ev(X,1), ev(X,2) and ev(X,3) all
// derive the one output out(X): an unfiltered answer holds several
// derivations and each event-filtered answer one of them.
const projSrc = `
r1 mid(@R, X)  :- ev(@L, X, Y), hop(@L, Y, R).
r2 out(@R, X)  :- mid(@R, X), sink(@R, X).
`

// convergeSrc puts one more rule between the projection and the output, and
// joins Y nowhere — its events are one equivalence class. A second event
// re-derives mid(X), which gives what r2's stored execution hangs its
// predecessors off one more row; if the sink row is gone by then, or hop2
// now points elsewhere, its derivation never reaches out(X), and only that
// row's own key tells the cache that a walk through the execution now finds
// one more derivation (TestCacheConvergingDerivation holds the scripts).
const convergeSrc = "r1 mid(@R, X) :- ev(@L, X, Y), hop(@L, R)." + convergeRest

// convergeCrossSrc is convergeSrc with Y joined on the first hop, so each
// event is a class of its own.
const convergeCrossSrc = "r1 mid(@R, X) :- ev(@L, X, Y), hop(@L, Y, R)." + convergeRest

const convergeRest = `
r2 mid2(@R, X) :- mid(@L, X), hop2(@L, R).
r3 out(@R, X)  :- mid2(@R, X), sink(@R, X).
`

// projectionCase returns the generator of the projecting worlds: events
// ev(n0,X,1..3) derive the one output out(@outLoc,X) while the slow tuples
// its rules join — the case's own sink row and rows shared by all cases —
// come and go.
func projectionCase(outLoc string, shared ...types.Tuple) func(*rand.Rand, int) []oracleOp {
	return func(rng *rand.Rand, id int) []oracleOp {
		x := types.Int(int64(id))
		ev := func(y int) types.Tuple { return types.NewTuple("ev", str("n0"), x, types.Int(int64(y))) }
		out := types.NewTuple("out", str(outLoc), x)
		slow := append([]types.Tuple{types.NewTuple("sink", str(outLoc), x)}, shared...)
		// query asks for out's derivations from ev(y), or all of them (y = 0).
		query := func(y int) oracleOp {
			q := oracleOp{Kind: "query", Tuple: out}
			if y > 0 {
				q.EvID = types.HashTuple(ev(y))
			}
			return q
		}
		var ops []oracleOp
		if rng.Intn(4) > 0 {
			ops = append(ops, oracleOp{Kind: "insert", Tuple: slow[0]})
		}
		var injected []types.Tuple
		steps := 8 + rng.Intn(6)
		for i := 0; i < steps; i++ {
			switch r := rng.Intn(10); {
			case r < 4:
				e := ev(1 + rng.Intn(3))
				ops = append(ops, oracleOp{Kind: "inject", Tuple: e})
				injected = append(injected, e)
			case r < 6:
				kind := []string{"insert", "delete"}[rng.Intn(2)]
				ops = append(ops, oracleOp{Kind: kind, Tuple: slow[rng.Intn(len(slow))]})
			case r < 7 && len(injected) > 0:
				ops = append(ops, oracleOp{Kind: "delete", Tuple: injected[rng.Intn(len(injected))]})
			default:
				ops = append(ops, query(rng.Intn(4)))
			}
		}
		// Final answers, before and after the slow tuples are (re-)inserted.
		for y := 0; y < 4; y++ {
			ops = append(ops, query(y))
		}
		for _, t := range slow {
			ops = append(ops, oracleOp{Kind: "insert", Tuple: t})
		}
		for y := 0; y < 4; y++ {
			ops = append(ops, query(y))
		}
		return ops
	}
}

// convergeDeploy is the three-node deployment of a converge program with
// its first-hop rows.
func convergeDeploy(src string, hops ...types.Tuple) func() (cluster.Config, []types.Tuple) {
	return func() (cluster.Config, []types.Tuple) {
		return cluster.Config{Prog: ndlog.MustParse(src), Nodes: topo.Line(3, "n").Nodes()},
			append(hops, types.NewTuple("hop2", str("n1"), str("n2")))
	}
}

var oracleWorlds = []oracleWorld{
	{name: "forwarding", cases: 100, gen: forwardingCase,
		deploy: func() (cluster.Config, []types.Tuple) {
			g := topo.Line(3, "n")
			return cluster.Config{Prog: apps.Forwarding(), Funcs: apps.Funcs(), Nodes: g.Nodes()},
				g.ShortestPaths().RouteTuples()
		}},
	{name: "proj", cases: 35,
		gen: projectionCase("n1", types.NewTuple("hop", str("n0"), types.Int(3), str("n1"))),
		deploy: func() (cluster.Config, []types.Tuple) {
			return cluster.Config{Prog: ndlog.MustParse(projSrc), Nodes: topo.Line(2, "n").Nodes()},
				[]types.Tuple{
					types.NewTuple("hop", str("n0"), types.Int(1), str("n1")),
					types.NewTuple("hop", str("n0"), types.Int(2), str("n1")),
				}
		}},
	{name: "converge", cases: 35,
		gen: projectionCase("n2", types.NewTuple("hop2", str("n1"), str("n2")),
			types.NewTuple("hop2", str("n1"), str("n0"))),
		deploy: convergeDeploy(convergeSrc, types.NewTuple("hop", str("n0"), str("n1")))},
}

// sortedTrees renders trees in a canonical order for comparison.
func sortedTrees(trees []string) string {
	trees = append([]string(nil), trees...)
	sort.Strings(trees)
	return strings.Join(trees, "\n  ")
}

// runOracleOps executes an interleaving, comparing every query answer
// against the oracle: a fresh QueryContext on the same cluster. It fails
// with a replayable script on the first divergence.
func runOracleOps(t *testing.T, c *cluster.Cluster, baseURL string, ops []oracleOp, caseID int) {
	t.Helper()
	for i, op := range ops {
		var err error
		switch op.Kind {
		case "inject":
			if er := postEvents(t, baseURL, 10000, specOf(op.Tuple)); er.Accepted != 1 || !er.Quiesced {
				t.Fatalf("case %d op %d (%s): inject = %+v", caseID, i, op, er)
			}
		case "delete":
			err = c.DeleteSlow(op.Tuple)
		case "insert":
			if err = c.InsertSlow(op.Tuple); err == nil {
				err = c.Quiesce(5 * time.Second) // the sig broadcast
			}
		case "query":
			qr, resp := getEvID(t, baseURL, specOf(op.Tuple), op.EvID)
			if resp.StatusCode != 200 {
				t.Fatalf("case %d op %d (%s): query status %d", caseID, i, op, resp.StatusCode)
			}
			var res cluster.QueryResult
			if res, err = c.QueryContext(context.Background(), op.Tuple, op.EvID, 10*time.Second); err != nil {
				break
			}
			oracle := make([]string, len(res.Trees))
			for j, tr := range res.Trees {
				oracle[j] = tr.String()
			}
			if served, fresh := sortedTrees(qr.Trees), sortedTrees(oracle); served != fresh {
				var b strings.Builder
				fmt.Fprintf(&b, "case %d diverged at op %d (cached=%v)\n", caseID, i, qr.Cached)
				fmt.Fprintf(&b, "replay script (ops executed up to the divergence):\n")
				for j := 0; j <= i; j++ {
					fmt.Fprintf(&b, "  %2d: %s\n", j, ops[j])
				}
				fmt.Fprintf(&b, "served (%d trees):\n  %s\noracle (%d trees):\n  %s\n",
					len(qr.Trees), served, len(oracle), fresh)
				t.Fatal(b.String())
			}
		}
		if err != nil {
			t.Fatalf("case %d op %d (%s): %v", caseID, i, op, err)
		}
	}
}

// bootOracle starts a world's cluster under scheme, with the small
// graveyard, and a server over it.
func bootOracle(t *testing.T, deploy func() (cluster.Config, []types.Tuple), scheme string) (*cluster.Cluster, *Server, string) {
	t.Helper()
	cfg, base := deploy()
	cfg.Scheme, cfg.GraveyardCap = scheme, oracleGraveyardCap
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(base); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Clusters: map[string]*cluster.Cluster{scheme: c}, DefaultScheme: scheme})
	return c, s, ts.URL
}

// TestCacheOracleProperty replays 680 seeded interleavings — 170 per
// scheme, over the three worlds — against the oracle. One cluster and
// server persist per scheme and world.
func TestCacheOracleProperty(t *testing.T) {
	for si, scheme := range []string{"advanced", "basic", "exspan", "advanced-ic"} {
		si, scheme := si, scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			for _, w := range oracleWorlds {
				t.Run(w.name, func(t *testing.T) {
					t.Parallel() // the work is waiting on walks, not CPU
					cases := w.cases
					if testing.Short() {
						cases /= 6
					}
					c, s, url := bootOracle(t, w.deploy, scheme)
					rng := rand.New(rand.NewSource(0x5eed0 + int64(si)))
					var prev []oracleOp
					for cs := 0; cs < cases; cs++ {
						// Each case ends by repeating the previous case's
						// queries: its answers were cached a whole case ago,
						// and this case's deletes have since pushed tuples
						// they resolved out of the graveyards.
						ops := w.gen(rng, cs)
						var queries []oracleOp
						asked := map[string]bool{}
						for _, op := range ops {
							if k := op.String(); op.Kind == "query" && !asked[k] {
								asked[k] = true
								queries = append(queries, op)
							}
						}
						runOracleOps(t, c, url, append(ops, prev...), cs)
						prev = queries
					}
					hits, misses := s.cache.Stats()
					evicted := s.cache.Invalidations()[invalVID]
					t.Logf("%d cases: %d hits, %d misses, %d entries evicted by key", cases, hits, misses, evicted)
					if hits == 0 {
						t.Fatal("interleavings produced zero cache hits; the suite is not exercising the cache")
					}
					if evicted == 0 {
						t.Fatal("interleavings evicted nothing; the suite is not exercising invalidation")
					}
				})
			}
		})
	}
}

// TestCacheConvergingDerivation holds the replay scripts of the
// counter-examples to "root rows and resolved tuples are all an answer
// depends on": e1 derives out(7) and its answers are cached, something
// downstream of mid(7) is cut, and e2 re-derives mid(7). ExSPAN and
// Basic, and Advanced+IC with e1 and e2 in two classes, hang e2's
// derivation off what r2's stored execution already has — a fresh walk
// from out(7) now returns two trees — but e2 never lands on
// out(7), so no landing tells the cache. The cut is the sink row deleted,
// hop2 rewritten to another node (under ExSPAN r2 then fires as a new
// execution, and the stored one gains the predecessor without firing
// again), or mid(7) itself deleted from n1's database on top of the sink
// (the re-derived tuple then looks new to the database). Run with e1 and
// e2 in one class and in two.
func TestCacheConvergingDerivation(t *testing.T) {
	e1 := types.NewTuple("ev", str("n0"), types.Int(7), types.Int(1))
	e2 := types.NewTuple("ev", str("n0"), types.Int(7), types.Int(2))
	out := types.NewTuple("out", str("n2"), types.Int(7))
	sink := types.NewTuple("sink", str("n2"), types.Int(7))
	answers := []oracleOp{
		{Kind: "query", Tuple: out},
		{Kind: "query", Tuple: out, EvID: types.HashTuple(e1)},
		{Kind: "query", Tuple: out, EvID: types.HashTuple(e2)},
	}
	steps := func(cut ...oracleOp) []oracleOp {
		script := []oracleOp{{Kind: "insert", Tuple: sink}, {Kind: "inject", Tuple: e1}}
		script = append(append(script, answers...), cut...)
		script = append(append(script, answers...), oracleOp{Kind: "inject", Tuple: e2})
		return append(script, answers...)
	}
	scripts := map[string][]oracleOp{
		"sink-deleted": steps(oracleOp{Kind: "delete", Tuple: sink}),
		"hop2-rewritten": steps(
			oracleOp{Kind: "delete", Tuple: types.NewTuple("hop2", str("n1"), str("n2"))},
			oracleOp{Kind: "insert", Tuple: types.NewTuple("hop2", str("n1"), str("n0"))}),
		"mid-deleted": steps(oracleOp{Kind: "delete", Tuple: sink},
			oracleOp{Kind: "delete", Tuple: types.NewTuple("mid", str("n1"), types.Int(7))}),
	}
	for name, deploy := range map[string]func() (cluster.Config, []types.Tuple){
		"one-class": convergeDeploy(convergeSrc, types.NewTuple("hop", str("n0"), str("n1"))),
		"two-classes": convergeDeploy(convergeCrossSrc,
			types.NewTuple("hop", str("n0"), types.Int(1), str("n1")), types.NewTuple("hop", str("n0"), types.Int(2), str("n1"))),
	} {
		for _, scheme := range []string{"advanced", "basic", "exspan", "advanced-ic"} {
			for cut, script := range scripts {
				t.Run(name+"/"+cut+"/"+scheme, func(t *testing.T) {
					c, _, url := bootOracle(t, deploy, scheme)
					runOracleOps(t, c, url, script, 0)
				})
			}
		}
	}
}
