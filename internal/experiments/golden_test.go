package experiments

import (
	"math/rand"
	"testing"
	"time"

	"provcompress/internal/core"
	"provcompress/internal/engine"
	"provcompress/internal/types"
)

// goldenQuery is one provenance query's simulated cost, unrounded
// (latency in virtual nanoseconds).
type goldenQuery struct {
	latency time.Duration
	hops    int
	bytes   int64
}

// goldenRun is one scheme's figures on one workload: final provenance
// storage, bytes on the wire once the workload drained, and the cost of
// goldenQueries queries on outputs drawn with a fixed seed.
type goldenRun struct {
	storage int64
	wire    int64
	queries [goldenQueries]goldenQuery
}

const goldenQueries = 4

// The values below were recorded at the commit before the simulator
// maintainers were collapsed onto core.NodeState. They pin the paper's
// figures — storage (Figs. 9/16), bandwidth (Figs. 11/15) and query cost
// (Fig. 12) — to the byte and the nanosecond for all four schemes, so any
// change to scheme maintenance, the query walk or the §6.1.3 cost model
// that moves a figure fails here rather than passing a shape test.
var goldenForwarding = map[string]goldenRun{
	core.SchemeExSPAN: {storage: 181442, wire: 694660, queries: [goldenQueries]goldenQuery{
		{440834944, 10, 7305}, {136315200, 5, 3641}, {347869696, 6, 4329}, {347869696, 6, 4329}}},
	core.SchemeBasic: {storage: 117680, wire: 694660, queries: [goldenQueries]goldenQuery{
		{318911736, 10, 1616}, {83498800, 5, 1093}, {283197704, 6, 1172}, {283197704, 6, 1172}}},
	core.SchemeAdvanced: {storage: 21244, wire: 712944, queries: [goldenQueries]goldenQuery{
		{318731256, 10, 1616}, {83308400, 5, 1093}, {283004424, 6, 1172}, {283004424, 6, 1172}}},
	core.SchemeAdvancedInterClass: {storage: 22762, wire: 712944, queries: [goldenQueries]goldenQuery{
		{322535288, 10, 1794}, {85168880, 5, 1183}, {285336584, 6, 1286}, {285336584, 6, 1286}}},
}

var goldenDNS = map[string]goldenRun{
	core.SchemeExSPAN: {storage: 154366, wire: 158596, queries: [goldenQueries]goldenQuery{
		{168488240, 7, 1899}, {58184400, 3, 869}, {85557360, 4, 1118}, {58264800, 3, 873}}},
	core.SchemeBasic: {storage: 101539, wire: 158596, queries: [goldenQueries]goldenQuery{
		{148493440, 7, 913}, {49940800, 3, 459}, {74494320, 4, 569}, {49960800, 3, 460}}},
	core.SchemeAdvanced: {storage: 26226, wire: 195379, queries: [goldenQueries]goldenQuery{
		{148312640, 7, 913}, {49747200, 3, 459}, {74303920, 4, 569}, {49767200, 3, 460}}},
	core.SchemeAdvancedInterClass: {storage: 21238, wire: 195379, queries: [goldenQueries]goldenQuery{
		{209028240, 11, 1555}, {108575600, 7, 1025}, {133596800, 8, 1154}, {98416560, 6, 1026}}},
}

// measureGolden drains the scheduled workload, then queries outputs chosen
// by a fixed-seed draw.
func measureGolden(t *testing.T, rt *engine.Runtime, maint core.Maintainer) goldenRun {
	t.Helper()
	rt.Run()
	got := goldenRun{storage: maint.TotalStorageBytes(), wire: rt.Net.TotalBytes()}
	outs := rt.Outputs()
	if len(outs) == 0 {
		t.Fatal("workload produced no outputs")
	}
	r := rand.New(rand.NewSource(7))
	for i := range got.queries {
		out := outs[r.Intn(len(outs))].Tuple
		done := false
		maint.QueryProvenance(out, types.ZeroID, func(qr core.QueryResult) {
			done = true
			if len(qr.Trees) == 0 {
				t.Errorf("query %d for %v returned no trees", i, out)
			}
			got.queries[i] = goldenQuery{qr.Latency, qr.Hops, qr.Bytes}
		})
		rt.Run()
		if !done {
			t.Fatalf("query %d did not complete", i)
		}
	}
	return got
}

func checkGolden(t *testing.T, want map[string]goldenRun, measure func(t *testing.T, scheme string) goldenRun) {
	t.Helper()
	for _, scheme := range core.AllSchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			got := measure(t, scheme)
			if got != want[scheme] {
				t.Errorf("figures moved:\n got %#v\nwant %#v", got, want[scheme])
			}
		})
	}
}

func TestGoldenForwardingFigures(t *testing.T) {
	checkGolden(t, goldenForwarding, func(t *testing.T, scheme string) goldenRun {
		run, err := buildForwarding(smallForwarding(), scheme, true)
		if err != nil {
			t.Fatal(err)
		}
		return measureGolden(t, run.rt, run.maint)
	})
}

func TestGoldenDNSFigures(t *testing.T) {
	checkGolden(t, goldenDNS, func(t *testing.T, scheme string) goldenRun {
		run, err := buildDNS(smallDNS(), scheme, true)
		if err != nil {
			t.Fatal(err)
		}
		return measureGolden(t, run.rt, run.maint)
	})
}
