package core

import (
	"testing"
	"time"

	"provcompress/internal/engine"
	"provcompress/internal/types"
)

// referenceTrees runs the same injections under the Recorder maintainer
// and returns it, providing ground-truth semi-naïve provenance trees.
func referenceTrees(t *testing.T, evs ...types.Tuple) *Recorder {
	t.Helper()
	rec := NewRecorder()
	rt := fig2Runtime(t, rec)
	injectSpaced(rt, evs...)
	rt.Run()
	checkNoErrors(t, rt)
	return rec
}

// queryMaintainer is the common query surface of the three schemes.
type queryMaintainer interface {
	engine.Maintainer
	QueryProvenance(types.Tuple, types.ID, func(QueryResult))
}

func TestQueryMatchesReferenceAllSchemes(t *testing.T) {
	evData := packet("n1", "n1", "n3", "data")
	evURL := packet("n1", "n1", "n3", "url")
	evAck := packet("n2", "n2", "n3", "ack")
	rec := referenceTrees(t, evData, evURL, evAck)

	schemes := []queryMaintainer{mustScheme(SchemeExSPAN), mustScheme(SchemeBasic), mustScheme(SchemeAdvanced), mustScheme(SchemeAdvancedInterClass)}
	for _, m := range schemes {
		t.Run(m.Name(), func(t *testing.T) {
			rt := fig2Runtime(t, m)
			injectSpaced(rt, evData, evURL, evAck)
			rt.Run()
			checkNoErrors(t, rt)

			for _, tc := range []struct {
				out types.Tuple
				ev  types.Tuple
			}{
				{recvTuple("n3", "n1", "n3", "data"), evData},
				{recvTuple("n3", "n1", "n3", "url"), evURL},
				{recvTuple("n3", "n2", "n3", "ack"), evAck},
			} {
				evid := types.HashTuple(tc.ev)
				res := runQuery(t, rt, m, tc.out, evid)
				want := rec.TreesFor(types.HashTuple(tc.out), evid)
				if len(want) != 1 {
					t.Fatalf("reference trees for %v = %d", tc.out, len(want))
				}
				if len(res.Trees) != 1 {
					t.Fatalf("%s: query %v returned %d trees, want 1", m.Name(), tc.out, len(res.Trees))
				}
				if !res.Trees[0].Equal(want[0]) {
					t.Errorf("%s: reconstructed tree differs for %v:\ngot:\n%s\nwant:\n%s",
						m.Name(), tc.out, res.Trees[0], want[0])
				}
				if res.Latency <= 0 {
					t.Errorf("%s: latency = %v, want > 0", m.Name(), res.Latency)
				}
				if res.Bytes <= 0 {
					t.Errorf("%s: bytes = %d, want > 0", m.Name(), res.Bytes)
				}
			}
		})
	}
}

func TestQueryWithoutEvidReturnsAllDerivations(t *testing.T) {
	// Two packets in the same class produce two distinct recv tuples; a
	// query without evid on one output returns just that output's
	// derivation (distinct payloads -> distinct outputs).
	a := mustScheme(SchemeAdvanced)
	rt := fig2Runtime(t, a)
	injectSpaced(rt, packet("n1", "n1", "n3", "data"), packet("n1", "n1", "n3", "url"))
	rt.Run()
	res := runQuery(t, rt, a, recvTuple("n3", "n1", "n3", "url"), types.ZeroID)
	if len(res.Trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(res.Trees))
	}
	if !res.Trees[0].EventOf().Equal(packet("n1", "n1", "n3", "url")) {
		t.Errorf("event = %v", res.Trees[0].EventOf())
	}
}

func TestQueryUnknownTuple(t *testing.T) {
	for _, m := range []queryMaintainer{mustScheme(SchemeExSPAN), mustScheme(SchemeBasic), mustScheme(SchemeAdvanced)} {
		rt := fig2Runtime(t, m)
		rt.Inject(packet("n1", "n1", "n3", "data"))
		rt.Run()
		res := runQuery(t, rt, m, recvTuple("n3", "n9", "n3", "ghost"), types.ZeroID)
		if len(res.Trees) != 0 {
			t.Errorf("%s: query for unknown tuple returned %d trees", m.Name(), len(res.Trees))
		}
	}
}

func TestQueryLatencyOrdering(t *testing.T) {
	// The headline of Figure 12: ExSPAN's query latency exceeds Basic's and
	// Advanced's, because it ships and processes the materialized
	// intermediate tuples.
	evData := packet("n1", "n1", "n3", "data500_"+string(make([]byte, 0)))
	lat := make(map[string]time.Duration)
	for _, m := range []queryMaintainer{mustScheme(SchemeExSPAN), mustScheme(SchemeBasic), mustScheme(SchemeAdvanced)} {
		rt := fig2Runtime(t, m)
		rt.Inject(evData)
		rt.Run()
		res := runQuery(t, rt, m, recvTuple("n3", "n1", "n3", evData.Args[3].AsString()), types.HashTuple(evData))
		if len(res.Trees) != 1 {
			t.Fatalf("%s: trees = %d", m.Name(), len(res.Trees))
		}
		lat[m.Name()] = res.Latency
	}
	if lat["ExSPAN"] <= lat["Basic"] {
		t.Errorf("ExSPAN latency %v <= Basic %v", lat["ExSPAN"], lat["Basic"])
	}
	if lat["ExSPAN"] <= lat["Advanced"] {
		t.Errorf("ExSPAN latency %v <= Advanced %v", lat["ExSPAN"], lat["Advanced"])
	}
}

func TestQueryBytesOrdering(t *testing.T) {
	// ExSPAN's walk must move more bytes than Basic's, which moves more
	// than Advanced's (Advanced ships no per-hop event VIDs).
	ev := packet("n1", "n1", "n3", "payloadpayloadpayload")
	bytes := make(map[string]int64)
	for _, m := range []queryMaintainer{mustScheme(SchemeExSPAN), mustScheme(SchemeBasic), mustScheme(SchemeAdvanced)} {
		rt := fig2Runtime(t, m)
		rt.Inject(ev)
		rt.Run()
		res := runQuery(t, rt, m, recvTuple("n3", "n1", "n3", "payloadpayloadpayload"), types.HashTuple(ev))
		bytes[m.Name()] = res.Bytes
	}
	if bytes["ExSPAN"] <= bytes["Basic"] {
		t.Errorf("ExSPAN bytes %d <= Basic %d", bytes["ExSPAN"], bytes["Basic"])
	}
	if bytes["Basic"] < bytes["Advanced"] {
		t.Errorf("Basic bytes %d < Advanced %d", bytes["Basic"], bytes["Advanced"])
	}
}

func TestQueryHops(t *testing.T) {
	// The walk crosses n3 -> n2 -> n1 and the result returns n1 -> n3:
	// 2 walk messages + 1 result message.
	a := mustScheme(SchemeAdvanced)
	rt := fig2Runtime(t, a)
	ev := packet("n1", "n1", "n3", "data")
	rt.Inject(ev)
	rt.Run()
	res := runQuery(t, rt, a, recvTuple("n3", "n1", "n3", "data"), types.HashTuple(ev))
	if res.Hops != 3 {
		t.Errorf("hops = %d, want 3", res.Hops)
	}
}

func TestQuerySecondClassMemberReconstructs(t *testing.T) {
	// The "url" packet maintained no provenance of its own; its tree must
	// still be fully reconstructible from the shared chain + its EVID.
	a := mustScheme(SchemeAdvanced)
	rt := fig2Runtime(t, a)
	evURL := packet("n1", "n1", "n3", "url")
	injectSpaced(rt, packet("n1", "n1", "n3", "data"), evURL)
	rt.Run()

	res := runQuery(t, rt, a, recvTuple("n3", "n1", "n3", "url"), types.HashTuple(evURL))
	if len(res.Trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(res.Trees))
	}
	tr := res.Trees[0]
	if !tr.EventOf().Equal(evURL) {
		t.Errorf("event = %v, want %v", tr.EventOf(), evURL)
	}
	// The reconstructed intermediate tuples carry the "url" payload even
	// though only the "data" execution was concretely maintained.
	if !tr.Child.Output.Equal(packet("n3", "n1", "n3", "url")) {
		t.Errorf("intermediate = %v", tr.Child.Output)
	}
}

func TestConcurrentQueries(t *testing.T) {
	// Several queries issued before the simulation runs: their walks
	// interleave in virtual time and every one completes with its own
	// result.
	a := mustScheme(SchemeAdvanced)
	rt := fig2Runtime(t, a)
	evs := []types.Tuple{
		packet("n1", "n1", "n3", "a"),
		packet("n1", "n1", "n3", "b"),
		packet("n2", "n2", "n3", "c"),
	}
	injectSpaced(rt, evs...)
	rt.Run()

	results := make(map[string]QueryResult)
	for _, ev := range evs {
		ev := ev
		out := recvTuple("n3", ev.Args[1].AsString(), "n3", ev.Args[3].AsString())
		a.QueryProvenance(out, types.HashTuple(ev), func(r QueryResult) {
			results[ev.Args[3].AsString()] = r
		})
	}
	rt.Run()
	if len(results) != 3 {
		t.Fatalf("completed queries = %d, want 3", len(results))
	}
	for payload, r := range results {
		if len(r.Trees) != 1 {
			t.Errorf("query %s: trees = %d", payload, len(r.Trees))
			continue
		}
		if got := r.Trees[0].EventOf().Args[3].AsString(); got != payload {
			t.Errorf("query %s answered with event payload %s", payload, got)
		}
	}
}

func TestRecorderState(t *testing.T) {
	rec := referenceTrees(t, packet("n1", "n1", "n3", "data"), packet("n1", "n1", "n3", "url"))
	if len(rec.Trees()) != 2 {
		t.Fatalf("trees = %d, want 2", len(rec.Trees()))
	}
	for _, tr := range rec.Trees() {
		if tr.Depth() != 3 {
			t.Errorf("depth = %d, want 3", tr.Depth())
		}
	}
	if rec.TotalStorageBytes() <= 0 {
		t.Error("recorder storage accounting zero")
	}
	if rec.StorageBytes("n3") != rec.TotalStorageBytes() {
		t.Error("all trees root at n3")
	}
	vid := types.HashTuple(recvTuple("n3", "n1", "n3", "data"))
	if got := rec.TreesFor(vid, types.ZeroID); len(got) != 1 {
		t.Errorf("TreesFor = %d, want 1", len(got))
	}
	if got := rec.TreesFor(vid, types.HashTuple(packet("n1", "n1", "n3", "url"))); len(got) != 0 {
		t.Errorf("TreesFor with foreign evid = %d, want 0", len(got))
	}
}
