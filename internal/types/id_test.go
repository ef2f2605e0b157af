package types

import (
	"crypto/sha1"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"provcompress/internal/raceflag"
)

func TestIDZeroAndString(t *testing.T) {
	var id ID
	if !id.IsZero() {
		t.Error("zero ID not IsZero")
	}
	if id.String() != "NULL" {
		t.Errorf("zero ID String = %q, want NULL", id.String())
	}
	h := HashTuple(pkt("n1", "n1", "n3", "data"))
	if h.IsZero() {
		t.Error("hash of a tuple is zero")
	}
	if len(h.Hex()) != 40 {
		t.Errorf("Hex length = %d, want 40", len(h.Hex()))
	}
	if len(h.String()) != 16 {
		t.Errorf("short String length = %d, want 16", len(h.String()))
	}
}

func TestHashTupleDeterministicAndDiscriminating(t *testing.T) {
	a := HashTuple(pkt("n1", "n1", "n3", "data"))
	b := HashTuple(pkt("n1", "n1", "n3", "data"))
	if a != b {
		t.Error("same tuple hashed to different IDs")
	}
	diff := []Tuple{
		pkt("n2", "n1", "n3", "data"), // location
		pkt("n1", "n1", "n3", "url"),  // payload
		NewTuple("recv", String("n1"), String("n1"), String("n3"), String("data")), // relation
	}
	for _, tp := range diff {
		if HashTuple(tp) == a {
			t.Errorf("distinct tuple %v collides", tp)
		}
	}
	// Kind matters: Int(1) vs String("1") vs Bool(true) must differ.
	x := HashTuple(NewTuple("r", String("n"), Int(1)))
	y := HashTuple(NewTuple("r", String("n"), String("1")))
	z := HashTuple(NewTuple("r", String("n"), Bool(true)))
	if x == y || y == z || x == z {
		t.Error("values of different kinds collide")
	}
}

func TestRuleExecID(t *testing.T) {
	v1 := HashTuple(NewTuple("route", String("n1"), String("n3"), String("n2")))
	v2 := HashTuple(pkt("n1", "n1", "n3", "data"))
	a := RuleExecID("r1", "n1", []ID{v1, v2})
	b := RuleExecID("r1", "n1", []ID{v1, v2})
	if a != b {
		t.Error("RuleExecID not deterministic")
	}
	if RuleExecID("r2", "n1", []ID{v1, v2}) == a {
		t.Error("rule name ignored")
	}
	if RuleExecID("r1", "n2", []ID{v1, v2}) == a {
		t.Error("location ignored")
	}
	if RuleExecID("r1", "n1", []ID{v2, v1}) == a {
		t.Error("vid order ignored")
	}
	if RuleExecID("r1", "n1", nil) == a {
		t.Error("vids ignored")
	}
	// Advanced form: no location.
	if RuleExecID("r1", "", []ID{v1}) == RuleExecID("r1", "n1", []ID{v1}) {
		t.Error("empty and non-empty location collide")
	}
}

func TestHashValues(t *testing.T) {
	a := HashValues([]Value{String("n1"), String("n3")})
	b := HashValues([]Value{String("n1"), String("n3")})
	if a != b {
		t.Error("HashValues not deterministic")
	}
	if HashValues([]Value{String("n3"), String("n1")}) == a {
		t.Error("order ignored")
	}
	if HashValues([]Value{String("n1")}) == a {
		t.Error("length ignored")
	}
}

// Property: hashing is injective on distinct random tuples with overwhelming
// probability; equal tuples always hash equal.
func TestHashTupleQuick(t *testing.T) {
	cfg := &quick.Config{
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomTuple(r))
			vals[1] = reflect.ValueOf(randomTuple(r))
		},
	}
	f := func(a, b Tuple) bool {
		ha, hb := HashTuple(a), HashTuple(b)
		if a.Equal(b) {
			return ha == hb
		}
		return ha != hb
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestHashTupleAllocs pins HashTuple's two contracts: the VID is sha1 over
// the canonical encoding whatever buffer stages it (a tuple that fits the
// stack buffer, and one that does not), and hashing an ordinary tuple
// allocates nothing.
func TestHashTupleAllocs(t *testing.T) {
	small := pkt("n1", "n1", "n3", "data")
	big := pkt("n1", "n1", "n3", strings.Repeat("x", 1000))
	for _, tu := range []Tuple{small, big, {Rel: "empty"}} {
		if got, want := HashTuple(tu), ID(sha1.Sum(tu.Encode())); got != want {
			t.Errorf("HashTuple(%s) = %s, want sha1 of the encoding %s", tu.Rel, got.Hex(), want.Hex())
		}
	}
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var sink ID
	if n := testing.AllocsPerRun(200, func() { sink = HashTuple(small) }); n != 0 {
		t.Errorf("HashTuple allocates %.0f times per tuple, want 0", n)
	}
	_ = sink
}

// hasherRuleExecID is RuleExecID as it was first written, streaming its
// parts through a sha1.New digest; TestRuleExecIDMatchesHasher holds the
// stack-staged version to it, so every stored RID stays what it was.
func hasherRuleExecID(rule string, loc NodeAddr, vids []ID) ID {
	h := sha1.New()
	h.Write([]byte(rule))
	h.Write([]byte{0})
	h.Write([]byte(loc))
	h.Write([]byte{0})
	for _, v := range vids {
		h.Write(v[:])
	}
	var id ID
	h.Sum(id[:0])
	return id
}

// TestRuleExecIDMatchesHasher checks RuleExecID against the digest
// version on random rules, locations and VID lists, from empty to longer
// than the stack buffer holds, and its chained form (next passed as an
// argument) against the digest over vids with next appended — the copy
// the chained Advanced RID used to build.
func TestRuleExecIDMatchesHasher(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 2000; i++ {
		rule := strings.Repeat("r", rng.Intn(12))
		loc := NodeAddr(strings.Repeat("n", rng.Intn(12)))
		vids := make([]ID, rng.Intn(40))
		for j := range vids {
			rng.Read(vids[j][:])
		}
		if got, want := RuleExecID(rule, loc, vids), hasherRuleExecID(rule, loc, vids); got != want {
			t.Fatalf("case %d: RuleExecID(%q, %q, %d vids) = %s, want %s", i, rule, loc, len(vids), got.Hex(), want.Hex())
		}
		var next ID
		if rng.Intn(4) > 0 {
			rng.Read(next[:])
		}
		chained := append(append([]ID(nil), vids...), next)
		if got, want := RuleExecID(rule, loc, vids, next), hasherRuleExecID(rule, loc, chained); got != want {
			t.Fatalf("case %d: chained RuleExecID(%q, %q, %d vids) = %s, want %s", i, rule, loc, len(vids), got.Hex(), want.Hex())
		}
	}
}

// TestRuleExecIDAllocs: computing a RID, chained or not, allocates nothing
// for a row of ordinary width.
func TestRuleExecIDAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	vids := []ID{HashTuple(pkt("n1", "n1", "n3", "data")), HashBytes([]byte("route"))}
	next := HashBytes([]byte("next"))
	var sink ID
	if n := testing.AllocsPerRun(200, func() { sink = RuleExecID("r1", "n1", vids) }); n != 0 {
		t.Errorf("RuleExecID allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { sink = RuleExecID("r1", "", vids, next) }); n != 0 {
		t.Errorf("chained RuleExecID allocates %.0f times, want 0", n)
	}
	_ = sink
}
