package types

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func pkt(loc, src, dst, data string) Tuple {
	return NewTuple("packet", String(loc), String(src), String(dst), String(data))
}

func TestTupleBasics(t *testing.T) {
	tp := pkt("n1", "n1", "n3", "data")
	if tp.Rel != "packet" || tp.Arity() != 4 {
		t.Fatalf("bad tuple: %v", tp)
	}
	if tp.Loc() != "n1" {
		t.Errorf("Loc = %q, want n1", tp.Loc())
	}
	want := `packet(@n1, "n1", "n3", "data")`
	if got := tp.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestTupleLocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Loc on empty tuple should panic")
		}
	}()
	Tuple{Rel: "empty"}.Loc()
}

func TestTupleEqual(t *testing.T) {
	a := pkt("n1", "n1", "n3", "data")
	b := pkt("n1", "n1", "n3", "data")
	if !a.Equal(b) {
		t.Error("identical tuples not Equal")
	}
	if a.Equal(pkt("n1", "n1", "n3", "url")) {
		t.Error("tuples with different payloads Equal")
	}
	if a.Equal(NewTuple("recv", String("n1"), String("n1"), String("n3"), String("data"))) {
		t.Error("tuples with different relations Equal")
	}
	if a.Equal(NewTuple("packet", String("n1"))) {
		t.Error("tuples with different arity Equal")
	}
}

func TestTupleClone(t *testing.T) {
	a := pkt("n1", "n1", "n3", "data")
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Args[3] = String("mutated")
	if a.Args[3].AsString() != "data" {
		t.Error("mutating clone affected original")
	}
}

func TestTupleEncodeDecodeRoundTrip(t *testing.T) {
	tuples := []Tuple{
		pkt("n1", "n1", "n3", "data"),
		NewTuple("route", String("n2"), String("n3"), String("n3")),
		NewTuple("mixed", String("n1"), Int(-7), Bool(true), String("")),
		NewTuple("noargs"),
	}
	for _, tp := range tuples {
		enc := tp.Encode()
		if len(enc) != tp.EncodedSize() {
			t.Errorf("%v: EncodedSize %d != actual %d", tp, tp.EncodedSize(), len(enc))
		}
		got, n, err := DecodeTuple(enc, nil)
		if err != nil {
			t.Fatalf("decode %v: %v", tp, err)
		}
		if n != len(enc) || !got.Equal(tp) {
			t.Errorf("round trip %v -> %v (n=%d/%d)", tp, got, n, len(enc))
		}
	}
}

func TestTupleDecodeErrors(t *testing.T) {
	good := pkt("n1", "n1", "n3", "data").Encode()
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := DecodeTuple(good[:cut], nil); err == nil {
			// Truncation at some boundaries can still parse a shorter valid
			// prefix only if all bytes are consumed, which never happens for
			// a strict prefix of this encoding.
			t.Errorf("DecodeTuple(prefix %d): expected error", cut)
		}
	}
}

// randomTuple generates an arbitrary tuple whose first attribute is a valid
// string location, for property tests.
func randomTuple(r *rand.Rand) Tuple {
	rels := []string{"packet", "recv", "route", "request", "reply"}
	arity := 1 + r.Intn(5)
	args := make([]Value, arity)
	args[0] = String(randWord(r))
	for i := 1; i < arity; i++ {
		switch r.Intn(3) {
		case 0:
			args[i] = Int(r.Int63n(1000) - 500)
		case 1:
			args[i] = String(randWord(r))
		default:
			args[i] = Bool(r.Intn(2) == 0)
		}
	}
	return Tuple{Rel: rels[r.Intn(len(rels))], Args: args}
}

func randWord(r *rand.Rand) string {
	letters := "abcdefghijklmnopqrstuvwxyz0123456789"
	n := 1 + r.Intn(10)
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

func TestTupleEncodeRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomTuple(r))
		},
	}
	f := func(tp Tuple) bool {
		enc := tp.Encode()
		got, n, err := DecodeTuple(enc, nil)
		return err == nil && n == len(enc) && got.Equal(tp) && len(enc) == tp.EncodedSize()
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
