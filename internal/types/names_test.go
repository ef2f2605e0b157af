package types

import (
	"bytes"
	"math/rand"
	"testing"

	"provcompress/internal/raceflag"
)

// testNames is a name table like a cluster's: relation names and node
// addresses, including names that prefix one another.
var testNames = NewNames("packet", "recv", "route", "n", "n1", "n3", "n10", "")

// checkDecodeBothWays decodes data without and with a name table and
// requires the same outcome: the same error or none, the same bytes
// consumed, Equal tuples with one content hash and one re-encoding.
func checkDecodeBothWays(t *testing.T, data []byte, names *Names) {
	t.Helper()
	plain, n1, err1 := DecodeTuple(data, nil)
	named, n2, err2 := DecodeTuple(data, names)
	if (err1 == nil) != (err2 == nil) || n1 != n2 {
		t.Fatalf("plain decode (%d, %v), named decode (%d, %v)", n1, err1, n2, err2)
	}
	if err1 != nil {
		if err1.Error() != err2.Error() {
			t.Fatalf("errors differ: %v vs %v", err1, err2)
		}
		return
	}
	if !plain.Equal(named) || HashTuple(plain) != HashTuple(named) {
		t.Fatalf("plain %v and named %v decode differently", plain, named)
	}
	if !bytes.Equal(plain.Encode(), named.Encode()) {
		t.Fatalf("re-encodings differ:\n% x\n% x", plain.Encode(), named.Encode())
	}
}

func TestDecodeTupleWithNamesMatchesPlain(t *testing.T) {
	tuples := []Tuple{
		pkt("n1", "n1", "n3", "data"),
		pkt("n1", "n10", "n3", "n1"),
		NewTuple("route", String("n"), String("n3"), String("n33")),
		NewTuple("unknown", String(""), Int(-7), Bool(true)),
		NewTuple(""),
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		tuples = append(tuples, randomTuple(r))
	}
	for _, tp := range tuples {
		enc := tp.Encode()
		checkDecodeBothWays(t, enc, testNames)
		for cut := 0; cut < len(enc); cut++ {
			checkDecodeBothWays(t, enc[:cut], testNames)
		}
	}
}

// TestDecodeTupleInternedAllocs pins what interning buys: a tuple whose
// relation and string arguments are all names costs exactly its Args
// slice, and without the table each of them is one more allocation.
func TestDecodeTupleInternedAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	enc := NewTuple("route", String("n1"), String("n3"), Int(4), String("n10")).Encode()
	var sink Tuple
	if n := testing.AllocsPerRun(200, func() { sink, _, _ = DecodeTuple(enc, testNames) }); n != 1 {
		t.Errorf("interned decode allocates %.0f times, want 1 (the Args slice)", n)
	}
	if n := testing.AllocsPerRun(200, func() { sink, _, _ = DecodeTuple(enc, nil) }); n != 5 {
		t.Errorf("plain decode allocates %.0f times, want 5", n)
	}
	_ = sink
}
