package provserve

import (
	"bytes"
	"encoding/json"
	"testing"

	"provcompress/internal/types"
)

// checkAccepted requires a tuple the HTTP layer accepted to survive the
// binary codec every later layer stores and ships it in, and to come back
// unchanged from the JSON form /v1/outputs lists it in.
func checkAccepted(t *testing.T, tup types.Tuple) {
	t.Helper()
	enc := tup.Encode()
	dec, n, err := types.DecodeTuple(enc, nil)
	if err != nil || n != len(enc) || !dec.Equal(tup) {
		t.Fatalf("accepted %v decodes to %v (consumed %d of %d, err %v)", tup, dec, n, len(enc), err)
	}
	raw, err := json.Marshal(specOf(tup))
	if err != nil {
		t.Fatalf("listing %v: %v", tup, err)
	}
	var spec tupleSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("listed %s does not parse: %v", raw, err)
	}
	if back, err := spec.tuple(); err != nil || !back.Equal(tup) {
		t.Fatalf("listed %s parses back to %v (err %v), want %v", raw, back, err, tup)
	}
}

// FuzzEventsBody covers the POST /v1/events body, the bytes a client
// sends into every cluster: arbitrary input never panics, and every event
// it accepts round-trips.
func FuzzEventsBody(f *testing.F) {
	for _, seed := range []string{
		`{"events":[{"rel":"packet","args":["n0","n0","n2","hello"]}],"wait_ms":2000}`,
		`{"events":[{"rel":"r","args":["n1",-3,true,9007199254740992]},{"rel":"s","args":["n"]}]}`,
		`{"events":[{"rel":"r","args":["n1",1.5]}]}`,
		`{"events":[{"rel":"r","args":["n1",null,{"a":1},[2]]}]}`,
		`{"events":[{"rel":"","args":[]}]}`,
		`{"events":[]}`,
		`{"events":[{"rel":"r\u0000","args":["\ud800","é"]}]} trailing`,
		`{"wait_ms":-1}`,
		`[`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, tuples, err := decodeEvents(bytes.NewReader(body))
		if err != nil {
			return
		}
		if len(tuples) == 0 || len(tuples) != len(req.Events) {
			t.Fatalf("accepted %d tuples for %d events", len(tuples), len(req.Events))
		}
		for _, tup := range tuples {
			checkAccepted(t, tup)
		}
	})
}

// FuzzQueryArgs covers a GET /v1/query's rel and args parameters: arbitrary
// input never panics, and every tuple it accepts round-trips.
func FuzzQueryArgs(f *testing.F) {
	for _, seed := range []struct{ rel, args string }{
		{"recv", `["n5","n0","n5","hello"]`},
		{"r", `["n1",-9007199254740992,false]`},
		{"r", `["n1",1e300]`},
		{"r", `[]`},
		{"", `["n1"]`},
		{"r", `{"a":1}`},
		{"r", `["n1"`},
		{"r\xff", `["\udfff"]`},
	} {
		f.Add(seed.rel, seed.args)
	}
	f.Fuzz(func(t *testing.T, rel, args string) {
		tup, err := queryTuple(rel, args)
		if err != nil {
			return
		}
		checkAccepted(t, tup)
	})
}
