package wire

import (
	"bytes"
	"testing"

	"provcompress/internal/types"
)

// FuzzReadFrame checks the frame reader against arbitrary input.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, []byte("hello"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrameBuf(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		// A successfully read frame must round trip.
		var out bytes.Buffer
		if err := WriteFrame(&out, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:4+len(payload)]) {
			t.Fatal("frame round trip mismatch")
		}
	})
}

// FuzzBatchDecode throws arbitrary bytes at the frameBatch body decoder:
// it must reject or decode, never panic, and anything it decodes must
// re-encode to a body that decodes to the same entries.
func FuzzBatchDecode(f *testing.F) {
	seed, _ := AppendBatch(nil, []BatchEntry{
		{Seq: 1, Epoch: 9, Payload: []byte("tuple:packet:n0:n4:a")},
		{Seq: 2, Epoch: 9, Payload: []byte("tuple:packet:n0:n4:b")},
	}, true, nil)
	f.Add(seed)
	raw, _ := AppendBatch(nil, []BatchEntry{{Seq: 7, Epoch: 0, Payload: []byte{}}}, false, nil)
	f.Add(raw)
	grouped, _ := AppendBatch(nil, []BatchEntry{
		{Seq: 1, Epoch: 9, Payload: []byte("tuple:packet:n0:n4:a:eq-04"), Group: 4},
		{Seq: 2, Epoch: 9, Payload: []byte("tuple:packet:n1:n5:b:eq-15"), Group: 15},
		{Seq: 3, Epoch: 8, Payload: []byte("tuple:packet:n0:n4:c:eq-04"), Group: 4},
	}, true, nil)
	f.Add(grouped)
	for _, body := range malformedBatches() {
		f.Add(body)
	}
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeBatch(NewDecoder(data))
		if err != nil {
			return
		}
		for _, compress := range []bool{false, true} {
			body, sizes := AppendBatch(nil, entries, compress, nil)
			if len(sizes) != len(entries) {
				t.Fatalf("%d sizes for %d entries", len(sizes), len(entries))
			}
			again, err := DecodeBatch(NewDecoder(body))
			if err != nil {
				t.Fatalf("re-decode (compress=%v): %v", compress, err)
			}
			if len(again) != len(entries) {
				t.Fatalf("re-decode lost entries: %d vs %d", len(again), len(entries))
			}
			for i := range entries {
				if again[i].Seq != entries[i].Seq || again[i].Epoch != entries[i].Epoch ||
					!bytes.Equal(again[i].Payload, entries[i].Payload) {
					t.Fatalf("entry %d did not round trip (compress=%v)", i, compress)
				}
			}
		}
	})
}

// FuzzBatchRoundTrip drives the encoder from fuzzed payload material:
// data is chopped into chunks (so neighbors share prefixes and suffixes,
// exercising the delta path), each chunk drawing its group from its own
// first byte (zero, a few shared groups, and colliding table slots all
// occur), and the batch must round trip under both compression settings.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte("aaaa-bbbb-cccc-dddd-aaaa-bbbb"), uint8(5), true)
	f.Add([]byte{}, uint8(0), false)
	f.Add(bytes.Repeat([]byte{0xEE}, 300), uint8(1), true)
	f.Add([]byte("\x01key-a:1\x02key-b:1\x01key-a:2\x42key-c:1\x02key-b:2\x00plain:1"), uint8(7), true)
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8, compress bool) {
		size := int(chunk)%32 + 1
		var entries []BatchEntry
		for off := 0; off < len(data) && len(entries) < MaxBatchEntries; off += size {
			end := off + size
			if end > len(data) {
				end = len(data)
			}
			entries = append(entries, BatchEntry{
				Seq:     uint64(len(entries)),
				Epoch:   uint64(off),
				Payload: data[off:end],
				Group:   uint64(data[off] % 67), // 67 > groupSlots: slots collide
				Tail:    int(data[end-1]) % (size + 2),
			})
		}
		body, sizes := AppendBatch(nil, entries, compress, nil)
		for i, ent := range entries {
			if ent.Tail < 0 || ent.Tail > len(ent.Payload) || ent.Tail > sizes[i] {
				t.Fatalf("entry %d: Tail %d of a %d-byte payload in a %d-byte section", i, ent.Tail, len(ent.Payload), sizes[i])
			}
		}
		out, err := DecodeBatch(NewDecoder(body))
		if err != nil {
			t.Fatalf("decode of encoder output: %v", err)
		}
		if len(out) != len(entries) {
			t.Fatalf("decoded %d entries, want %d", len(out), len(entries))
		}
		for i := range entries {
			if out[i].Seq != entries[i].Seq || out[i].Epoch != entries[i].Epoch ||
				!bytes.Equal(out[i].Payload, entries[i].Payload) {
				t.Fatalf("entry %d did not round trip", i)
			}
		}
	})
}

// FuzzDecoderTuple checks the buffer decoder against arbitrary bytes, read
// once plainly and once through a name table: both reads must agree on
// every value, the error and the bytes consumed.
func FuzzDecoderTuple(f *testing.F) {
	e := NewEncoder(0)
	e.Str("hello")
	e.U32(7)
	f.Add(e.Bytes())
	f.Add([]byte{0, 0, 0, 3, 'a'})
	e = NewEncoder(0)
	e.Str("n1")
	e.U32(7)
	e.Tuple(types.NewTuple("packet", types.String("n1"), types.String("n2"), types.String("x")))
	f.Add(e.Bytes())
	names := types.NewNames("packet", "route", "n1", "n2", "hello", "")
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, named := NewDecoder(data), NewNamedDecoder(data, names)
		if a, b := plain.Str(), named.Str(); a != b {
			t.Fatalf("Str: %q vs %q", a, b)
		}
		if a, b := plain.U32(), named.U32(); a != b {
			t.Fatalf("U32: %d vs %d", a, b)
		}
		if a, b := plain.Tuple(), named.Tuple(); !a.Equal(b) || types.HashTuple(a) != types.HashTuple(b) {
			t.Fatalf("Tuple: %v vs %v", a, b)
		}
		if a, b := plain.ID(), named.ID(); a != b {
			t.Fatalf("ID: %v vs %v", a, b)
		}
		if a, b := plain.Bool(), named.Bool(); a != b {
			t.Fatalf("Bool: %v vs %v", a, b)
		}
		if (plain.Err() == nil) != (named.Err() == nil) || plain.Remaining() != named.Remaining() {
			t.Fatalf("plain ends (%v, %d left), named (%v, %d left)",
				plain.Err(), plain.Remaining(), named.Err(), named.Remaining())
		}
	})
}
