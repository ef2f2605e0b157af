package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"provcompress/internal/raceflag"
)

func batchOf(payloads ...[]byte) []BatchEntry {
	entries := make([]BatchEntry, len(payloads))
	for i, p := range payloads {
		entries[i] = BatchEntry{Seq: uint64(i + 1), Epoch: uint64(100 + i), Payload: p}
	}
	return entries
}

func decodeBody(t *testing.T, body []byte) []BatchEntry {
	t.Helper()
	d := NewDecoder(body)
	entries, err := DecodeBatch(d)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left after batch", d.Remaining())
	}
	return entries
}

func checkRoundTrip(t *testing.T, in []BatchEntry, compress bool) []int {
	t.Helper()
	body, sizes := AppendBatch(nil, in, compress, nil)
	if len(sizes) != len(in) {
		t.Fatalf("%d sizes for %d entries", len(sizes), len(in))
	}
	// The per-entry payload sections plus the framing (count, then each
	// entry's seq and epoch deltas) must account for every encoded byte —
	// this is the attribution invariant the transport relies on to keep
	// class sums equal to link totals.
	total := uvarintLen(uint64(len(in)))
	var prevSeq, prevEpoch uint64
	for i, ent := range in {
		total += uvarintLen(ent.Seq-prevSeq) + uvarintLen(zigzag(ent.Epoch-prevEpoch)) + sizes[i]
		prevSeq, prevEpoch = ent.Seq, ent.Epoch
	}
	if total != len(body) {
		t.Fatalf("sizes sum + framing = %d, body %d", total, len(body))
	}
	out := decodeBody(t, body)
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Seq != in[i].Seq || out[i].Epoch != in[i].Epoch {
			t.Fatalf("entry %d header (%d,%d), want (%d,%d)", i, out[i].Seq, out[i].Epoch, in[i].Seq, in[i].Epoch)
		}
		if !bytes.Equal(out[i].Payload, in[i].Payload) {
			t.Fatalf("entry %d payload %q, want %q", i, out[i].Payload, in[i].Payload)
		}
	}
	return sizes
}

func TestBatchRoundTrip(t *testing.T) {
	cases := [][]BatchEntry{
		batchOf(),
		batchOf([]byte{}),
		batchOf([]byte("solo")),
		batchOf([]byte("tuple:packet:n0:n4:aaaa"), []byte("tuple:packet:n0:n4:aaab"), []byte("tuple:packet:n0:n4:aaac")),
		batchOf([]byte("short"), bytes.Repeat([]byte{7}, 4096), []byte{}, []byte("short")),
		batchOf([]byte("same"), []byte("same"), []byte("same")),
	}
	for i, in := range cases {
		for _, compress := range []bool{false, true} {
			t.Logf("case %d compress=%v", i, compress)
			checkRoundTrip(t, in, compress)
		}
	}
}

// TestBatchDeltaCompresses pins that near-identical consecutive payloads
// (the AdvMeta piggyback shape: same relation, same equivalence key, a
// few differing bytes) actually shrink on the wire.
func TestBatchDeltaCompresses(t *testing.T) {
	base := append(bytes.Repeat([]byte{0xAB}, 200), []byte("payload-000")...)
	var entries []BatchEntry
	for i := 0; i < 64; i++ {
		p := append([]byte(nil), base...)
		p[205] = byte(i) // a few bytes differ per frame
		entries = append(entries, BatchEntry{Seq: uint64(i), Epoch: uint64(i), Payload: p})
	}
	raw, _ := AppendBatch(nil, entries, false, nil)
	comp, sizes := AppendBatch(nil, entries, true, nil)
	if len(comp) >= len(raw)/4 {
		t.Fatalf("delta encoding saved too little: %d compressed vs %d raw", len(comp), len(raw))
	}
	// Every entry after the first should have taken the delta path.
	for i, s := range sizes {
		if i > 0 && s >= len(entries[i].Payload) {
			t.Fatalf("entry %d section %d bytes >= raw payload %d", i, s, len(entries[i].Payload))
		}
	}
	checkRoundTrip(t, entries, true)
}

// uvs concatenates the canonical uvarints of vals: the way to spell a
// batch body by hand.
func uvs(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// malformedBatches are bodies DecodeBatch must refuse; FuzzBatchDecode
// starts from them too. An entry reads seq, epoch, back, then either
// (len, bytes) or (prefix, suffix, midLen, bytes).
func malformedBatches() map[string][]byte {
	raw4 := append(uvs(1, 0, 0, 4), "base"...) // seq 1, epoch 0, raw "base"
	withRaw := func(count uint64, rest []byte) []byte {
		return append(append(uvs(count), raw4...), rest...)
	}
	return map[string][]byte{
		"huge count":            uvs(MaxBatchEntries + 1),
		"truncated":             uvs(2),
		"count past the bytes":  withRaw(3, uvs(1, 0, 0)),
		"delta as first entry":  uvs(1, 1, 0, 1, 0, 0, 0),
		"back past the start":   withRaw(2, uvs(1, 0, 2, 1, 1, 0)),
		"prefix+suffix too big": withRaw(2, uvs(1, 0, 1, 3, 3, 0)),
		"suffix wraps":          withRaw(2, uvs(1, 0, 1, 2, 1<<64-1, 0)),
		"mid past the end":      withRaw(2, uvs(1, 0, 1, 1, 1, 9)),
		"raw past the end":      uvs(1, 1, 0, 0, 9),
		"padded uvarint":        append([]byte{1, 0x81, 0x00, 0, 0, 4}, "base"...),
		"eleven-byte uvarint":   append(append([]byte{1}, bytes.Repeat([]byte{0xFF}, 10)...), 0x01, 0, 0, 0),
		"uvarint overflow":      append(append([]byte{1}, bytes.Repeat([]byte{0xFF}, 9)...), 0x02, 0, 0, 0),
	}
}

func TestBatchDecodeRejectsCorruption(t *testing.T) {
	for name, body := range malformedBatches() {
		if _, err := DecodeBatch(NewDecoder(body)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestBatchSeqEpochDeltas pins the entry framing at its ends: ascending
// seqs and a steady epoch cost one byte each, and values that run
// backwards or span the whole range still round trip.
func TestBatchSeqEpochDeltas(t *testing.T) {
	steady := []BatchEntry{{Seq: 1000, Epoch: 7}, {Seq: 1001, Epoch: 7}, {Seq: 1002, Epoch: 6}}
	body, sizes := AppendBatch(nil, steady, true, nil)
	// count + (2-byte seq, 1-byte epoch) + 2 × (1, 1), then the sections.
	if want := 1 + 3 + 2 + 2 + sizes[0] + sizes[1] + sizes[2]; len(body) != want {
		t.Fatalf("steady batch is %d bytes, want %d", len(body), want)
	}
	checkRoundTrip(t, steady, true)
	checkRoundTrip(t, []BatchEntry{{Seq: 5, Epoch: 1<<64 - 1}, {Seq: 2, Epoch: 0}, {Seq: 1<<64 - 1, Epoch: 1 << 63}}, true)
}

// classFrame mimics a tuple frame of the cluster: a header and key fields
// fixed by the class, a per-event payload and evid, then the class's
// invariant metadata.
func classFrame(class, event int) []byte {
	b := []byte(fmt.Sprintf("\x01................packet:n%d:n%d:", class, class+4))
	b = append(b, fmt.Sprintf("payload-%032d", event*7919+class)...)
	b = append(b, bytes.Repeat([]byte{byte(event), byte(class), byte(event >> 3)}, 7)[:20]...) // evid
	b = append(b, bytes.Repeat([]byte{byte(0xA0 + class)}, 20)...)                             // eq
	return append(b, 1)                                                                        // flags
}

// TestBatchGroupedDelta pins the class-grouped delta: with three classes
// interleaved on one link, every second-and-later frame of a class costs
// at most its per-event bytes (payload and evid) plus eight, where a
// previous-entry delta would resend the class's key fields and metadata
// every time.
func TestBatchGroupedDelta(t *testing.T) {
	const perEvent = 40 + 20
	var grouped, ungrouped []BatchEntry
	for i := 0; i < 30; i++ {
		class := []int{0, 1, 2, 1, 0, 2}[i%6]
		ent := BatchEntry{Seq: uint64(i + 1), Epoch: 3, Payload: classFrame(class, i), Group: uint64(class + 1)}
		grouped = append(grouped, ent)
		ent.Group = 0
		ungrouped = append(ungrouped, ent)
	}
	sizes := checkRoundTrip(t, grouped, true)
	seen := map[uint64]bool{}
	total := 0
	for i, ent := range grouped {
		if seen[ent.Group] && sizes[i] > perEvent+8 {
			t.Errorf("entry %d (class %d) took %d bytes, want <= %d", i, ent.Group, sizes[i], perEvent+8)
		}
		seen[ent.Group] = true
		total += sizes[i]
	}
	plain := 0
	for _, s := range checkRoundTrip(t, ungrouped, true) {
		plain += s
	}
	if total >= plain {
		t.Fatalf("grouping saved nothing: %d bytes grouped, %d against the previous entry", total, plain)
	}
}

// TestBatchGroupCollision: two groups sharing a table slot evict each
// other and fall back to the previous entry; the batch still round trips.
func TestBatchGroupCollision(t *testing.T) {
	var entries []BatchEntry
	for i := 0; i < 8; i++ {
		group := uint64(5 + groupSlots*(i%2))
		entries = append(entries, BatchEntry{Seq: uint64(i), Payload: classFrame(int(group), i), Group: group})
	}
	checkRoundTrip(t, entries, true)
}

// TestBatchTail pins the in/out Tail contract the transport's byte
// attribution rests on: of the payload's last Tail bytes, how many the
// section carries.
func TestBatchTail(t *testing.T) {
	a := []byte("head-AAAA-evid1-classmeta")
	b := []byte("head-BBBB-evid2-classmeta") // differs in [5,9) and at 14
	entries := []BatchEntry{
		{Seq: 1, Payload: a, Tail: 15},                        // raw: the whole tail
		{Seq: 2, Payload: b, Tail: 15},                        // mid = [5,15), tail = [10,25): 5 bytes
		{Seq: 3, Payload: b, Tail: 15},                        // identical to its reference: nothing
		{Seq: 4, Payload: []byte("x"), Tail: 9},               // tail longer than the payload
		{Seq: 5, Payload: []byte("head-BBBB-evid2"), Tail: 0}, // no tail asked for
	}
	AppendBatch(nil, entries, true, nil)
	for i, want := range []int{15, 5, 0, 1, 0} {
		if entries[i].Tail != want {
			t.Errorf("entry %d: Tail = %d, want %d", i, entries[i].Tail, want)
		}
	}
}

// TestPooledEncodeAllocs pins the pooled hot path: staging a batch into
// a pooled buffer and writing it as one frame must not allocate in
// steady state, and decoding it must cost O(1) allocations per batch,
// not per entry.
func TestPooledEncodeAllocs(t *testing.T) {
	if raceflag.Enabled {
		// The race detector randomly drops sync.Pool items to widen
		// interleaving coverage, so the zero-alloc contract is not
		// measurable here; `make allocs` enforces it race-free.
		t.Skip("sync.Pool reuse is randomized under the race detector")
	}
	payload := bytes.Repeat([]byte{0xC3}, 128)
	entries := make([]BatchEntry, 64)
	for i := range entries {
		p := append([]byte(nil), payload...)
		p[5] = byte(i)
		entries[i] = BatchEntry{Seq: uint64(i), Epoch: uint64(i), Payload: p}
	}
	sizes := make([]int, 0, len(entries))
	if n := testing.AllocsPerRun(200, func() {
		buf := GetBuf()
		buf, sizes = AppendBatch(buf, entries, true, sizes[:0])
		if err := WriteFrame(io.Discard, buf); err != nil {
			t.Fatal(err)
		}
		PutBuf(buf)
	}); n > 0 {
		t.Fatalf("pooled encode+write path allocates %.1f times per batch, want 0", n)
	}

	body, _ := AppendBatch(nil, entries, true, nil)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeBatch(NewDecoder(body)); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("batch decode allocates %.1f times per %d-entry batch, want <= 4", n, len(entries))
	}
}

// TestReadFrameBufReuses pins the pooled read path: a loop threading the
// returned buffer back in must not allocate once the buffer has grown to
// the stream's frame size.
func TestReadFrameBufReuses(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 8; i++ {
		if err := WriteFrame(&stream, bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	raw := stream.Bytes()
	r := bytes.NewReader(raw)
	buf := make([]byte, 512)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		for {
			p, err := ReadFrameBuf(r, buf)
			if err != nil {
				break
			}
			buf = p
		}
	}); n > 0 {
		t.Fatalf("pooled frame reads allocate %.1f times per pass, want 0", n)
	}
}
