package wire

import (
	"bytes"
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
	// The per-entry payload sections plus the fixed framing must account
	// for every encoded byte — this is the attribution invariant the
	// transport relies on to keep class sums equal to link totals.
	framing := 4 + 16*len(in)
	total := framing
	for _, s := range sizes {
		total += s
	}
	if total != len(body) {
		t.Fatalf("sizes sum %d + framing != body %d", total, len(body))
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

func TestBatchDecodeRejectsCorruption(t *testing.T) {
	deltaNoBase := appendU32(nil, 1)
	deltaNoBase = appendU64(deltaNoBase, 1)
	deltaNoBase = appendU64(deltaNoBase, 1)
	deltaNoBase = append(deltaNoBase, batchDelta)
	deltaNoBase = appendU32(deltaNoBase, 4) // prefix vs an empty base
	deltaNoBase = appendU32(deltaNoBase, 0)
	deltaNoBase = appendU32(deltaNoBase, 0)
	unknownFlag := appendU32(nil, 1)
	unknownFlag = appendU64(unknownFlag, 1)
	unknownFlag = appendU64(unknownFlag, 1)
	unknownFlag = append(unknownFlag, 99)
	cases := map[string][]byte{
		"huge count":     appendU32(nil, MaxBatchEntries+1),
		"truncated":      appendU32(nil, 2),
		"unknown flag":   unknownFlag,
		"delta no base":  deltaNoBase,
		"delta oversize": buildBadDelta(),
	}
	for name, body := range cases {
		if _, err := DecodeBatch(NewDecoder(body)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// buildBadDelta encodes a raw entry then a delta whose prefix+suffix
// exceed the base payload's length.
func buildBadDelta() []byte {
	body, _ := AppendBatch(nil, batchOf([]byte("base")), false, nil)
	body = appendU64(appendU64(body, 2), 2)
	body = append(body, batchDelta)
	body = appendU32(body, 3) // prefix
	body = appendU32(body, 3) // suffix: 3+3 > len("base")
	body = appendU32(body, 0) // mid
	// Patch the count to 2.
	count := appendU32(nil, 2)
	copy(body, count)
	return body
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
