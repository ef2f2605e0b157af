package cluster

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"provcompress/internal/wire"
)

// walkBody encodes a walk frame and strips the kind byte dispatch consumes
// before decodeWalkFrame runs.
func walkBody(f *walkFrame) []byte {
	return f.encode(frameWalk)[1:]
}

// FuzzDecodeWalkFrame covers the one decoder a peer's socket feeds that
// reaches a cache: arbitrary bytes must never panic, whatever decodes stays
// inside the item limits, and the codec round-trips what it accepted
// (encode∘decode is a fixed point after one generation — the first decode
// may normalize a non-canonical bool).
func FuzzDecodeWalkFrame(f *testing.F) {
	full := walkBody(sampleWalk())
	f.Add(full)
	f.Add(walkBody(&walkFrame{}))
	f.Add(walkBody(&walkFrame{QID: 1, Querier: "n9", Partial: true, Hops: maxWalkHops}))
	f.Add(full[:len(full)/2])
	f.Add(full[:17])
	f.Add(corruptFirstCount(full))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeWalkFrame(wire.NewDecoder(data))
		if err != nil {
			return
		}
		for what, n := range map[string]int{
			"prov rows": len(fr.RootProvs), "work refs": len(fr.Work), "entries": len(fr.Entries),
			"collected prov rows": len(fr.Provs), "tuples": len(fr.Tuples),
		} {
			if n > maxWalkItems {
				t.Fatalf("decoded %d %s, past the %d-item guard", n, what, maxWalkItems)
			}
		}
		enc := walkBody(fr)
		again, err := decodeWalkFrame(wire.NewDecoder(enc))
		if err != nil {
			t.Fatalf("decode of encoder output: %v", err)
		}
		if !bytes.Equal(walkBody(again), enc) {
			t.Fatal("walk frame did not round trip")
		}
	})
}

// TestWalkFrameRefusesOverLimitCounts plants a count one past maxWalkItems
// at every offset of a well-formed frame: the decoder must refuse each of
// its seven count fields by name (before sizing anything by it) and never
// accept a frame holding more than the limit.
func TestWalkFrameRefusesOverLimitCounts(t *testing.T) {
	full := walkBody(sampleWalk())
	refused := make(map[string]bool)
	for off := 0; off+4 <= len(full); off++ {
		data := append([]byte(nil), full...)
		binary.BigEndian.PutUint32(data[off:], maxWalkItems+1)
		_, err := decodeWalkFrame(wire.NewDecoder(data))
		if err == nil {
			continue // landed inside a fixed-width field (an ID, the QID)
		}
		if _, what, ok := strings.Cut(err.Error(), "walk frame with 1048577 "); ok {
			refused[what] = true
		}
	}
	for _, what := range []string{"prov rows", "work refs", "entries", "entry vids", "entry links", "collected prov rows", "tuples"} {
		if !refused[what] {
			t.Errorf("an over-limit %s count was not refused by the item guard", what)
		}
	}
}
