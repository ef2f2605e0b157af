package cluster

import (
	"math/rand"
	"testing"
	"time"

	"provcompress/internal/core"
	"provcompress/internal/types"
)

// encode is encodeSized without the metadata size: the frame bytes a
// test hands the receive path.
func (f *tupleFrame) encode() []byte {
	b, _ := f.encodeSized()
	return b
}

// TestMalformedFramesNoPanic feeds truncated and corrupted frames of
// every protocol kind through the receive path: nothing may panic, the
// in-flight accounting must stay balanced (the floor guard refuses to
// settle frames it never counted), and the cluster must keep working
// afterwards. It complements the wire-level fuzz test, which covers the
// codec but not the cluster's frame handlers.
func TestMalformedFramesNoPanic(t *testing.T) {
	c := fig2Cluster(t)
	n := c.Node("n1")

	inners := map[string][]byte{
		"tuple":   (&tupleFrame{Tuple: pkt("n1", "n1", "n3", "x"), Fresh: true}).encode(),
		"tuple2":  (&tupleFrame{Tuple: pkt("n2", "n1", "n3", "y"), Meta: core.AdvMeta{}}).encode(),
		"sig":     encodeSig(),
		"walk":    sampleWalk().encode(frameWalk),
		"result":  sampleWalk().encode(frameResult),
		"unknown": {0xEE, 0x01, 0x02},
	}

	var seq uint64
	feed := func(payload []byte) {
		n.handleFrame(payload)
	}
	for name, inner := range inners {
		// Every truncation of the delivery, including an empty payload and
		// a cut inside the delivery header, and every truncation of the
		// frame inside an intact one-frame batch, so the frame handlers see
		// each cut too.
		for cut := 0; cut <= len(inner); cut++ {
			seq++
			feed(batchOfOne("zz", 0, seq, 0, inner[:cut]))
		}
		for cut := 0; ; cut++ {
			seq++
			delivery := batchOfOne("zz", 0, seq, 0, inner)
			if cut > len(delivery) {
				break
			}
			feed(delivery[:cut])
		}
		// Seeded random corruption of the full delivery.
		rng := rand.New(rand.NewSource(int64(len(name))))
		for trial := 0; trial < 64; trial++ {
			seq++
			delivery := batchOfOne("zz", 0, seq, 0, inner)
			for flips := 0; flips <= trial%4; flips++ {
				delivery[rng.Intn(len(delivery))] ^= byte(1 << rng.Intn(8))
			}
			feed(delivery)
		}
	}
	// Absurd repeat counts inside a walk frame must be rejected by the
	// item guard, not allocated.
	seq++
	huge := sampleWalk().encode(frameWalk)
	// The first U32 count (RootProvs) sits after kind+qid+querier+root+evid.
	feed(batchOfOne("zz", 0, seq, 0, corruptFirstCount(huge)))

	// Corrupt-but-decodable tuples may legitimately fire rules and ship
	// real (counted) frames; those settle. What must NOT remain is any
	// residue from the malformed ones, which were never counted.
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.inflight.Load(); got != 0 {
		t.Fatalf("in-flight counter leaked to %d on malformed frames", got)
	}

	// The cluster still forwards and answers queries.
	ev := pkt("n1", "n1", "n3", "after-garbage")
	if err := c.Inject(ev); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, out := range c.Outputs("n3") {
		if out.Equal(recvT("n3", "n1", "n3", "after-garbage")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("forwarding broken after malformed frames: %v", c.Outputs("n3"))
	}
	res, err := c.Query(recvT("n3", "n1", "n3", "after-garbage"), types.HashTuple(ev), 10*time.Second)
	if err != nil || len(res.Trees) != 1 {
		t.Fatalf("query broken after malformed frames: %v (%d trees)", err, len(res.Trees))
	}
}

// TestMalformedFrameAccountingUnderLoad interleaves garbage with real
// traffic: the garbage must neither wedge Quiesce (by stealing settles)
// nor corrupt the real packets' provenance.
func TestMalformedFrameAccountingUnderLoad(t *testing.T) {
	c := fig2Cluster(t)
	n2 := c.Node("n2")
	for i := 0; i < 8; i++ {
		if err := c.Inject(pkt("n1", "n1", "n3", string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
		n2.handleFrame(batchOfOne("zz", 0, uint64(i+1), 0, []byte{frameTuple, 0xFF}))
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Outputs("n3")); got != 8 {
		t.Fatalf("outputs = %d, want 8", got)
	}
	if got := c.inflight.Load(); got != 0 {
		t.Fatalf("in-flight counter = %d after quiesce", got)
	}
}

// sampleWalk builds a small well-formed walk frame, every list populated,
// to truncate/corrupt.
func sampleWalk() *walkFrame {
	vid := types.HashTuple(pkt("n2", "n1", "n3", "w"))
	ref := core.Ref{Loc: "n2", RID: types.HashBytes([]byte("rid"))}
	prov := core.Prov{Loc: "n1", VID: vid, Ref: ref, EvID: vid}
	return &walkFrame{
		QID:     42,
		Querier: "n1",
		Walk: core.Walk{
			Root:      pkt("n1", "n1", "n3", "w"),
			EvID:      vid,
			RootProvs: []core.Prov{prov},
			Work:      []core.Ref{{Loc: "n2"}},
			Entries: []core.CollectedEntry{{
				Entry: core.RuleExec{Loc: "n2", RID: ref.RID, Rule: "r1", VIDs: []types.ID{vid}, Next: core.NilRef},
				Nexts: []core.Ref{core.NilRef},
			}},
			Provs:  []core.Prov{prov},
			Tuples: []types.Tuple{pkt("n2", "n1", "n3", "w")},
		},
		Hops: 3,
	}
}

// corruptFirstCount overwrites the RootProvs count field with a value far
// past maxWalkItems.
func corruptFirstCount(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	// Layout: kind(1) + qid(8) + querier len(4)+2 + root len(4)+n + evid(20) + count(4).
	// Rather than computing the exact offset, force every aligned u32 that
	// currently reads small to a huge value; the decoder must survive all
	// of them.
	for i := 1; i+4 <= len(out); i += 4 {
		out[i] = 0xFF
	}
	return out
}
