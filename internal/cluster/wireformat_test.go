package cluster

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/core"
	"provcompress/internal/store"
	"provcompress/internal/topo"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// classMeta is the metadata a relay ships for event ev of the class keyed
// by eq, after the class's first event: existFlag set, no Prev.
func classMeta(eq string, ev types.Tuple) core.AdvMeta {
	return core.AdvMeta{Eq: types.HashBytes([]byte(eq)), Exist: true, EvID: types.HashTuple(ev)}
}

// goldenFrames is the batch the golden test pins: two classes, two frames
// each, interleaved on one link, then a fresh injection.
func goldenFrames() []*tupleFrame {
	a1, a2 := pkt("n2", "n1", "n3", "alpha"), pkt("n2", "n1", "n3", "bravo")
	b1, b2 := pkt("n2", "n0", "n4", "carol"), pkt("n2", "n0", "n4", "delta")
	first := classMeta("class-b", b1)
	first.Exist = false
	first.Prev = core.Ref{Loc: "n1", RID: types.HashBytes([]byte("rid-b"))}
	return []*tupleFrame{
		{Tuple: a1, Meta: classMeta("class-a", a1)},
		{Tuple: b1, Meta: first},
		{Tuple: a2, Meta: classMeta("class-a", a2)},
		{Tuple: b2, Meta: classMeta("class-b", b2)},
		{Tuple: pkt("n2", "n2", "n3", "echo"), Fresh: true},
	}
}

// encodeDelivery batches frames the way transport.deliverBatch does and
// also returns each entry's section size and attributed metadata bytes.
func encodeDelivery(frames []*tupleFrame) (delivery []byte, sizes, tails []int) {
	var entries []wire.BatchEntry
	for i, f := range frames {
		payload, metaBytes := f.encodeSized()
		entries = append(entries, wire.BatchEntry{
			Seq: uint64(41 + i), Epoch: 3, Payload: payload,
			Group: classGroup(f.Meta), Tail: metaBytes,
		})
	}
	delivery, sizes = wire.AppendBatch(appendDeliveryHeader(nil, "n1", 2), entries, true, nil)
	for _, ent := range entries {
		tails = append(tails, ent.Tail)
	}
	return delivery, sizes, tails
}

// batchOfOne is the delivery the transport writes for a frame that
// travels alone: a one-frame batch.
func batchOfOne(from types.NodeAddr, inc, seq, epoch uint64, frame []byte) []byte {
	entry := []wire.BatchEntry{{Seq: seq, Epoch: epoch, Payload: frame}}
	delivery, _ := wire.AppendBatch(appendDeliveryHeader(nil, from, inc), entry, true, nil)
	return delivery
}

// goldenDelivery is encodeDelivery(goldenFrames()) under
// wire.FormatVersion 3. If this test fails because the layout changed on
// purpose, bump wire.FormatVersion (and walFormatVersion if encodeMeta or
// the tuple body moved), then regenerate with
// `go test ./internal/cluster -run TestBatchGoldenBytes -v`.
const goldenDelivery = "" +
	// delivery header: batch, version 3, from n1, incarnation 2
	"0b03000000026e310000000000000002" +
	// 5 entries
	"05" +
	// class a, raw
	"2906005a01000000000000000000000000000000000000001b067061636b65740402026e" +
	"3202026e3102026e330205616c706861009295ff37cf99fcad949b5da8eff74c56afb4b3" +
	"1cddc2decff1878b9be9263dff5aaf27a9da1978ac01" +
	// class b's first event (Prev present), against entry 0
	"0100012400503002026e3402056361726f6c00ce04a6525652153ab3dcad2bb4fa3e71b1" +
	"2911ebdfba8a5e5f6aece2df078e4f2fe9f7b6d4f0129002000000026e31f26901bcc559" +
	"7480a2f146ff1753a872777e6338" +
	// class a: payload and EvID against entry 0
	"0100022b151a627261766f00d72cdb42948b553e0cf58522ac2b6e012709cb4e" +
	// class b: the flags differ from its first event's, so no suffix
	"0100022b002f64656c746100891c48c15a4bdeb16de6cbd8be0070fcfec6a2badfba8a5e" +
	"5f6aece2df078e4f2fe9f7b6d4f0129001" +
	// fresh injection, against entry 3
	"01000114011b1a067061636b65740402026e3202026e3202026e3302046563686f"

func TestBatchGoldenBytes(t *testing.T) {
	got, sizes, _ := encodeDelivery(goldenFrames())
	if hex.EncodeToString(got) != goldenDelivery {
		t.Errorf("batch layout changed without a wire.FormatVersion bump (now %d):\n got %s\nwant %s\nsections %v",
			wire.FormatVersion, hex.EncodeToString(got), goldenDelivery, sizes)
	}
	// Whatever the bytes, they decode back to the frames.
	d := wire.NewDecoder(got)
	if _, err := decodeDeliveryHeader(d); err != nil {
		t.Fatal(err)
	}
	entries, err := wire.DecodeBatch(d)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range goldenFrames() {
		f, err := decodeTupleFrame(wire.NewDecoder(entries[i].Payload[1:]))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !f.Tuple.Equal(want.Tuple) || f.Fresh != want.Fresh || f.Meta != want.Meta {
			t.Errorf("frame %d decoded to %+v, want %+v", i, f, want)
		}
	}
}

// TestInterleavedClassesDeltaAgainstTheirOwn pins the mechanism on real
// tuple frames: three classes interleaved on one link, and every
// second-and-later frame of a class costs at most its per-event bytes —
// the payload field and EvID — plus eight, of which the metadata tail
// contributes exactly the EvID.
func TestInterleavedClassesDeltaAgainstTheirOwn(t *testing.T) {
	const payloadLen = 40
	classes := [][2]string{{"n0", "n5"}, {"n1", "n6"}, {"n0", "n7"}}
	var frames []*tupleFrame
	for i := 0; i < 24; i++ {
		c := []int{0, 1, 2, 2, 0, 1, 0}[i%7]
		ev := pkt("n3", classes[c][0], classes[c][1], noisePayload(payloadLen, i))
		frames = append(frames, &tupleFrame{Tuple: ev, Meta: classMeta(classes[c][0]+classes[c][1], ev)})
	}
	_, sizes, tails := encodeDelivery(frames)
	seen := map[types.ID]bool{}
	for i, f := range frames {
		if seen[f.Meta.Eq] {
			if limit := payloadLen + len(f.Meta.EvID) + 8; sizes[i] > limit {
				t.Errorf("frame %d: %d-byte section, want <= %d", i, sizes[i], limit)
			}
			if tails[i] != len(f.Meta.EvID) {
				t.Errorf("frame %d: %d metadata bytes sent, want the %d of its EvID", i, tails[i], len(f.Meta.EvID))
			}
		}
		seen[f.Meta.Eq] = true
	}
}

// TestByteClassesFollowTheBytesSent: under delta coding a tuple frame's
// section is attributed by where its bytes came from — each frame's
// payload field reaches the wire whole and counts as base, its EvID
// counts as prov, and the elided class metadata counts as nothing.
func TestByteClassesFollowTheBytesSent(t *testing.T) {
	g := topo.Line(4, "n")
	c, err := New(Config{
		Prog:  apps.Forwarding(),
		Funcs: apps.Funcs(),
		Nodes: g.Nodes(),
		// Every write stalls, so the burst below piles up behind each
		// link's first batch and coalesces whatever the scheduler does.
		Faults: &FaultPlan{Delay: 1, DelayFor: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	// A packet crosses a socket on each of its three hops, with metadata.
	// Its injection and the recv head n3 derives for itself are delivered
	// in-process and count no wire bytes.
	const events, payloadLen, sends, relays = 64, 48, 3, 3
	for i := 0; i < events; i++ {
		if err := c.Inject(pkt("n0", "n0", "n3", noisePayload(payloadLen, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := c.TransportStats()
	if s.BatchFrames < events {
		t.Fatalf("burst formed only %d batched sub-frames", s.BatchFrames)
	}
	if min := int64(events * sends * payloadLen); s.BytesBase < min {
		t.Errorf("base bytes %d < the %d bytes of payload fields shipped", s.BytesBase, min)
	}
	evid := int64(len(types.ID{}))
	if min := events * relays * evid; s.BytesProv < min {
		t.Errorf("prov bytes %d < the %d bytes of EvIDs shipped", s.BytesProv, min)
	}
	// One class: after its first two frames on a link (the class's first
	// event, then the first with existFlag set) only EvIDs remain of the
	// 41-byte metadata. Allow a full one per batch of ten.
	if max := events * relays * (evid + 4); s.BytesProv > max {
		t.Errorf("prov bytes %d > %d: elided metadata still counted", s.BytesProv, max)
	}
	checkByteClassesExact(t, c, "after one-class burst")
}

// TestLoneFrameIsABatchOfOne: on an idle cluster every frame of a
// derivation travels alone, and each still goes out as a one-frame batch
// — counted in BatchFrames, its framing in the batch byte class — and is
// deduplicated by the same per-entry filter as any batch.
func TestLoneFrameIsABatchOfOne(t *testing.T) {
	g := topo.Line(4, "n")
	c, err := New(Config{Prog: apps.Forwarding(), Funcs: apps.Funcs(), Nodes: g.Nodes()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		t.Fatal(err)
	}
	before := c.TransportStats()
	if err := c.Inject(pkt("n0", "n0", "n3", "alone")); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The three hops cross a socket, each frame waiting on the one before
	// it, so none has a companion. The injection and the recv head n3
	// derives for itself are delivered in-process, outside any batch.
	const hops = 3
	s := c.TransportStats()
	if frames := s.BatchFrames - before.BatchFrames; frames != hops {
		t.Errorf("%d frames in batches, want the %d hops of one derivation", frames, hops)
	}
	if sends := s.Sends - before.Sends; sends != s.BatchFrames-before.BatchFrames || s.Batches != s.Sends {
		t.Errorf("%d sends for %d frames (batches %d): lone frames coalesced or bypassed the batch",
			sends, s.BatchFrames-before.BatchFrames, s.Batches)
	}
	if s.BytesBatch-before.BytesBatch <= 0 {
		t.Error("no batch-class bytes: lone frames are not framed as batches")
	}
	checkByteClassesExact(t, c, "after one lone derivation")

	n := c.Node("n0")
	delivery := batchOfOne("zz", 0, 1, 0, (&tupleFrame{Tuple: pkt("n0", "n0", "n3", "twice"), Fresh: true}).encode())
	n.handleFrame(delivery)
	n.handleFrame(delivery)
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := n.TransportStats().Dups; got != 1 {
		t.Errorf("a one-frame delivery handled twice counted %d dups, want 1", got)
	}
	if got := len(c.Outputs("n3")); got != 2 {
		t.Errorf("%d outputs at n3, want 2", got)
	}
}

// v2EnvelopeHeader is the head of a version-2 single-frame envelope from
// "zz", incarnation 0: kind 5, version 2, the sender, then the fixed u64
// incarnation, seq (1) and epoch (0). The frame followed it unframed.
const v2EnvelopeHeader = "0502" + "000000027a7a" +
	"0000000000000000" + "0000000000000001" + "0000000000000000"

// TestDeliveryOfAnotherVersionDropped: a delivery whose version byte is
// not wire.FormatVersion — including the unversioned layout, whose second
// byte is the high byte of the sender-name length — is counted and
// dropped before anything in it is decoded or deduplicated. A version-2
// peer's lone frame, the retired envelope, is refused by its kind.
func TestDeliveryOfAnotherVersionDropped(t *testing.T) {
	c := fig2Cluster(t)
	n := c.Node("n1")
	inner := (&tupleFrame{Tuple: pkt("n1", "n1", "n3", "v"), Fresh: true}).encode()
	lone := batchOfOne("zz", 0, 1, 0, inner)
	batch, _, _ := encodeDelivery(goldenFrames())

	future := append([]byte(nil), lone...)
	future[1] = wire.FormatVersion + 1
	futureBatch := append([]byte(nil), batch...)
	futureBatch[1] = wire.FormatVersion + 1
	unversioned := append([]byte{lone[0]}, lone[2:]...)
	for i, delivery := range [][]byte{future, futureBatch, unversioned} {
		n.handleFrame(delivery)
		if got := n.TransportStats().VersionDrops; got != int64(i+1) {
			t.Fatalf("after delivery %d: %d version drops", i, got)
		}
	}
	v2env, err := hex.DecodeString(v2EnvelopeHeader)
	if err != nil {
		t.Fatal(err)
	}
	n.handleFrame(append(v2env, inner...))
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(c.AllOutputs()); got != 0 {
		t.Fatalf("a refused delivery produced %d outputs", got)
	}
	if s := n.TransportStats(); s.Dups != 0 {
		t.Fatalf("a refused delivery counted %d dups", s.Dups)
	}
	// The same frame in this build's version is accepted: the refusals
	// above did not burn its sequence number.
	n.handleFrame(lone)
	if err := c.Quiesce(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(c.AllOutputs()); got != 1 {
		t.Fatalf("current-version delivery produced %d outputs, want 1", got)
	}
	if s := n.TransportStats(); s.VersionDrops != 3 || s.Dups != 0 {
		t.Fatalf("stats after the accepted delivery: %+v", s)
	}
}

// TestRecoveryRefusesOtherWALFormat: a data directory stamped by another
// record-format version fails recovery with both versions in the error,
// instead of replaying its records through this build's decoder.
func TestRecoveryRefusesOtherWALFormat(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir, store.Options{Fsync: store.SyncOff})
	if err := c.Inject(pkt("n1", "n1", "n3", "logged")); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()

	stamp := filepath.Join(c.nodeDataDir("n2"), "FORMAT")
	if err := os.WriteFile(stamp, []byte(fmt.Sprintln(walFormatVersion+1)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{
		Prog:    apps.Forwarding(),
		Funcs:   apps.Funcs(),
		Nodes:   []types.NodeAddr{"n1", "n2", "n3"},
		DataDir: dir,
	})
	for _, want := range []string{"n2", fmt.Sprint("version ", walFormatVersion+1), fmt.Sprint("version ", walFormatVersion)} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("boot on a directory of another format: %v (want mention of %q)", err, want)
		}
	}
}

// TestPartitionLoadRefusesOtherVersion: a node snapshot whose version byte
// is not nodeSnapVersion — the previous layout's or a future one's — is
// refused before anything in it is decoded, and the error names the
// version it found.
func TestPartitionLoadRefusesOtherVersion(t *testing.T) {
	c := rolesCluster(t, core.SchemeAdvanced, "", 0, true)
	rolesHistory(t, c)
	snap := c.node("n2").self.snapshot()
	for _, v := range []byte{nodeSnapVersion - 1, nodeSnapVersion + 1} {
		other := append([]byte(nil), snap...)
		other[0] = v
		p, err := c.newPartition("n2")
		if err != nil {
			t.Fatal(err)
		}
		err = p.load(other, c.names)
		if want := fmt.Sprint("version ", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("load of a version-%d snapshot: %v (want mention of %q)", v, err, want)
		}
		if rows := p.db.Count("route") + p.db.Count("packet"); rows != 0 || p.state.StorageBytes() != 0 {
			t.Errorf("a refused version-%d snapshot loaded %d rows, %d provenance bytes", v, rows, p.state.StorageBytes())
		}
	}
}

// TestBootRefusesOtherSnapshotVersion: a data directory whose newest
// snapshot carries another node-snapshot version fails boot with the
// version in the error, rather than being misread. The WAL stamp cannot
// catch it: the records are unchanged, so the directory's stamp matches.
func TestBootRefusesOtherSnapshotVersion(t *testing.T) {
	dir := t.TempDir()
	c := rolesCluster(t, core.SchemeAdvanced, dir, 0, true)
	rolesHistory(t, c)
	old := c.node("n2").self.snapshot()
	old[0] = 1
	c.Close()

	noop := func([]byte) error { return nil }
	ns, err := store.Open(c.nodeDataDir("n2"), store.Options{Fsync: store.SyncOff}, noop, noop)
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.Checkpoint(old); err != nil {
		t.Fatal(err)
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Prog:    apps.Forwarding(),
		Funcs:   apps.Funcs(),
		Nodes:   []types.NodeAddr{"n1", "n2", "n3"},
		DataDir: dir,
	})
	for _, want := range []string{"n2", "snapshot version 1"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("boot over a version-1 snapshot: %v (want mention of %q)", err, want)
		}
	}
}

// goldenSnapshot is n2's snapshot after rolesHistory under the Advanced
// scheme, nodeSnapVersion 2: the version byte, the database, then the
// scheme state. n2 forwards both packets but is neither their origin nor
// their destination, so under Advanced its database holds only its route.
// Map iteration decides the order of tables and rows in the bytes, so the
// test pins the length and what the bytes decode to (goldenSnapshotLines)
// rather than the spelling of a fresh snapshot. If this test fails because
// the layout changed on purpose, bump nodeSnapVersion, then regenerate both
// from the failure message of
// `go test ./internal/cluster -run TestSnapshotGoldenBytes -v`.
const goldenSnapshot = "" +
	// version 2, then the database: one table
	"0200000001" +
	// route, one row
	"00000005726f757465000000010000001305726f7574650302026e3202026e3302026e33" +
	// an empty graveyard
	"00000000" +
	// the scheme state: one ruleExec row (loc, RID, rule, one VID, next)
	"00000001000000026e32fac916666a30f450b2a915cfd53bac99312b224f000000027231" +
	"000000018866139c5f905a870f01ecd42ab955675aa9910b000000026e3127640d1cf2cb" +
	"2f4b224eda909fc8ec071aa38a07" +
	// no links, prov, htequi, hmap or pending rows
	"0000000000000000000000000000000000000000"

var goldenSnapshotLines = []string{
	"storage 72",
	`row route(@n2, "n3", "n3")`,
}

// storedEventsSnapshot is the same snapshot as written by a build that
// stored every intermediate event at every hop: the same layout and
// version, plus n2's two packet rows. Data directories written then must
// keep booting; the extra rows are rows no walk reads.
const storedEventsSnapshot = "" +
	// version 2, then the database: two tables
	"0200000002" +
	// route, one row
	"00000005726f757465000000010000001305726f7574650302026e3202026e3302026e33" +
	// packet, two rows
	"000000067061636b65740000000200000017067061636b65740402026e3202026e310202" +
	"6e3302016100000017067061636b65740402026e3202026e3102026e33020162" +
	// an empty graveyard
	"00000000" +
	// the scheme state: one ruleExec row (loc, RID, rule, one VID, next)
	"00000001000000026e32fac916666a30f450b2a915cfd53bac99312b224f000000027231" +
	"000000018866139c5f905a870f01ecd42ab955675aa9910b000000026e3127640d1cf2cb" +
	"2f4b224eda909fc8ec071aa38a07" +
	// no links, prov, htequi, hmap or pending rows
	"0000000000000000000000000000000000000000"

var storedEventsSnapshotLines = []string{
	"storage 72",
	`row packet(@n2, "n1", "n3", "a")`,
	`row packet(@n2, "n1", "n3", "b")`,
	`row route(@n2, "n3", "n3")`,
}

func TestSnapshotGoldenBytes(t *testing.T) {
	c := rolesCluster(t, core.SchemeAdvanced, "", 0, true)
	rolesHistory(t, c)
	snap := c.node("n2").self.snapshot()
	regenerate := func(why string) {
		var b strings.Builder
		for h := hex.EncodeToString(snap); h != ""; {
			n := min(72, len(h))
			fmt.Fprintf(&b, "\t%q +\n", h[:n])
			h = h[n:]
		}
		t.Errorf("%s; if the node snapshot layout changed on purpose, bump nodeSnapVersion (now %d) and regenerate goldenSnapshot:\n%s",
			why, nodeSnapVersion, b.String())
		b.Reset()
		for _, l := range decodedSnapshot(t, c, "n2", snap) {
			fmt.Fprintf(&b, "\t%q,\n", l)
		}
		t.Fatalf("and goldenSnapshotLines:\n%s", b.String())
	}
	golden := loadsAs(t, c, goldenSnapshot, goldenSnapshotLines)
	if golden == nil {
		regenerate("the golden snapshot no longer loads or decodes to other contents")
	}
	want := strings.Join(goldenSnapshotLines, "\n")
	switch {
	case len(snap) != len(golden):
		regenerate(fmt.Sprintf("a fresh snapshot is %d bytes, the golden one %d", len(snap), len(golden)))
	case strings.Join(decodedSnapshot(t, c, "n2", snap), "\n") != want:
		regenerate("a fresh snapshot decodes to other contents")
	}
	if loadsAs(t, c, storedEventsSnapshot, storedEventsSnapshotLines) == nil {
		t.Fatal("a snapshot carrying stored intermediate events no longer loads as written")
	}
}

// loadsAs decodes a hex snapshot of n2, loads it into an empty partition
// and returns its bytes if it decodes to lines, or nil.
func loadsAs(t *testing.T, c *Cluster, hexSnap string, lines []string) []byte {
	t.Helper()
	b, err := hex.DecodeString(hexSnap)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.newPartition("n2")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.load(b, c.names); err != nil {
		t.Logf("load: %v", err)
		return nil
	}
	if got := decodedSnapshot(t, c, "n2", b); strings.Join(got, "\n") != strings.Join(lines, "\n") {
		t.Logf("decodes to:\n%s", strings.Join(got, "\n"))
		return nil
	}
	return b
}

// noisePayload is a payload field of n characters that shares nothing with
// the one for any other i, so a delta cannot elide any of it.
func noisePayload(n, i int) string {
	var b []byte
	for len(b) < n {
		id := types.HashBytes([]byte(fmt.Sprint(i, len(b))))
		b = append(b, hex.EncodeToString(id[:])...)
	}
	return string(b[:n])
}

// tupleBody encodes a tuple frame and strips the kind byte dispatch
// consumes before decodeTupleFrame runs.
func tupleBody(f *tupleFrame) []byte { return f.encode()[1:] }

// FuzzDecodeTupleFrame covers the decoder every shipped tuple — and,
// through the body it shares, every WAL event record and replication
// frame — goes through: arbitrary bytes never panic, and whatever is
// accepted re-encodes to exactly the bytes consumed, so there is one
// spelling per frame (a flags byte with unknown bits, a fresh byte other
// than 0 or 1, or a Prev flagged present but nil is refused).
func FuzzDecodeTupleFrame(f *testing.F) {
	for _, fr := range goldenFrames() {
		f.Add(tupleBody(fr))
	}
	full := tupleBody(goldenFrames()[1])
	f.Add(full[:len(full)-1])
	f.Add(full[:17])
	for _, flags := range []byte{0x04, 0x80, 0xFF} {
		bad := tupleBody(goldenFrames()[0])
		bad[len(bad)-1] = flags
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDecoder(data)
		fr, err := decodeTupleFrame(d)
		if err != nil {
			return
		}
		consumed := data[:len(data)-d.Remaining()]
		if enc := tupleBody(fr); !bytes.Equal(enc, consumed) {
			t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", consumed, enc)
		}
	})
}

// FuzzDecodeDelivery covers the first bytes a peer's socket feeds a node:
// the delivery header and the batch body after it. Nothing panics; an
// accepted header re-encodes to the bytes consumed; an accepted batch
// survives a re-encode.
func FuzzDecodeDelivery(f *testing.F) {
	inner := (&tupleFrame{Tuple: pkt("n1", "n1", "n3", "x"), Fresh: true}).encode()
	lone := batchOfOne("n7", 3, 99, 4, inner)
	batch, _, _ := encodeDelivery(goldenFrames())
	f.Add(lone)
	f.Add(batch)
	f.Add(lone[:9])
	f.Add(batch[:len(batch)/2])
	other := append([]byte(nil), batch...)
	other[1]++
	f.Add(other)
	f.Add([]byte{frameBatch, wire.FormatVersion, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{frameTuple, wire.FormatVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDecoder(data)
		h, err := decodeDeliveryHeader(d)
		if err != nil {
			return
		}
		consumed := data[:len(data)-d.Remaining()]
		if enc := appendDeliveryHeader(nil, h.from, h.inc); !bytes.Equal(enc, consumed) {
			t.Fatalf("accepted header re-encodes differently:\n in %x\nout %x", consumed, enc)
		}
		entries, err := wire.DecodeBatch(d)
		if err != nil {
			return
		}
		body, _ := wire.AppendBatch(nil, entries, true, nil)
		again, err := wire.DecodeBatch(wire.NewDecoder(body))
		if err != nil || len(again) != len(entries) {
			t.Fatalf("re-decode of %d entries: %d, %v", len(entries), len(again), err)
		}
		for i := range entries {
			if again[i].Seq != entries[i].Seq || again[i].Epoch != entries[i].Epoch ||
				!bytes.Equal(again[i].Payload, entries[i].Payload) {
				t.Fatalf("entry %d did not round trip", i)
			}
		}
	})
}
