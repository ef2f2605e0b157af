package cluster

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/raceflag"
	"provcompress/internal/store"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// goldenRecord is the WAL record of goldenFrames' steps followed by a slow
// insert, its delete and a sig, under walFormatVersion 3. If this
// test fails because the layout changed on purpose, bump walFormatVersion,
// then regenerate with `go test ./internal/cluster -run
// TestWALRecordGoldenBytes -v`.
const goldenRecord = "" +
	// 8 entries
	"08" +
	// class a, raw: seq and epoch deltas 0, then kind 1 and the frame body
	"0000004a010000001b067061636b65740402026e3202026e3102026e330205616c706861" +
	"009295ff37cf99fcad949b5da8eff74c56afb4b31cddc2decff1878b9be9263dff5aaf27" +
	"a9da1978ac01" +
	// class b's first event (Prev present), against entry 0
	"0000011400503002026e3402056361726f6c00ce04a6525652153ab3dcad2bb4fa3e71b1" +
	"2911ebdfba8a5e5f6aece2df078e4f2fe9f7b6d4f0129002000000026e31f26901bcc559" +
	"7480a2f146ff1753a872777e6338" +
	// class a: payload and EvID against entry 0
	"0000021b151a627261766f00d72cdb42948b553e0cf58522ac2b6e012709cb4e" +
	// class b: the flags differ from its first event's, so no suffix
	"0000021b002f64656c746100891c48c15a4bdeb16de6cbd8be0070fcfec6a2badfba8a5e" +
	"5f6aece2df078e4f2fe9f7b6d4f0129001" +
	// fresh injection, against entry 3
	"00000104011b1a067061636b65740402026e3202026e3202026e3302046563686f" +
	// slow insert of a route, raw: nothing of the packet before it pays
	"00000018020000001305726f7574650302026e3102026e3902026e32" +
	// slow delete of the route: only the kind byte differs from the insert
	"00000100170103" +
	// sig, raw
	"0000000104"

// goldenChanges adds the golden record's changes to b.
func goldenChanges(b *walBatch) {
	for _, f := range goldenFrames() {
		b.event(f)
	}
	route := types.NewTuple("route", types.String("n1"), types.String("n9"), types.String("n2"))
	b.tuple(recInsert, route)
	b.tuple(recDelete, route)
	b.sig()
}

// TestDecodeRecordAllocs: a record decoded into warm buffers — a WAL
// replay's or a shadow's evalBuf — allocates only what its tuples own,
// with every string a name one Args slice per tuple, and nothing for the
// batch entries, the delta arena or the change list.
func TestDecodeRecordAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var b walBatch
	goldenChanges(&b)
	rec := b.bytes()
	names := types.NewNames("packet", "route", "n0", "n1", "n2", "n3", "n4", "n9",
		"alpha", "bravo", "carol", "delta", "echo")
	var buf evalBuf
	changes, err := decodeRecord(&buf, rec, names)
	if err != nil {
		t.Fatal(err)
	}
	tuples := 0
	for _, ch := range changes {
		if ch.kind != recSig {
			tuples++
		}
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := decodeRecord(&buf, rec, names); err != nil {
			t.Fatal(err)
		}
	})
	if got != float64(tuples) {
		t.Errorf("a warm decode of %d tuples allocates %.0f times, want %d", tuples, got, tuples)
	}
}

// TestWALRecordGoldenBytes pins the record layout, as TestBatchGoldenBytes
// pins the wire's: a record is a wire.AppendBatch body of kind-tagged
// changes, each delta-coded against the latest earlier entry of its class
// or, with none, the entry before it.
func TestWALRecordGoldenBytes(t *testing.T) {
	var b walBatch
	goldenChanges(&b)
	got := b.bytes()
	if hex.EncodeToString(got) != goldenRecord {
		t.Errorf("record layout changed without a walFormatVersion bump (now %d):\n got %s\nwant %s",
			walFormatVersion, hex.EncodeToString(got), goldenRecord)
	}
	// Whatever the bytes, they decode back to the changes, in order.
	changes, err := decodeRecord(nil, got, nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := goldenFrames()
	if len(changes) != len(frames)+3 {
		t.Fatalf("%d changes decoded, want %d", len(changes), len(frames)+3)
	}
	for i, want := range frames {
		f := changes[i].f
		if changes[i].kind != recEvent || !f.Tuple.Equal(want.Tuple) || f.Fresh != want.Fresh || f.Meta != want.Meta {
			t.Errorf("change %d decoded to %d %+v, want the event %+v", i, changes[i].kind, f, want)
		}
	}
	for i, kind := range []uint8{recInsert, recDelete, recSig} {
		if got := changes[len(frames)+i].kind; got != kind {
			t.Errorf("change %d is of kind %d, want %d", len(frames)+i, got, kind)
		}
	}
	// A reused batch builds the same record again.
	b.reset()
	goldenChanges(&b)
	if hex.EncodeToString(b.bytes()) != goldenRecord {
		t.Error("a reset batch encodes the same changes differently")
	}
}

// TestTornBatchIsAtomic: a crash that tears a member's last record loses
// that whole write and nothing before it. Four packets cross a durable
// forwarding line one at a time; three more are injected at n0 as one
// write, so n0's log ends with a batch of three. With that log cut in the
// middle of the batch, the re-open replays every record before it, counts
// one torn record, and n0 holds exactly what it held before the batch —
// none of the three packets half applied — and every query for the four
// packets answers with the Recorder's trees.
func TestTornBatchIsAtomic(t *testing.T) {
	line := topo.Line(4, "n")
	w := walkWorkload{name: "forwarding", prog: apps.Forwarding(), funcs: apps.Funcs(),
		graph: line, base: line.ShortestPaths().RouteTuples()}
	for i := 0; i < 4; i++ {
		src, dst := fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", 3-i)
		w.events = append(w.events, pkt(src, src, dst, fmt.Sprintf("p%d", i)))
	}
	rec := w.reference(t)
	dir := t.TempDir()
	boot := func() *Cluster {
		c, err := New(Config{Prog: w.prog, Funcs: w.funcs, Nodes: line.Nodes(), DataDir: dir,
			Durability: store.Options{Fsync: store.SyncOff}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}

	c := boot()
	if err := c.LoadBase(w.base); err != nil {
		t.Fatal(err)
	}
	for _, ev := range w.events {
		if err := c.Inject(ev); err != nil {
			t.Fatal(err)
		}
		if err := c.Quiesce(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	n0 := c.node("n0")
	before := imageOf(t, c, "n0")
	n0.durMu.Lock()
	records := n0.dstore.Stats().WALRecords
	n0.durMu.Unlock()
	log := filepath.Join(c.nodeDataDir("n0"), "wal-000000000.log")
	fi, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	intact := fi.Size()

	var batch []*tupleFrame
	for i := 0; i < 3; i++ {
		batch = append(batch, &tupleFrame{Tuple: pkt("n0", "n0", "n3", fmt.Sprintf("torn%d", i)), Fresh: true})
	}
	var buf evalBuf
	var wal walBatch
	n0.shipAll(n0.ownSteps(batch, nil, &buf, &wal))
	if err := c.Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	n0.durMu.Lock()
	if got := n0.dstore.Stats().WALRecords; got != records+1 {
		t.Fatalf("the batch of %d events appended %d records, want 1", len(batch), got-records)
	}
	n0.durMu.Unlock()
	c.Close()

	fi, err = os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(log, intact+(fi.Size()-intact)/2); err != nil {
		t.Fatal(err)
	}
	c = boot()
	if ds := c.DurabilityStats(); ds.TornRecords != 1 || ds.Errors != 0 {
		t.Errorf("re-open: %+v, want one torn record and no error", ds)
	}
	if got := c.node("n0").dstore.Stats().Recovery.ReplayedRecords; got != records {
		t.Errorf("n0 replayed %d records, want the %d before the torn batch", got, records)
	}
	sameImages(t, "n0 after the torn batch", map[types.NodeAddr]memberImage{"n0": imageOf(t, c, "n0")},
		map[types.NodeAddr]memberImage{"n0": before})
	for _, tree := range rec.Trees() {
		res, err := c.Query(tree.Output, tree.EvID(), 10*time.Second)
		if err != nil {
			t.Fatalf("query %v: %v", tree.Output, err)
		}
		if want := rec.TreesFor(types.HashTuple(tree.Output), tree.EvID()); !sameTrees(res.Trees, want) {
			t.Errorf("query %v: trees differ from simulation:\ngot  %v\nwant %v", tree.Output, res.Trees, want)
		}
	}
}

// TestLoadBaseLogsOneRecordPerChunk: a durable base load logs each
// member's tuples maxWriteBatch to a record — not one record per tuple —
// and a re-open rebuilds every member from those records.
func TestLoadBaseLogsOneRecordPerChunk(t *testing.T) {
	dir := t.TempDir()
	c, err := bootBGP(dir, bgpLine)
	if err != nil {
		t.Fatal(err)
	}
	base := bgpBase(300)
	if err := c.LoadBase(base); err != nil {
		t.Fatal(err)
	}
	per := make(map[types.NodeAddr]int64)
	for _, tup := range base {
		per[tup.Loc()]++
	}
	for addr, tuples := range per {
		n := c.node(addr)
		n.durMu.Lock()
		records := n.dstore.Stats().WALRecords
		n.durMu.Unlock()
		if limit := (tuples + maxWriteBatch - 1) / maxWriteBatch; records > limit {
			t.Errorf("%s logged its %d base tuples in %d records, want at most %d", addr, tuples, records, limit)
		}
		if got := loggedChanges(t, c, addr); got != int(tuples) {
			t.Errorf("%s logged %d changes, want its %d base tuples", addr, got, tuples)
		}
	}
	want := memberImages(t, c)
	c.Close()

	c, err = bootBGP(dir, bgpLine)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sameImages(t, "after the re-open", memberImages(t, c), want)
}
