package cluster

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"provcompress/internal/core"
	"provcompress/internal/types"
)

// fuzzSchemes are the schemes the cluster runs; the payload decoders are
// fuzzed under each, since the scheme decides the state tables' layout.
var fuzzSchemes = core.AllSchemeNames()

// allocatedBy reports the bytes fn allocated, process-wide.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkDecodeAllocs fails when decoding an n-byte payload allocated more
// than a fixed allowance plus a constant per input byte — far less than a
// buffer reserved by one decoded count near an item limit would take.
func checkDecodeAllocs(t *testing.T, what string, n int, allocated uint64) {
	t.Helper()
	if budget := 1<<20 + 4096*uint64(n); allocated > budget {
		t.Fatalf("%s of a %d-byte payload allocated %d bytes, past its %d budget", what, n, allocated, budget)
	}
}

// FuzzPartitionLoad covers the one snapshot loader, fed bytes from disk
// (checkpoints) and from peers (handoffs and read-repair replies):
// arbitrary bytes must never panic nor allocate by a decoded count, and a
// payload that loads into an empty partition must re-snapshot to a
// payload that decodes to the same contents.
func FuzzPartitionLoad(f *testing.F) {
	var clusters []*Cluster
	for _, scheme := range fuzzSchemes {
		c := rolesCluster(f, scheme, "", 0, true)
		rolesHistory(f, c)
		clusters = append(clusters, c)
		for _, addr := range []types.NodeAddr{"n1", "n2", "n3"} {
			snap := c.node(addr).self.snapshot()
			f.Add(snap)
			f.Add(snap[:len(snap)/2])
			f.Add(snap[:len(snap)-1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{nodeSnapVersion, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range clusters {
			p, err := c.newPartition("n2")
			if err != nil {
				t.Fatal(err)
			}
			checkDecodeAllocs(t, "load", len(data), allocatedBy(func() { err = p.load(data, c.names) }))
			if err != nil {
				continue
			}
			got := decodedSnapshot(t, c, "n2", p.snapshot())
			if want := decodedSnapshot(t, c, "n2", data); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s: the re-snapshot decodes differently:\n--- got\n%s\n--- want\n%s",
					c.scheme, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	})
}

// TestPartitionLoadAllocsBounded plants the largest count the item guards
// accept at every offset of a real snapshot: whichever count field it
// lands in, the load must not reserve memory by it.
func TestPartitionLoadAllocsBounded(t *testing.T) {
	// The limit both inner decoders enforce: engine.maxSnapshotItems for the
	// database, core.maxPersistItems for the scheme state.
	const maxItems = 1 << 26
	for _, scheme := range fuzzSchemes {
		c := rolesCluster(t, scheme, "", 0, true)
		rolesHistory(t, c)
		snap := c.node("n2").self.snapshot()
		for off := 0; off+4 <= len(snap); off++ {
			data := append([]byte(nil), snap...)
			binary.BigEndian.PutUint32(data[off:], maxItems)
			p, err := c.newPartition("n2")
			if err != nil {
				t.Fatal(err)
			}
			checkDecodeAllocs(t, fmt.Sprintf("%s load with a planted count at offset %d", scheme, off),
				len(data), allocatedBy(func() { _ = p.load(data, c.names) }))
		}
	}
}

// FuzzApplyRecord covers the record replayer, fed the WAL and the
// replication stream a peer sends: arbitrary records must never panic nor
// allocate by a decoded count; a record refused is refused whole, leaving
// the partition as it was; a record that applies re-encodes to a record
// that decodes to the same changes; and a record whose every change is an
// event an owner would not log (changesState) must leave the partition as
// it was — replay treats such events as no-ops.
func FuzzApplyRecord(f *testing.F) {
	// Each scheme's record lands on n1's partition as LoadBase left it, so
	// an event joins the routes there.
	type target struct {
		c    *Cluster
		base []byte
	}
	var targets []target
	for _, scheme := range fuzzSchemes {
		c := rolesCluster(f, scheme, "", 0, true)
		targets = append(targets, target{c, c.node("n1").self.snapshot()})
	}
	for _, seed := range applyRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tg := range targets {
			p, err := tg.c.newPartition("n1")
			if err != nil {
				t.Fatal(err)
			}
			if err := p.load(tg.base, tg.c.names); err != nil {
				t.Fatal(err)
			}
			n := tg.c.node("n1")
			checkDecodeAllocs(t, "apply", len(data), allocatedBy(func() { err = p.applyRecord(n, data, nil) }))
			unchanged := func(what string) {
				got := decodedSnapshot(t, tg.c, "n1", p.snapshot())
				if want := decodedSnapshot(t, tg.c, "n1", tg.base); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s: %s changed the partition:\n--- got\n%s\n--- want\n%s",
						tg.c.scheme, what, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
			}
			if err != nil {
				unchanged("a refused record")
				continue
			}
			changes, err := decodeRecord(nil, data, tg.c.names)
			if err != nil {
				t.Fatalf("an applied record does not decode: %v", err)
			}
			var again walBatch
			logged := false
			for i := range changes {
				ch := &changes[i]
				switch ch.kind {
				case recEvent:
					again.event(&ch.f)
					logged = logged || p.changesState(tg.c, &ch.f)
				case recSig:
					again.sig()
					logged = true
				default:
					again.tuple(ch.kind, ch.f.Tuple)
					logged = true
				}
			}
			if !logged {
				unchanged("a record no owner logs")
			}
			if len(changes) == 0 {
				continue // an empty batch, which no writer builds
			}
			back, err := decodeRecord(nil, again.bytes(), tg.c.names)
			if err != nil {
				t.Fatalf("decode of encoder output: %v", err)
			}
			if !reflect.DeepEqual(back, changes) {
				t.Fatalf("record did not round trip: %+v became %+v", changes, back)
			}
		}
	})
}

// applyRecordSeeds are FuzzApplyRecord's seeds: a batch of one of each
// kind, a batch whose entries delta-code against each other, and records
// the replayer must refuse — an entry of an unknown kind after a valid
// one, a delta entry referring past the batch's start, a torn batch.
func applyRecordSeeds() [][]byte {
	route := types.NewTuple("route", types.String("n1"), types.String("n9"), types.String("n2"))
	class := core.AdvMeta{
		Eq: types.HashBytes([]byte("class")), EvID: types.HashBytes([]byte("a")),
		Prev: core.Ref{Loc: "n1", RID: types.HashBytes([]byte("exec"))},
	}
	// A member of an existing class passing through n1, where it joins
	// the route: Advanced stores nothing for it.
	member := core.AdvMeta{Eq: class.Eq, Exist: true, EvID: types.HashBytes([]byte("b"))}
	frames := []*tupleFrame{
		{Tuple: pkt("n1", "n1", "n3", "a"), Fresh: true},
		{Tuple: pkt("n2", "n1", "n3", "a"), Meta: class},
		{Tuple: pkt("n1", "n0", "n3", "b"), Meta: member},
	}
	record := func(add func(b *walBatch)) []byte {
		var b walBatch
		add(&b)
		return append([]byte(nil), b.bytes()...)
	}
	mixed := record(func(b *walBatch) {
		for _, f := range frames {
			b.event(f)
		}
		b.tuple(recInsert, route)
		b.sig()
		b.tuple(recDelete, route)
		b.event(&tupleFrame{Tuple: pkt("n1", "n1", "n3", "c"), Fresh: true})
	})
	seeds := [][]byte{
		mixed,
		mixed[:len(mixed)/2],
		record(func(b *walBatch) { b.event(frames[2]) }),
		recSigRecord,
		// An entry of kind 0xFF after a valid insert.
		record(func(b *walBatch) {
			b.tuple(recInsert, route)
			b.push(append(b.payloads, 0xFF, 1, 2), 0)
		}),
		// One entry, delta-coded against the entry before it: there is
		// none.
		{1, 0, 0, 1, 0, 0, 1, recSig},
		{},
	}
	for _, f := range frames {
		seeds = append(seeds, record(func(b *walBatch) { b.event(f) }))
	}
	return seeds
}
