package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// snapshotOf encodes db into a fresh buffer.
func snapshotOf(db *Database) []byte {
	e := wire.NewEncoder(1024)
	db.EncodeSnapshot(e)
	return e.Bytes()
}

// assertDatabasesEqual compares two databases through their public read
// surface: live rows per relation, counts, the graveyard in FIFO order,
// and VID resolution for both live and deleted tuples.
func assertDatabasesEqual(t *testing.T, want, got *Database, rels []string) {
	t.Helper()
	for _, rel := range rels {
		ws, gs := want.Scan(rel), got.Scan(rel)
		wss := make([]string, len(ws))
		gss := make([]string, len(gs))
		for i, tu := range ws {
			wss[i] = tu.String()
		}
		for i, tu := range gs {
			gss[i] = tu.String()
		}
		sort.Strings(wss)
		sort.Strings(gss)
		if fmt.Sprint(wss) != fmt.Sprint(gss) {
			t.Fatalf("relation %q diverged:\nwant %v\ngot  %v", rel, wss, gss)
		}
		if want.Count(rel) != got.Count(rel) {
			t.Fatalf("count(%q): want %d, got %d", rel, want.Count(rel), got.Count(rel))
		}
	}
	wg, gg := want.GraveyardVIDs(), got.GraveyardVIDs()
	if len(wg) != len(gg) {
		t.Fatalf("graveyard size: want %d, got %d", len(wg), len(gg))
	}
	for i := range wg {
		if wg[i] != gg[i] {
			t.Fatalf("graveyard FIFO order diverged at %d", i)
		}
		wt, wok := want.LookupVID(wg[i])
		gt, gok := got.LookupVID(gg[i])
		if !wok || !gok || !wt.Equal(gt) {
			t.Fatalf("graveyard VID %d resolves differently: %v/%v %v/%v", i, wt, wok, gt, gok)
		}
	}
}

// TestSnapshotRoundTripProperty drives a seeded random mix of inserts and
// deletes (with an occasional graveyard cap change), snapshots, merges
// into a fresh database, and requires the restored store to be
// indistinguishable — including probe answers, which exercise the lazily
// rebuilt secondary indexes.
func TestSnapshotRoundTripProperty(t *testing.T) {
	rels := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := NewDatabase()
			var inserted []types.Tuple
			for op := 0; op < 400; op++ {
				switch {
				case op%97 == 50:
					db.SetGraveyardCap(1 + rng.Intn(10))
				case len(inserted) > 0 && rng.Intn(3) == 0:
					db.Delete(inserted[rng.Intn(len(inserted))])
				default:
					tu := types.NewTuple(rels[rng.Intn(len(rels))],
						types.String(fmt.Sprintf("n%d", rng.Intn(4))),
						types.Int(int64(rng.Intn(20))),
						types.String(fmt.Sprintf("v%d", rng.Intn(6))))
					db.Insert(tu)
					inserted = append(inserted, tu)
				}
			}

			db2 := NewDatabase()
			if err := db2.MergeSnapshot(wire.NewDecoder(snapshotOf(db))); err != nil {
				t.Fatal(err)
			}
			assertDatabasesEqual(t, db, db2, rels)

			// Probe parity on an index the restore did NOT persist: it must
			// rebuild and answer identically.
			key := probeKey(types.Int(7))
			wp, gp := db.Probe("a", []int{2}, key), db2.Probe("a", []int{2}, key)
			if len(wp) != len(gp) {
				t.Fatalf("probe parity: want %d rows, got %d", len(wp), len(gp))
			}

			// Determinism under future evictions: capping both stores now
			// must evict the same victims (FIFO order survived the codec).
			db.SetGraveyardCap(2)
			db2.SetGraveyardCap(2)
			assertDatabasesEqual(t, db, db2, rels)
		})
	}
}

// TestSnapshotTruncatedErrors feeds every strict prefix of a valid
// snapshot to the decoder: all must fail cleanly, none may panic.
func TestSnapshotTruncatedErrors(t *testing.T) {
	db := NewDatabase()
	db.SetGraveyardCap(4)
	for i := 0; i < 10; i++ {
		tu := types.NewTuple("r", types.String("n"), types.Int(int64(i)))
		db.Insert(tu)
		if i%2 == 0 {
			db.Delete(tu)
		}
	}
	full := snapshotOf(db)
	for cut := 0; cut < len(full); cut++ {
		if err := NewDatabase().MergeSnapshot(wire.NewDecoder(full[:cut])); err == nil {
			t.Fatalf("truncated snapshot of %d/%d bytes restored without error", cut, len(full))
		}
	}
	if err := NewDatabase().MergeSnapshot(wire.NewDecoder(full)); err != nil {
		t.Fatalf("full snapshot failed: %v", err)
	}
}

// TestSnapshotRestoreReplacesState: restoring is Reset followed by
// MergeSnapshot, as restart recovery does — stale rows and stale graveyard
// entries are gone, and the snapshot's contents are all there.
func TestSnapshotRestoreReplacesState(t *testing.T) {
	src := NewDatabase()
	src.Insert(types.NewTuple("keep", types.String("n"), types.Int(1)))
	snap := snapshotOf(src)

	dst := NewDatabase()
	dst.Insert(types.NewTuple("stale", types.String("n"), types.Int(9)))
	stale := types.NewTuple("stale", types.String("n"), types.Int(8))
	dst.Insert(stale)
	dst.Delete(stale) // stale graveyard entry too
	dst.Reset()
	if err := dst.MergeSnapshot(wire.NewDecoder(snap)); err != nil {
		t.Fatal(err)
	}
	if dst.Count("stale") != 0 || dst.GraveyardSize() != 0 {
		t.Errorf("restore kept stale state: count=%d graveyard=%d", dst.Count("stale"), dst.GraveyardSize())
	}
	if dst.Count("keep") != 1 {
		t.Errorf("restore lost snapshot contents: count=%d", dst.Count("keep"))
	}
}

// TestSnapshotMergeUnion: MergeSnapshot folds a snapshot into a live
// database as a union — overlapping rows stay single, absent rows and
// graveyard entries arrive, and the receiver keeps its own retention cap.
func TestSnapshotMergeUnion(t *testing.T) {
	full := NewDatabase()
	shared := types.NewTuple("r", types.String("n"), types.Int(1))
	only := types.NewTuple("r", types.String("n"), types.Int(2))
	dead := types.NewTuple("r", types.String("n"), types.Int(3))
	full.Insert(shared)
	full.Insert(only)
	full.Insert(dead)
	full.Delete(dead)
	snap := snapshotOf(full)

	dst := NewDatabase()
	dst.SetGraveyardCap(7)
	dst.Insert(shared) // overlap: replication delivered it already
	if err := dst.MergeSnapshot(wire.NewDecoder(snap)); err != nil {
		t.Fatal(err)
	}
	if got := dst.Count("r"); got != 2 {
		t.Fatalf("merged live count = %d, want 2", got)
	}
	if !dst.Contains(only) || !dst.Contains(shared) {
		t.Fatal("merge lost a row")
	}
	if dst.GraveyardSize() != 1 {
		t.Fatalf("merged graveyard size = %d, want 1", dst.GraveyardSize())
	}
	if _, ok := dst.LookupVID(types.HashTuple(dead)); !ok {
		t.Fatal("graveyard VID unresolvable after merge")
	}

	// Idempotent: a second merge changes nothing.
	if err := dst.MergeSnapshot(wire.NewDecoder(snap)); err != nil {
		t.Fatal(err)
	}
	if dst.Count("r") != 2 || dst.GraveyardSize() != 1 {
		t.Fatal("second merge changed state")
	}

	// The receiver's graveyard cap survived (the donor's was unbounded).
	for i := 0; i < 20; i++ {
		tu := types.NewTuple("g", types.String("n"), types.Int(int64(i)))
		dst.Insert(tu)
		dst.Delete(tu)
	}
	if got := dst.GraveyardSize(); got != 7 {
		t.Fatalf("graveyard cap after merge = %d entries, want 7", got)
	}

	// Truncated payloads error rather than panic, even mid-merge.
	for cut := 0; cut < len(snap); cut++ {
		if err := NewDatabase().MergeSnapshot(wire.NewDecoder(snap[:cut])); err == nil {
			t.Fatalf("truncated snapshot of %d/%d bytes merged without error", cut, len(snap))
		}
	}
}
