package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"provcompress/internal/types"
)

func probeKey(vals ...types.Value) []byte {
	var key []byte
	for _, v := range vals {
		key = v.AppendEncode(key)
	}
	return key
}

func TestDatabaseSwapRemoveDelete(t *testing.T) {
	db := NewDatabase()
	const n = 100
	for i := 0; i < n; i++ {
		db.Insert(rt3("n1", fmt.Sprintf("d%d", i), "n2"))
	}
	// Delete from the middle: the last row is swapped into the hole, the
	// remaining set is intact, and the VID position map stays consistent so
	// later deletes still find their rows.
	for i := 0; i < n; i += 2 {
		if !db.Delete(rt3("n1", fmt.Sprintf("d%d", i), "n2")) {
			t.Fatalf("delete d%d reported missing", i)
		}
	}
	if db.Count("route") != n/2 {
		t.Fatalf("count = %d, want %d", db.Count("route"), n/2)
	}
	left := make(map[string]bool)
	for _, row := range db.Scan("route") {
		left[row.Args[1].AsString()] = true
	}
	for i := 0; i < n; i++ {
		want := i%2 == 1
		if left[fmt.Sprintf("d%d", i)] != want {
			t.Errorf("d%d present = %v, want %v", i, !want, want)
		}
	}
}

func TestDatabaseProbeMatchesScan(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 64; i++ {
		db.Insert(types.NewTuple("edge",
			types.String("n"), types.Int(int64(i%8)), types.Int(int64(i))))
	}
	positions := []int{1}
	for want := 0; want < 8; want++ {
		got := db.Probe("edge", positions, probeKey(types.Int(int64(want))))
		if len(got) != 8 {
			t.Fatalf("bucket %d has %d rows, want 8", want, len(got))
		}
		for _, row := range got {
			if row.Args[1].AsInt() != int64(want) {
				t.Errorf("bucket %d holds %v", want, row)
			}
		}
	}
	if db.IndexCount("edge") != 1 {
		t.Errorf("index count = %d, want 1 (one position set)", db.IndexCount("edge"))
	}
	// A second position set builds a second index.
	db.Probe("edge", []int{1, 2}, probeKey(types.Int(3), types.Int(3)))
	if db.IndexCount("edge") != 2 {
		t.Errorf("index count = %d, want 2", db.IndexCount("edge"))
	}
}

// TestDatabaseIndexConsistencyUnderChurn hammers a relation with random
// inserts and deletes after its indexes exist, asserting after every step
// that probing agrees with filtering a full scan.
func TestDatabaseIndexConsistencyUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := NewDatabase()
	mk := func(k, v int) types.Tuple {
		return types.NewTuple("kv", types.String("n"), types.Int(int64(k)), types.Int(int64(v)))
	}
	// Force the index into existence before any churn.
	db.Probe("kv", []int{1}, probeKey(types.Int(0)))

	live := make(map[[2]int]bool)
	for step := 0; step < 2000; step++ {
		k, v := rng.Intn(8), rng.Intn(50)
		if rng.Intn(3) > 0 {
			db.Insert(mk(k, v))
			live[[2]int{k, v}] = true
		} else {
			db.Delete(mk(k, v))
			delete(live, [2]int{k, v})
		}
	}
	for k := 0; k < 8; k++ {
		want := 0
		for kv := range live {
			if kv[0] == k {
				want++
			}
		}
		got := db.Probe("kv", []int{1}, probeKey(types.Int(int64(k))))
		if len(got) != want {
			t.Fatalf("bucket %d: %d rows, want %d", k, len(got), want)
		}
		for _, row := range got {
			if !live[[2]int{int(row.Args[1].AsInt()), int(row.Args[2].AsInt())}] {
				t.Fatalf("bucket %d holds deleted row %v", k, row)
			}
		}
	}
	if db.Count("kv") != len(live) {
		t.Errorf("count = %d, want %d", db.Count("kv"), len(live))
	}
}

// TestDatabaseIndexSkipsShortTuples: the store is schema-free, so an index
// over position 2 must ignore (not crash on) tuples of arity 2.
func TestDatabaseIndexSkipsShortTuples(t *testing.T) {
	db := NewDatabase()
	short := types.NewTuple("r", types.String("n"), types.Int(1))
	long := types.NewTuple("r", types.String("n"), types.Int(1), types.Int(2))
	db.Insert(short)
	db.Insert(long)
	got := db.Probe("r", []int{2}, probeKey(types.Int(2)))
	if len(got) != 1 || !got[0].Equal(long) {
		t.Errorf("probe = %v, want only the arity-3 tuple", got)
	}
	// Deleting the short tuple must not disturb the index either.
	db.Delete(short)
	got = db.Probe("r", []int{2}, probeKey(types.Int(2)))
	if len(got) != 1 {
		t.Errorf("probe after delete = %v", got)
	}
}

// probeLocked returns the candidates of the bucket for key whose values at
// the positions encode to key (a bucket may also chain rows of a key whose
// hash collides), in bucket order. The caller holds mu.
func (db *Database) probeLocked(rel string, positions []int, key []byte) []types.Tuple {
	var out []types.Tuple
	rows, next, p := db.bucketLocked(rel, positions, key)
	for ; p != noRow; p = next[p] {
		if string(appendIndexKey(nil, rows[p].Args, positions)) == string(key) {
			out = append(out, rows[p])
		}
	}
	return out
}

// Probe returns the tuples of a relation whose values at the given
// positions encode to key, using (and lazily building) the secondary hash
// index for that position set. positions must be sorted; key is the
// concatenated canonical encoding of the sought values (appendIndexKey).
// The same stability caveats as Scan apply.
func (db *Database) Probe(rel string, positions []int, key []byte) []types.Tuple {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.probeLocked(rel, positions, key)
}

// IndexCount returns the number of secondary indexes built for a relation.
func (db *Database) IndexCount(rel string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.idxMu.Lock()
	defer db.idxMu.Unlock()
	if r := db.tables[rel]; r != nil {
		return len(r.idx)
	}
	return 0
}
