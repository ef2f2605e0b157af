package engine

import (
	"testing"

	"provcompress/internal/types"
)

func rt3(loc, dst, next string) types.Tuple {
	return types.NewTuple("route", types.String(loc), types.String(dst), types.String(next))
}

func TestDatabaseInsertScanDelete(t *testing.T) {
	db := NewDatabase()
	a := rt3("n1", "n3", "n2")
	b := rt3("n1", "n4", "n2")
	if !db.Insert(a) {
		t.Error("first insert reported duplicate")
	}
	if db.Insert(a) {
		t.Error("duplicate insert reported new")
	}
	db.Insert(b)
	if db.Count("route") != 2 {
		t.Errorf("count = %d, want 2", db.Count("route"))
	}
	db.Insert(types.NewTuple("link", types.String("n1"), types.String("n2")))
	if db.Len() != 3 {
		t.Errorf("len = %d, want 3 across both relations", db.Len())
	}
	rows := db.Scan("route")
	if len(rows) != 2 || !rows[0].Equal(a) || !rows[1].Equal(b) {
		t.Errorf("scan = %v", rows)
	}
	if !db.Delete(a) {
		t.Error("delete reported missing")
	}
	if db.Delete(a) {
		t.Error("second delete reported present")
	}
	if db.Count("route") != 1 {
		t.Errorf("count after delete = %d", db.Count("route"))
	}
	if db.Len() != 2 {
		t.Errorf("len after delete = %d, want 2 (the graveyard is not counted)", db.Len())
	}
	if len(db.Scan("nosuch")) != 0 {
		t.Error("scan of unknown relation non-empty")
	}
}

func TestDatabaseLookupVIDAndGraveyard(t *testing.T) {
	db := NewDatabase()
	a := rt3("n1", "n3", "n2")
	vid := types.HashTuple(a)
	if _, ok := db.LookupVID(vid); ok {
		t.Error("lookup before insert succeeded")
	}
	db.Insert(a)
	if got, ok := db.LookupVID(vid); !ok || !got.Equal(a) {
		t.Errorf("lookup = %v, %v", got, ok)
	}
	db.Delete(a)
	// Deleted tuples stay resolvable (provenance is monotone) but leave the
	// table.
	if got, ok := db.LookupVID(vid); !ok || !got.Equal(a) {
		t.Error("deleted tuple no longer resolvable by VID")
	}
	if db.Count("route") != 0 {
		t.Error("deleted tuple still scanned")
	}
	// Re-insert after delete works.
	if !db.Insert(a) {
		t.Error("re-insert after delete rejected")
	}
	if db.Count("route") != 1 {
		t.Error("re-inserted tuple not scanned")
	}
}

func TestNodeString(t *testing.T) {
	n := NewNode("n1")
	if n.String() != "node(n1)" {
		t.Errorf("String = %q", n.String())
	}
	if n.DB == nil {
		t.Error("node without database")
	}
}

// TestGraveyardCap is the regression test for unbounded graveyard growth
// under delete churn: with a retention cap set, the oldest deleted
// tuples are evicted FIFO and stop resolving, while the newest stay
// queryable; without a cap every deleted tuple is retained.
func TestGraveyardCap(t *testing.T) {
	mk := func(i int) types.Tuple {
		return types.NewTuple("route",
			types.String("n1"), types.Int(int64(i)), types.String("n2"))
	}

	// Unbounded by default: churn retains everything.
	db := NewDatabase()
	for i := 0; i < 50; i++ {
		db.Insert(mk(i))
		db.Delete(mk(i))
	}
	if got := db.GraveyardSize(); got != 50 {
		t.Fatalf("unbounded graveyard size = %d, want 50", got)
	}

	// Capped: only the newest N survive.
	db2 := NewDatabase()
	db2.SetGraveyardCap(10)
	for i := 0; i < 50; i++ {
		db2.Insert(mk(i))
		db2.Delete(mk(i))
	}
	if got := db2.GraveyardSize(); got != 10 {
		t.Fatalf("capped graveyard size = %d, want 10", got)
	}
	if _, ok := db2.LookupVID(types.HashTuple(mk(0))); ok {
		t.Fatal("evicted tuple still resolvable")
	}
	if _, ok := db2.LookupVID(types.HashTuple(mk(49))); !ok {
		t.Fatal("newest deleted tuple not resolvable")
	}

	// Lowering the cap on a full graveyard evicts immediately.
	db2.SetGraveyardCap(3)
	if got := db2.GraveyardSize(); got != 3 {
		t.Fatalf("size after cap shrink = %d, want 3", got)
	}

	// Re-deleting an already-buried tuple must not double-count.
	db3 := NewDatabase()
	db3.SetGraveyardCap(5)
	db3.Insert(mk(1))
	db3.Delete(mk(1))
	db3.Insert(mk(1))
	db3.Delete(mk(1))
	if got := db3.GraveyardSize(); got != 1 {
		t.Fatalf("re-delete graveyard size = %d, want 1", got)
	}
}

// TestGraveyardReinsertPurge is the regression test for the deletion-storm
// leak: a tuple that is deleted and later re-inserted is live again, so it
// must leave the graveyard — otherwise the graveyard gauge never returns
// to baseline after a storm, the retention cap is consumed by live tuples,
// and a cap eviction can fire an invalidation for a tuple that still
// resolves from the live store.
func TestGraveyardReinsertPurge(t *testing.T) {
	mk := func(i int) types.Tuple {
		return types.NewTuple("route",
			types.String("n1"), types.Int(int64(i)), types.String("n2"))
	}

	// Storm then full re-insert: the graveyard must drain to zero.
	db := NewDatabase()
	db.SetGraveyardCap(4)
	for i := 0; i < 10; i++ {
		db.Insert(mk(i))
	}
	for i := 0; i < 10; i++ {
		db.Delete(mk(i))
	}
	if got := db.GraveyardSize(); got != 4 {
		t.Fatalf("post-storm graveyard size = %d, want 4 (cap)", got)
	}
	for i := 0; i < 10; i++ {
		db.Insert(mk(i))
	}
	if got := db.GraveyardSize(); got != 0 {
		t.Fatalf("graveyard size after full re-insert = %d, want 0", got)
	}
	if got := len(db.GraveyardVIDs()); got != 0 {
		t.Fatalf("GraveyardVIDs after full re-insert = %d entries, want 0", got)
	}

	// Stale order slots must not count toward the cap or surface as
	// evictions: after re-inserting 6..9 (their order slots go stale),
	// deleting four fresh tuples must keep exactly cap entries live and
	// never evict a live VID.
	for i := 6; i < 10; i++ {
		db.Delete(mk(i))
	}
	for i := 10; i < 14; i++ {
		db.Insert(mk(i))
	}
	for i := 10; i < 14; i++ {
		db.Delete(mk(i))
	}
	if got := db.GraveyardSize(); got != 4 {
		t.Fatalf("graveyard size = %d, want 4", got)
	}
	// The four oldest (6..9) were evicted; the newest four resolve.
	for i := 10; i < 14; i++ {
		if _, ok := db.LookupVID(types.HashTuple(mk(i))); !ok {
			t.Fatalf("newest deleted tuple %d not resolvable", i)
		}
	}
	// A re-inserted tuple resolves from the live store, not the graveyard.
	if got, ok := db.LookupVID(types.HashTuple(mk(0))); !ok || !got.Equal(mk(0)) {
		t.Fatal("re-inserted tuple not resolvable from live store")
	}
}
