package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"provcompress/internal/types"
)

// storeModel is the row store as plain maps and slices: per relation, the
// rows in scan order and, per index, slice buckets keyed by the key bytes,
// both with swap-remove deletes. It is the layout the Database's VID map
// and chained position buckets must behave like, candidate order included.
type storeModel struct {
	rows    map[string][]types.Tuple
	idx     map[string]map[string]map[string][]types.Tuple // rel -> index name -> key -> bucket
	live    map[types.ID]types.Tuple
	deleted map[types.ID]types.Tuple
}

// modelIndexName names an index of the model by its position set.
func modelIndexName(positions []int) string { return fmt.Sprint(positions) }

func (m *storeModel) addIndex(rel string, positions []int) {
	ix := make(map[string][]types.Tuple)
	for _, t := range m.rows[rel] {
		m.bucketAdd(ix, positions, t)
	}
	if m.idx[rel] == nil {
		m.idx[rel] = make(map[string]map[string][]types.Tuple)
	}
	m.idx[rel][modelIndexName(positions)] = ix
}

func (m *storeModel) bucketAdd(ix map[string][]types.Tuple, positions []int, t types.Tuple) {
	if positions[len(positions)-1] < len(t.Args) {
		key := string(appendIndexKey(nil, t.Args, positions))
		ix[key] = append(ix[key], t)
	}
}

func swapRemove(s []types.Tuple, t types.Tuple) []types.Tuple {
	i := slices.IndexFunc(s, t.Equal)
	s[i] = s[len(s)-1]
	return s[:len(s)-1]
}

func (m *storeModel) insert(t types.Tuple, positions map[string][][]int) bool {
	vid := types.HashTuple(t)
	if _, ok := m.live[vid]; ok {
		return false
	}
	m.live[vid] = t
	delete(m.deleted, vid)
	m.rows[t.Rel] = append(m.rows[t.Rel], t)
	for _, ps := range positions[t.Rel] {
		if ix := m.idx[t.Rel][modelIndexName(ps)]; ix != nil {
			m.bucketAdd(ix, ps, t)
		}
	}
	return true
}

func (m *storeModel) delete(t types.Tuple, positions map[string][][]int) bool {
	vid := types.HashTuple(t)
	if _, ok := m.live[vid]; !ok {
		return false
	}
	delete(m.live, vid)
	m.deleted[vid] = t
	m.rows[t.Rel] = swapRemove(m.rows[t.Rel], t)
	for _, ps := range positions[t.Rel] {
		ix := m.idx[t.Rel][modelIndexName(ps)]
		if ix == nil || ps[len(ps)-1] >= len(t.Args) {
			continue
		}
		key := string(appendIndexKey(nil, t.Args, ps))
		if ix[key] = swapRemove(ix[key], t); len(ix[key]) == 0 {
			delete(ix, key)
		}
	}
	return true
}

// TestDatabaseMatchesModel runs a seeded stream of inserts, deletes and
// re-inserts over three relations of mixed arity, each with two indexes
// (one built before the stream, one half way through), and after every
// operation compares the Database with storeModel: VID lookups of live and
// deleted rows, Contains, Len, Count, Scan and every probe key's
// candidates, all in order. It covers the VID map's and the buckets'
// fix-ups of a swap-remove delete.
func TestDatabaseMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	rels := []string{"a", "b", "c"}
	positions := map[string][][]int{
		"a": {{1}, {0, 1}},
		"b": {{1}, {1, 2}},
		"c": {{2}, {1, 3}}, // c mixes arities 2, 3 and 4: short rows stay out of both
	}
	mk := func() types.Tuple {
		rel := rels[rng.Intn(len(rels))]
		arity := map[string]int{"a": 2, "b": 3, "c": 2 + rng.Intn(3)}[rel]
		args := []types.Value{types.String(fmt.Sprintf("n%d", rng.Intn(2)))}
		for len(args) < arity {
			args = append(args, types.Int(int64(rng.Intn(4))))
		}
		return types.NewTuple(rel, args...)
	}

	db := NewDatabase()
	m := &storeModel{
		rows:    make(map[string][]types.Tuple),
		idx:     make(map[string]map[string]map[string][]types.Tuple),
		live:    make(map[types.ID]types.Tuple),
		deleted: make(map[types.ID]types.Tuple),
	}
	var seen []types.Tuple // every tuple the stream has used, for lookups and probe keys
	use := func(tu types.Tuple) {
		if !slices.ContainsFunc(seen, tu.Equal) {
			seen = append(seen, tu)
		}
	}
	build := func(which int) {
		for _, rel := range rels {
			ps := positions[rel][which]
			db.Probe(rel, ps, nil)
			m.addIndex(rel, ps)
		}
	}
	// An index builds on the first probe of a relation that has rows.
	for _, rel := range rels {
		tu := types.NewTuple(rel, types.String("n0"), types.Int(0), types.Int(0), types.Int(0))
		use(tu)
		db.Insert(tu)
		m.insert(tu, positions)
	}
	build(0)

	const ops = 1500
	for op := 0; op < ops; op++ {
		if op == ops/2 {
			build(1)
		}
		var tu types.Tuple
		switch r := rng.Intn(10); {
		case r < 5 || len(seen) == 0:
			tu = mk()
		default: // re-use a tuple the stream has seen: a duplicate, a delete or a re-insert
			tu = seen[rng.Intn(len(seen))]
		}
		use(tu)
		if rng.Intn(5) < 3 {
			if got, want := db.Insert(tu), m.insert(tu, positions); got != want {
				t.Fatalf("op %d: Insert(%v) = %v, model %v", op, tu, got, want)
			}
		} else if got, want := db.Delete(tu), m.delete(tu, positions); got != want {
			t.Fatalf("op %d: Delete(%v) = %v, model %v", op, tu, got, want)
		}
		checkAgainstModel(t, op, db, m, rels, positions, seen)
	}
}

func checkAgainstModel(t *testing.T, op int, db *Database, m *storeModel, rels []string, positions map[string][][]int, seen []types.Tuple) {
	t.Helper()
	if db.Len() != len(m.live) {
		t.Fatalf("op %d: Len = %d, model %d", op, db.Len(), len(m.live))
	}
	for _, tu := range seen {
		vid := types.HashTuple(tu)
		_, live := m.live[vid]
		_, gone := m.deleted[vid]
		if db.Contains(tu) != live {
			t.Fatalf("op %d: Contains(%v) = %v, model %v", op, tu, !live, live)
		}
		got, ok := db.LookupVID(vid)
		if ok != (live || gone) || ok && !got.Equal(tu) {
			t.Fatalf("op %d: LookupVID(%v) = %v, %v; live %v, deleted %v", op, tu, got, ok, live, gone)
		}
	}
	for _, rel := range rels {
		if db.Count(rel) != len(m.rows[rel]) {
			t.Fatalf("op %d: Count(%s) = %d, model %d", op, rel, db.Count(rel), len(m.rows[rel]))
		}
		if got := db.Scan(rel); !slices.EqualFunc(got, m.rows[rel], types.Tuple.Equal) {
			t.Fatalf("op %d: Scan(%s) = %v, model %v", op, rel, got, m.rows[rel])
		}
		for _, ps := range positions[rel] {
			ix := m.idx[rel][modelIndexName(ps)]
			if ix == nil {
				continue
			}
			for _, tu := range seen {
				if tu.Rel != rel || ps[len(ps)-1] >= len(tu.Args) {
					continue
				}
				key := appendIndexKey(nil, tu.Args, ps)
				if got := db.Probe(rel, ps, key); !slices.EqualFunc(got, ix[string(key)], types.Tuple.Equal) {
					t.Fatalf("op %d: Probe(%s, %v, %v) = %v, model %v", op, rel, ps, tu, got, ix[string(key)])
				}
			}
		}
	}
}

// TestStoredIndexTypesHoldNoPointers: the VID map (types.ID to rowRef)
// and an index's buckets and chains stay pointer-free, so the collector
// never scans them. A field that brings a pointer back fails here.
func TestStoredIndexTypesHoldNoPointers(t *testing.T) {
	byVID := reflect.TypeOf(new(Database).byVID)
	buckets := reflect.TypeOf(new(hashIndex).buckets)
	chain := reflect.TypeOf(new(hashIndex).next)
	for _, typ := range []reflect.Type{byVID.Key(), byVID.Elem(), buckets.Key(), buckets.Elem(), chain.Elem()} {
		if err := pointerFree(typ); err != nil {
			t.Error(err)
		}
	}
}

// pointerFree reports the first part of typ, through struct fields and
// array elements, that is or holds a pointer.
func pointerFree(typ reflect.Type) error {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if err := pointerFree(typ.Field(i).Type); err != nil {
				return fmt.Errorf("%s.%s: %w", typ, typ.Field(i).Name, err)
			}
		}
		return nil
	case reflect.Array:
		return pointerFree(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		return fmt.Errorf("%s is a %s", typ, typ.Kind())
	}
	return nil
}
