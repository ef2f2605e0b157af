package core

import (
	"fmt"
	"reflect"
	"testing"

	"provcompress/internal/types"
)

func id(s string) types.ID { return types.HashBytes([]byte(s)) }

func TestStoreRuleExecDedup(t *testing.T) {
	s := newStore(true, false, false)
	vids := []types.ID{id("v")}
	if !s.addRuleExec("n1", id("a"), "r1", vids, NilRef) {
		t.Error("first insert reported duplicate")
	}
	before := s.bytes()
	if s.addRuleExec("n1", id("a"), "r1", vids, NilRef) {
		t.Error("duplicate insert reported new")
	}
	if s.bytes() != before {
		t.Error("duplicate insert changed accounting")
	}
	got, ok := s.getRuleExec(id("a"))
	if !ok || got.Rule != "r1" {
		t.Errorf("getRuleExec = %+v, %v", got, ok)
	}
	if _, ok := s.getRuleExec(id("zzz")); ok {
		t.Error("missing rid found")
	}
	if s.numRuleExec() != 1 {
		t.Errorf("numRuleExec = %d", s.numRuleExec())
	}
}

func TestStoreNexts(t *testing.T) {
	// Chained mode: the row's own Next column.
	s := newStore(true, true, false)
	next := Ref{Loc: "n0", RID: id("child")}
	s.addRuleExec("n1", id("a"), "r1", nil, next)
	if got := s.nexts(id("a")); len(got) != 1 || got[0] != next {
		t.Errorf("nexts = %v", got)
	}
	if got := s.nexts(id("missing")); got != nil {
		t.Errorf("nexts of missing = %v", got)
	}

	// Inter-class mode: links table only.
	ic := newStore(false, true, true)
	ic.addRuleExec("n1", id("a"), "r1", nil, NilRef)
	if !ic.addLink(id("a"), next) {
		t.Error("first link rejected")
	}
	if ic.addLink(id("a"), next) {
		t.Error("duplicate link accepted")
	}
	ic.addLink(id("a"), NilRef)
	got := ic.nexts(id("a"))
	if len(got) != 2 {
		t.Fatalf("nexts = %v", got)
	}
	// Mutating the returned slice must not corrupt the store.
	got[0] = Ref{Loc: "junk"}
	if ic.nexts(id("a"))[0].Loc == "junk" {
		t.Error("nexts returns aliased storage")
	}
}

func TestStoreProvDedupAndFilter(t *testing.T) {
	s := newStore(true, true, false)
	p1 := Prov{Loc: "n3", VID: id("out"), Ref: Ref{Loc: "n3", RID: id("r")}, EvID: id("e1")}
	p2 := p1
	p2.EvID = id("e2")
	if !s.addProv(p1) || !s.addProv(p2) {
		t.Fatal("insert failed")
	}
	if s.addProv(p1) {
		t.Error("duplicate prov accepted")
	}
	if s.numProv() != 2 {
		t.Errorf("numProv = %d", s.numProv())
	}
	if got := s.provRows(id("out"), types.ZeroID); len(got) != 2 {
		t.Errorf("unfiltered rows = %d", len(got))
	}
	if got := s.provRows(id("out"), id("e1")); len(got) != 1 || got[0].EvID != id("e1") {
		t.Errorf("filtered rows = %v", got)
	}
	if got := s.provRows(id("out"), id("e9")); len(got) != 0 {
		t.Errorf("foreign-evid rows = %v", got)
	}
	if got := s.provRows(id("nothing"), types.ZeroID); got != nil {
		t.Errorf("missing vid rows = %v", got)
	}
}

func TestStoreEquiKeysLifecycle(t *testing.T) {
	s := newStore(true, true, false)
	if s.seenEquiKey(id("k1")) {
		t.Error("fresh key reported seen")
	}
	if !s.seenEquiKey(id("k1")) {
		t.Error("repeated key reported fresh")
	}
	if s.seenEquiKey(id("k2")) {
		t.Error("second fresh key reported seen")
	}
	if s.htequiBytes <= 0 {
		t.Error("htequi not accounted")
	}
	s.clearEquiKeys()
	if s.htequiBytes != 0 {
		t.Error("accounting not reset on clear")
	}
	if s.seenEquiKey(id("k1")) {
		t.Error("key survived clear (sig must reset Stage 1)")
	}
}

func TestStoreHmapAndPending(t *testing.T) {
	s := newStore(true, true, false)
	if got := s.hmapRefs(id("class"), "recv"); got != nil {
		t.Error("empty hmap hit")
	}
	// Outputs arriving before the class's first execution completes are
	// parked and released by addHmapRef.
	s.deferOutput(id("class"), "recv", pendingOutput{vid: id("o1"), evid: id("e1")})
	s.deferOutput(id("class"), "recv", pendingOutput{vid: id("o2"), evid: id("e2")})
	ref := Ref{Loc: "n3", RID: id("chain")}
	waiting := s.addHmapRef(id("class"), "recv", id("e1"), ref)
	if len(waiting) != 2 {
		t.Fatalf("waiting = %v", waiting)
	}
	if got := s.hmapRefs(id("class"), "recv"); len(got) != 1 || got[0] != ref {
		t.Errorf("hmap = %v", got)
	}
	// Pending entries are per output relation.
	if got := s.hmapRefs(id("class"), "mirror"); got != nil {
		t.Errorf("foreign relation hit: %v", got)
	}

	// A second chain of the same event accumulates.
	ref2 := Ref{Loc: "n3", RID: id("chain2")}
	s.addHmapRef(id("class"), "recv", id("e1"), ref2)
	if got := s.hmapRefs(id("class"), "recv"); len(got) != 2 {
		t.Errorf("same-epoch refs = %v, want 2", got)
	}
	// Duplicate refs are ignored.
	s.addHmapRef(id("class"), "recv", id("e1"), ref2)
	if got := s.hmapRefs(id("class"), "recv"); len(got) != 2 {
		t.Errorf("duplicate ref accumulated: %v", got)
	}

	// A fresh event (post-sig re-maintenance) replaces the epoch.
	ref3 := Ref{Loc: "n3", RID: id("chain3")}
	s.addHmapRef(id("class"), "recv", id("e9"), ref3)
	if got := s.hmapRefs(id("class"), "recv"); len(got) != 1 || got[0] != ref3 {
		t.Errorf("epoch not replaced: %v", got)
	}
	if s.hmapBytes <= 0 {
		t.Error("hmap not accounted")
	}
}

func TestStoreBytesComposition(t *testing.T) {
	s := newStore(true, true, false)
	if s.bytes() != 0 {
		t.Error("empty store has bytes")
	}
	s.addRuleExec("n1", id("a"), "r1", nil, NilRef)
	s.addProv(Prov{Loc: "n1", VID: id("v"), EvID: id("e")})
	s.seenEquiKey(id("k"))
	s.addHmapRef(id("k"), "out", id("e"), Ref{Loc: "n1", RID: id("a")})
	want := s.ruleExecBytes + s.provBytes + s.htequiBytes + s.hmapBytes
	if s.bytes() != want || want <= 0 {
		t.Errorf("bytes = %d, want %d", s.bytes(), want)
	}
}

// TestAdvancedInjectShortEvent: an event with fewer arguments than the
// equivalence keys index must hash what it has, not index out of range —
// the keys come from the program, the event from outside.
func TestAdvancedInjectShortEvent(t *testing.T) {
	s := NewAdvancedState([]int{0, 2})
	short := types.NewTuple("packet", types.String("n0"))
	if m := s.Inject(short); m.Exist {
		t.Error("first short event reported as seen")
	}
	if m := s.Inject(short); !m.Exist {
		t.Error("repeated short event not recognised as the same class")
	}
}

// TestStoredIndexTypesHoldNoPointers: the ruleExec table — the RID map
// (types.ID to a row index), the execRow slabs and the VID slabs — stays
// pointer-free, so the collector never scans it. A field that brings a
// pointer back fails here.
func TestStoredIndexTypesHoldNoPointers(t *testing.T) {
	s := new(store)
	byRID := reflect.TypeOf(s.ruleExec)
	for _, typ := range []reflect.Type{
		byRID.Key(), byRID.Elem(),
		reflect.TypeOf(s.execChunks).Elem().Elem(),
		reflect.TypeOf(s.vidChunks).Elem().Elem(),
	} {
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
