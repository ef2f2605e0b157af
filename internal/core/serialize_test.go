package core

import (
	"bytes"
	"testing"

	"provcompress/internal/types"
)

// TestSerializedSizeMatchesAccounting pins the storage measurement to the
// actual serialization: for every scheme and every node of a mixed
// workload, the length of SerializeNode equals StorageBytes. The Section 6
// figures are therefore literally "size of the serialized per-node
// provenance tables", as in the paper.
func TestSerializedSizeMatchesAccounting(t *testing.T) {
	type serializer interface {
		SerializeNode(types.NodeAddr) []byte
		StorageBytes(types.NodeAddr) int64
	}
	evs := []types.Tuple{
		packet("n1", "n1", "n3", "data"),
		packet("n1", "n1", "n3", "url"),
		packet("n2", "n2", "n3", "ack"),
	}
	for _, m := range []queryMaintainer{mustScheme(SchemeExSPAN), mustScheme(SchemeBasic), mustScheme(SchemeAdvanced), mustScheme(SchemeAdvancedInterClass)} {
		t.Run(m.Name(), func(t *testing.T) {
			rt := fig2Runtime(t, m)
			injectSpaced(rt, evs...)
			rt.Run()
			checkNoErrors(t, rt)
			// Exercise the slow-update state too (htequi/hmap under Advanced).
			rt.InsertSlow(routeTuple("n1", "n2", "n2"))
			rt.Run()

			sz, ok := m.(serializer)
			if !ok {
				t.Fatalf("%s does not serialize", m.Name())
			}
			for _, addr := range []types.NodeAddr{"n1", "n2", "n3"} {
				got := sz.SerializeNode(addr)
				if int64(len(got)) != sz.StorageBytes(addr) {
					t.Errorf("%s at %s: serialized %d bytes, accounting says %d",
						m.Name(), addr, len(got), sz.StorageBytes(addr))
				}
			}
			if sz.SerializeNode("ghost") != nil {
				t.Error("unknown node serialized")
			}
		})
	}
}

// TestSerializeDeterministic: the serialization is byte-stable across
// calls (required for reproducible measurements).
func TestSerializeDeterministic(t *testing.T) {
	a := mustScheme(SchemeAdvanced)
	rt := fig2Runtime(t, a)
	injectSpaced(rt, packet("n1", "n1", "n3", "x"), packet("n1", "n1", "n3", "y"))
	rt.Run()
	for _, addr := range []types.NodeAddr{"n1", "n2", "n3"} {
		if !bytes.Equal(a.SerializeNode(addr), a.SerializeNode(addr)) {
			t.Errorf("serialization of %s not deterministic", addr)
		}
	}
}
