package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"provcompress/internal/core"
	"provcompress/internal/types"
)

// goldenKeySet pins one query answer's invalidation-key set: how many keys
// it holds and an FNV-1a digest of the sorted set.
type goldenKeySet struct {
	n      int
	digest uint64
}

func digestKeys(keys []uint64) goldenKeySet {
	h := fnv.New64a()
	var b [8]byte
	for _, k := range keys {
		binary.BigEndian.PutUint64(b[:], k)
		h.Write(b[:]) //nolint:errcheck // fnv never fails
	}
	return goldenKeySet{len(keys), h.Sum64()}
}

// Per workload and scheme the values below hold, for each derivation the
// reference run stored, the key set of the query filtered by its event and
// of the unfiltered query on its output — so a derivation that drops or
// adds a key for any scheme fails here, not as a stale or over-evicted
// cache entry. They were re-pinned when the §5.2 class keys left the key
// space, a key became the first eight bytes of an ID, and every collected
// rule execution began to carry its own key: against the sets pinned
// before, each lost its class keys (one, and the second leaf event's in
// proj's unfiltered sets) and gained one key per rule execution its walk
// collected (five in forwarding and bgp; three, or two and four under
// Advanced, in proj).
var goldenInvalKeys = map[string][]goldenKeySet{
	"forwarding/ExSPAN": {{15, 0x1f705cd5c6f26fb3}, {15, 0x1f705cd5c6f26fb3}, {15, 0xa6eaecd9dd4bd3d8}, {15, 0xa6eaecd9dd4bd3d8},
		{15, 0x42dbbc9461d4587e}, {15, 0x42dbbc9461d4587e}, {15, 0xa4c641f1be130ccf}, {15, 0xa4c641f1be130ccf}},
	"forwarding/Basic": {{11, 0x2c079e78aeb5fe62}, {11, 0x2c079e78aeb5fe62}, {11, 0x11675ccf2df50804}, {11, 0x11675ccf2df50804},
		{11, 0x235e4b2f45efa076}, {11, 0x235e4b2f45efa076}, {11, 0x155e7b656447e68d}, {11, 0x155e7b656447e68d}},
	"forwarding/Advanced": {{11, 0x1dbc56e6f390f37}, {11, 0x1dbc56e6f390f37}, {11, 0xc538e47b479d0a0b}, {11, 0xc538e47b479d0a0b},
		{11, 0xdb32ce2d5eab5cd3}, {11, 0xdb32ce2d5eab5cd3}, {11, 0x772c65211bd4c31a}, {11, 0x772c65211bd4c31a}},
	"bgp/ExSPAN": {{16, 0x9bd1547d5708d0d2}, {16, 0x9bd1547d5708d0d2}, {16, 0xa1fe08fd336d7e3b}, {16, 0xa1fe08fd336d7e3b},
		{16, 0x99d8087e8f2b333a}, {16, 0x99d8087e8f2b333a}, {16, 0x86d8f14758892443}, {16, 0x86d8f14758892443}},
	"bgp/Basic": {{12, 0x801e5b41ffd9e5d0}, {12, 0x801e5b41ffd9e5d0}, {12, 0x99cdd36fd6898e84}, {12, 0x99cdd36fd6898e84},
		{12, 0xd9da8cbd46389cc5}, {12, 0xd9da8cbd46389cc5}, {12, 0x5cc1e9a3013979f3}, {12, 0x5cc1e9a3013979f3}},
	"bgp/Advanced": {{12, 0x5547d5b0f3ae2e06}, {12, 0x5547d5b0f3ae2e06}, {12, 0x561089d0058eb8b9}, {12, 0x561089d0058eb8b9},
		{12, 0xef6a19ef7828d28c}, {12, 0xef6a19ef7828d28c}, {12, 0x205f6179b4237d71}, {12, 0x205f6179b4237d71}},
	"proj/ExSPAN":   {{10, 0x298d039f0b7affe8}, {10, 0x298d039f0b7affe8}, {10, 0x298d039f0b7affe8}, {10, 0x298d039f0b7affe8}},
	"proj/Basic":    {{9, 0x70ed6f21abd0a809}, {9, 0x70ed6f21abd0a809}, {9, 0x70ed6f21abd0a809}, {9, 0x70ed6f21abd0a809}},
	"proj/Advanced": {{6, 0xe53e68d7a347d6be}, {10, 0x4ca29d68cc94b277}, {6, 0xbd88c56bcdfcb069}, {10, 0x4ca29d68cc94b277}},
}

func TestInvalKeysGolden(t *testing.T) {
	for _, name := range []string{"forwarding", "bgp", "proj"} {
		w := walkWorkloadNamed(t, name)
		rec := w.reference(t)
		for _, scheme := range []string{core.SchemeExSPAN, core.SchemeBasic, core.SchemeAdvanced} {
			t.Run(w.name+"/"+scheme, func(t *testing.T) {
				c := w.boot(t, scheme)
				var got []goldenKeySet
				for _, tree := range rec.Trees() {
					for _, evid := range []types.ID{tree.EvID(), types.ZeroID} {
						res, err := c.Query(tree.Output, evid, 5*time.Second)
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, digestKeys(res.InvalKeys))
					}
				}
				if want := goldenInvalKeys[w.name+"/"+scheme]; !reflect.DeepEqual(got, want) {
					t.Errorf("invalidation key sets moved:\n got %#v\nwant %#v", got, want)
				}
			})
		}
	}
}
