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
// space and a key became the first eight bytes of an ID: against the sets
// pinned before, each lost its class keys (one, and the second leaf
// event's in proj's unfiltered sets), and Basic's — which hangs
// predecessors off an execution as link rows — gained the RID of every
// rule execution the walk collected (five in forwarding and bgp, three in
// proj). Advanced+IC's sets were pinned when the cluster began to serve
// it: its shared rule-execution nodes carry link rows too, so its sets
// also hold the RID of every execution the walk collected.
var goldenInvalKeys = map[string][]goldenKeySet{
	"forwarding/ExSPAN": {{10, 0x5d4f0e59da461495}, {10, 0x5d4f0e59da461495}, {10, 0x98b86994e663c200}, {10, 0x98b86994e663c200},
		{10, 0xb4218e13037d9b74}, {10, 0xb4218e13037d9b74}, {10, 0x33a0c10057cef647}, {10, 0x33a0c10057cef647}},
	"forwarding/Basic": {{11, 0x2c079e78aeb5fe62}, {11, 0x2c079e78aeb5fe62}, {11, 0x11675ccf2df50804}, {11, 0x11675ccf2df50804},
		{11, 0x235e4b2f45efa076}, {11, 0x235e4b2f45efa076}, {11, 0x155e7b656447e68d}, {11, 0x155e7b656447e68d}},
	"forwarding/Advanced": {{6, 0x3987dd23b997bac0}, {6, 0x3987dd23b997bac0}, {6, 0x1a56f88a1123da24}, {6, 0x1a56f88a1123da24},
		{6, 0xe3b236394a5afc5c}, {6, 0xe3b236394a5afc5c}, {6, 0x488a52a6187e11d5}, {6, 0x488a52a6187e11d5}},
	"bgp/ExSPAN": {{11, 0x75ada5716c1e3ae2}, {11, 0x75ada5716c1e3ae2}, {11, 0x8412318a6e004c10}, {11, 0x8412318a6e004c10},
		{11, 0x4b54dd02cb7a588f}, {11, 0x4b54dd02cb7a588f}, {11, 0x1b535f0557ec1303}, {11, 0x1b535f0557ec1303}},
	"bgp/Basic": {{12, 0x801e5b41ffd9e5d0}, {12, 0x801e5b41ffd9e5d0}, {12, 0x99cdd36fd6898e84}, {12, 0x99cdd36fd6898e84},
		{12, 0xd9da8cbd46389cc5}, {12, 0xd9da8cbd46389cc5}, {12, 0x5cc1e9a3013979f3}, {12, 0x5cc1e9a3013979f3}},
	"bgp/Advanced": {{7, 0xcfcd35fa2dfb62f8}, {7, 0xcfcd35fa2dfb62f8}, {7, 0x288ffb6e288a17fb}, {7, 0x288ffb6e288a17fb},
		{7, 0xa85967a08fe7af7c}, {7, 0xa85967a08fe7af7c}, {7, 0xab4b8e09f8e5e2a7}, {7, 0xab4b8e09f8e5e2a7}},
	"proj/ExSPAN":   {{7, 0xf99d0ee5bd15f887}, {7, 0xf99d0ee5bd15f887}, {7, 0xf99d0ee5bd15f887}, {7, 0xf99d0ee5bd15f887}},
	"proj/Basic":    {{9, 0x70ed6f21abd0a809}, {9, 0x70ed6f21abd0a809}, {9, 0x70ed6f21abd0a809}, {9, 0x70ed6f21abd0a809}},
	"proj/Advanced": {{4, 0x3caef7df5c9fe427}, {6, 0x51d997e96c7507ca}, {4, 0xa832737fe8080ad1}, {6, 0x51d997e96c7507ca}},
	"forwarding/Advanced+IC": {{11, 0x1662d35c371d3a3}, {11, 0x1662d35c371d3a3}, {11, 0x760654c70cf5ae23}, {11, 0x760654c70cf5ae23},
		{11, 0x249857944d0fd22b}, {11, 0x249857944d0fd22b}, {11, 0xf1bad40afe0bbc0a}, {11, 0xf1bad40afe0bbc0a}},
	"bgp/Advanced+IC": {{12, 0x72dca6aff93b9132}, {12, 0x72dca6aff93b9132}, {12, 0xea58d7c297e3a9b3}, {12, 0xea58d7c297e3a9b3},
		{12, 0x365894af54a70e5}, {12, 0x365894af54a70e5}, {12, 0xda22bbd0fdcb4f31}, {12, 0xda22bbd0fdcb4f31}},
	"proj/Advanced+IC": {{8, 0x276d444c0973b8c6}, {9, 0x1551c37888e3d62d}, {8, 0x428253b91e6f0d2a}, {9, 0x1551c37888e3d62d}},
}

func TestInvalKeysGolden(t *testing.T) {
	for _, name := range []string{"forwarding", "bgp", "proj"} {
		w := walkWorkloadNamed(t, name)
		rec := w.reference(t)
		for _, scheme := range core.AllSchemeNames() {
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
