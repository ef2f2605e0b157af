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

// The values below were recorded at the commit before invalidation keys
// moved from the serving nodes (walkFrame.EqKeys, accumulated hop by hop and
// shipped in the key-set wire codec) to the querier, which now derives the
// whole set from the completed walk. Per workload and scheme they hold, for
// each derivation the reference run stored, the key set of the query
// filtered by its event and of the unfiltered query on its output — so a
// derivation that drops or adds a key for any scheme fails here, not as a
// stale or over-evicted cache entry.
var goldenInvalKeys = map[string][]goldenKeySet{
	"forwarding/ExSPAN": {{11, 0x6f2841791e991461}, {11, 0x6f2841791e991461}, {11, 0xf2e06d03026619de}, {11, 0xf2e06d03026619de},
		{11, 0x636f3c84ffde2f53}, {11, 0x636f3c84ffde2f53}, {11, 0xb647f2f42a4eaf0c}, {11, 0xb647f2f42a4eaf0c}},
	"forwarding/Basic": {{7, 0xabdcc06fc8daf943}, {7, 0xabdcc06fc8daf943}, {7, 0x3f708a4e41bf7fb5}, {7, 0x3f708a4e41bf7fb5},
		{7, 0x88cc97ade3a32e08}, {7, 0x88cc97ade3a32e08}, {7, 0x780fab3990470e43}, {7, 0x780fab3990470e43}},
	"forwarding/Advanced": {{7, 0xabdcc06fc8daf943}, {7, 0xabdcc06fc8daf943}, {7, 0x3f708a4e41bf7fb5}, {7, 0x3f708a4e41bf7fb5},
		{7, 0x88cc97ade3a32e08}, {7, 0x88cc97ade3a32e08}, {7, 0x780fab3990470e43}, {7, 0x780fab3990470e43}},
	"bgp/ExSPAN": {{12, 0x4f4bc00738ea1bf3}, {12, 0x4f4bc00738ea1bf3}, {12, 0xa08beede8604738a}, {12, 0xa08beede8604738a},
		{12, 0x494cee904a63cbc6}, {12, 0x494cee904a63cbc6}, {12, 0xfd80435be1a7589}, {12, 0xfd80435be1a7589}},
	"bgp/Basic": {{8, 0x356c24acf1eed76e}, {8, 0x356c24acf1eed76e}, {8, 0xa72b744a59ee5899}, {8, 0xa72b744a59ee5899},
		{8, 0x7c8b632700b0a952}, {8, 0x7c8b632700b0a952}, {8, 0xca8c5cd1ada8d807}, {8, 0xca8c5cd1ada8d807}},
	"bgp/Advanced": {{8, 0x356c24acf1eed76e}, {8, 0x356c24acf1eed76e}, {8, 0xa72b744a59ee5899}, {8, 0xa72b744a59ee5899},
		{8, 0x7c8b632700b0a952}, {8, 0x7c8b632700b0a952}, {8, 0xca8c5cd1ada8d807}, {8, 0xca8c5cd1ada8d807}},
	"proj/ExSPAN":   {{8, 0xc0202e9289716283}, {9, 0x7c32a01ba3e0b029}, {8, 0xbbfdece3339ae5a6}, {9, 0x7c32a01ba3e0b029}},
	"proj/Basic":    {{7, 0x14c5e915a514ac5e}, {8, 0xe49604c54662a820}, {7, 0xd45b3191d1e378fb}, {8, 0xe49604c54662a820}},
	"proj/Advanced": {{5, 0x647eb158f9c40880}, {8, 0xe49604c54662a820}, {5, 0x7155b6ce91407eab}, {8, 0xe49604c54662a820}},
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
