package main

import (
	"math/rand"

	"provcompress/internal/core"
	"provcompress/internal/types"
)

// sampleEvents draws n distinct events from evs with the run's seed.
func sampleEvents(evs []types.Tuple, n int, seed int64) []types.Tuple {
	if n > len(evs) {
		n = len(evs)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]types.Tuple, n)
	for i, j := range r.Perm(len(evs))[:n] {
		out[i] = evs[j]
	}
	return out
}

// oraclePass is the lossless-compression check (Thm. 3/5): the same
// events run on an ExSPAN cluster and on an Advanced cluster must derive
// the same outputs, and for a seeded sample of outputs both schemes must
// return equal provenance trees. The two storage totals give
// storage_ratio_vs_exspan.
func (e *env) oraclePass(evs []types.Tuple) (ratio float64) {
	base := e.wl.base(evs)
	stored := map[string]int64{}
	trees := map[string][][]*core.Tree{}
	sample := sampleEvents(evs, e.size.oracleSamples, e.seed)
	for _, scheme := range []string{core.SchemeExSPAN, core.SchemeAdvanced} {
		c, err := e.boot(scheme, "", base)
		if !e.ops.attempt(err) {
			return 0
		}
		for i := 0; i < len(evs); i += e.size.window {
			e.ingestWindow(c, evs[i:min(i+e.size.window, len(evs))])
		}
		e.checkOutputs(c, evs)
		stored[scheme] = c.TotalStorageBytes()
		for _, ev := range sample {
			res, _ := e.directQuery(c, ev)
			trees[scheme] = append(trees[scheme], res.Trees)
		}
		e.checkAccounting(c)
		c.Close()
	}
	for i, ev := range sample {
		a, b := trees[core.SchemeExSPAN][i], trees[core.SchemeAdvanced][i]
		same := len(a) == len(b)
		for j := 0; same && j < len(a); j++ {
			same = a[j].Equal(b[j])
		}
		e.ops.check(same, "ExSPAN and Advanced trees differ for %s", ev)
	}
	if stored[core.SchemeAdvanced] == 0 {
		return 0
	}
	return float64(stored[core.SchemeExSPAN]) / float64(stored[core.SchemeAdvanced])
}
