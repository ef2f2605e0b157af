package experiments

import (
	"testing"

	"provcompress/internal/core"
)

// TestExperimentsDeterministic: the entire pipeline — topology generation,
// workload, simulation, maintenance — is reproducible: two runs with the
// same seed produce byte-identical storage and bandwidth numbers.
func TestExperimentsDeterministic(t *testing.T) {
	cfg := smallForwarding()
	run := func() (map[string]float64, map[string]float64) {
		storage := make(map[string]float64)
		wire := make(map[string]float64)
		res9, err := Fig9(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res11, err := Fig11(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range core.SchemeNames() {
			storage[s] = res9.PerScheme[s].Last()
			wire[s] = res11.PerScheme[s].Last()
		}
		return storage, wire
	}
	s1, w1 := run()
	s2, w2 := run()
	for _, s := range core.SchemeNames() {
		if s1[s] != s2[s] {
			t.Errorf("%s: storage diverged: %v vs %v", s, s1[s], s2[s])
		}
		if w1[s] != w2[s] {
			t.Errorf("%s: wire bytes diverged: %v vs %v", s, w1[s], w2[s])
		}
	}
	// A different seed produces a different workload (and so different
	// numbers).
	cfg2 := cfg
	cfg2.Seed = 99
	res, err := Fig9(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerScheme[core.SchemeExSPAN].Last() == s1[core.SchemeExSPAN] {
		t.Log("note: different seed produced identical storage (possible but unlikely)")
	}
}

// TestQueryCostModelSensitivity: the calibrated cost model actually drives
// the measured latency.
func TestQueryCostModelSensitivity(t *testing.T) {
	base, err := AblationQueryScaling([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	_ = base
	// Indirect check through core: double the per-entry cost, latency grows.
	m1, err := core.NewScheme(core.SchemeAdvanced)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := core.NewScheme(core.SchemeAdvanced)
	if err != nil {
		t.Fatal(err)
	}
	m2.Cost.PerEntry *= 10

	lat := func(m core.Maintainer) float64 {
		run, err := buildForwardingWith(m)
		if err != nil {
			t.Fatal(err)
		}
		run.rt.Run()
		out := run.rt.Outputs()[0].Tuple
		var l float64
		m.QueryProvenance(out, [20]byte{}, func(qr core.QueryResult) {
			l = qr.Latency.Seconds()
		})
		run.rt.Run()
		return l
	}
	l1, l2 := lat(m1), lat(m2)
	if l2 <= l1 {
		t.Errorf("10x PerEntry cost did not increase latency: %v vs %v", l1, l2)
	}
}

// buildForwardingWith runs a tiny fixed workload under the given
// maintainer for cost-model tests.
func buildForwardingWith(m core.Maintainer) (*forwardingRun, error) {
	cfg := smallForwarding()
	cfg.Pairs = 1
	cfg.Rate = 1
	cfg.PerPairCount = 1
	cfg.Duration = 0
	run, err := buildForwardingMaint(cfg, m, true)
	return run, err
}
