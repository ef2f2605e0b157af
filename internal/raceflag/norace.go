//go:build !race

// Package raceflag tells tests whether the race detector is compiled in.
// Allocation budgets (testing.AllocsPerRun) are only meaningful without it:
// the detector allocates shadow state and randomly drops sync.Pool items,
// so those tests skip when Enabled is true and `make allocs` runs them
// race-free.
package raceflag

// Enabled reports that this binary was built with the race detector.
const Enabled = false
