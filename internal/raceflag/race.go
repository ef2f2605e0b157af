//go:build race

package raceflag

// Enabled reports that this binary was built with the race detector.
const Enabled = true
