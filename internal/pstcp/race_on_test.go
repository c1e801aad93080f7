//go:build race

package pstcp

// raceEnabled reports whether the race detector instruments this build: it
// changes allocation counts, so the allocation pins skip their thresholds.
const raceEnabled = true
