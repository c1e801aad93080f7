//go:build race

package transport

// raceEnabled reports whether the race detector instruments this build: it
// changes allocation counts, so the allocation pins skip their thresholds.
const raceEnabled = true
