//go:build !race

package pstcp

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
