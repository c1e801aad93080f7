//go:build race

package main

// raceEnabled reports whether the race detector instruments this build; the
// smoke test then leaves out the cells that are an order of magnitude
// slower under it.
const raceEnabled = true
