// Package ring is what is left of the ring all-reduce driver now that
// all-reduce is a mode of package cluster (cluster.Config.AllReduce): a
// shim that keeps bench/'s ring16 workload building, and the tests that pin
// the all-reduce path through it. It goes once bench/ calls cluster.Run
// itself.
package ring

import (
	"p3/internal/cluster"
	"p3/internal/sim"
)

// Config is the cluster Config; Run sets AllReduce.
type Config = cluster.Config

// Result is the cluster Result plus the pure-compute iteration time as
// ComputeIter, the name bench/ reads.
type Result struct {
	cluster.Result
	ComputeIter sim.Time
}

// Run executes cfg under ring all-reduce.
func Run(cfg Config) Result {
	cfg.AllReduce = true
	r := cluster.Run(cfg)
	return Result{r, r.ComputeIterTime}
}
