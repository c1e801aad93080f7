package experiments

import (
	"fmt"
	"slices"

	"p3/internal/netsim"
	"p3/internal/sched"
	"p3/internal/zoo"
)

// SchedDisciplines returns the discipline sweep of the scheduler ablation:
// every name in the sched registry (fifo, p3, rr, smallest, credit, tictac,
// credit-adaptive, ...), applied to the same sliced/immediate-broadcast
// strategy so ordering is the only variable.
func SchedDisciplines() []string { return sched.Names() }

// Aggregation paths the ablation sweeps: the parameter-server cluster
// simulator and the ring all-reduce simulator.
const (
	PathCluster = "cluster"
	PathRing    = "ring"
)

// schedCases returns the (model, bandwidth) grid of the ablation: each
// sweep model at its paper-headline bandwidth, plus every zoo model at the
// 1.5 Gbps bottleneck where ordering (and preemption) dominates. Fast mode
// trims the low-bandwidth axis to the cheapest model.
func schedCases(o Options) []modelAt {
	cases := slices.Clone(paperPoints)
	if o.Fast {
		return append(cases, modelAt{"resnet110", 1.5})
	}
	for _, m := range []string{"resnet50", "inception3", "vgg19", "sockeye", "resnet110"} {
		cases = append(cases, modelAt{m, 1.5})
	}
	return cases
}

// SchedulerAblation compares every registered queue discipline on the zoo
// models, on both aggregation paths and with egress preemption off and on —
// the payoff of extracting internal/sched: the paper's p3-vs-fifo
// comparison becomes one row pair in a sweep that also covers round-robin
// fairness, shortest-job-first, ByteScheduler-style credit windows, TicTac
// critical-path ranking, per-destination adaptive credit, and the
// true-preemption upper bound (netsim.DefaultPreemptQuantum segments) that
// parameter slicing approximates, with no changes outside the strategy's
// Sched name and the network's preemption quantum. Preemption is inert by
// construction for fifo (nothing is ever more urgent) and rr (stride rank
// is a dispatch position, not urgency), so those rows pin the segmented
// path's bit-parity instead of measuring a policy.
//
// ttc_speedup_vs_fifo is the time-to-convergence speedup over
// non-preemptive fifo on the same path. Synchronous SGD's convergence
// trajectory is identical under every discipline (the wire order changes,
// the math does not), so time-to-convergence scales exactly with iteration
// time: fifo_iter / sched_iter.
func SchedulerAblation(o Options) *Table {
	var cells []cell
	for _, c := range schedCases(o) {
		m := zoo.ByName(c.model)
		for _, path := range []string{PathCluster, PathRing} {
			for _, name := range SchedDisciplines() {
				for _, preempt := range []int64{0, netsim.DefaultPreemptQuantum} {
					cl := testbed(m, sliced(name), c.gbps)
					cl.PreemptQuantum = preempt
					cl.ring = path == PathRing
					cells = append(cells, cl)
				}
			}
		}
	}
	// Each (model, bandwidth, path) group's non-preemptive fifo cell is its
	// reference (a model appears at several bandwidths), read after the run.
	type group struct {
		model string
		gbps  float64
		path  string
	}
	groupOf := func(r Row) group { return group{r.Config.Model.Name, r.Config.BandwidthGbps, r.path()} }
	fifoIter := make(map[group]float64)
	t := runTable(o, cells, []column[Row]{
		colModel,
		{"Gbps", "%g", func(r Row) any { return r.Config.BandwidthGbps }},
		colPath, colSched,
		{"preempt", "%s", func(r Row) any {
			if r.PreemptQuantum > 0 {
				return fmt.Sprintf("%dKiB", r.PreemptQuantum>>10)
			}
			return "off"
		}},
		colPerMachine, colIterMs,
		{"ttc_speedup_vs_fifo", "%.3fx", func(r Row) any { return fifoIter[groupOf(r)] / r.IterMs }},
	})
	for _, r := range t.Rows {
		if r.Config.Strategy.Sched == "fifo" && r.PreemptQuantum == 0 {
			fifoIter[groupOf(r)] = r.IterMs
		}
	}
	return t
}
