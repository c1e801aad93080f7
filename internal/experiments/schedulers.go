package experiments

import (
	"fmt"

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

// SchedulerRow is one (model, path, discipline, preemption) cell of the
// scheduler ablation.
type SchedulerRow struct {
	Model         string
	BandwidthGbps float64
	// Path is the aggregation path: "cluster" (parameter server) or "ring"
	// (all-reduce).
	Path  string
	Sched string
	// Preempt is the egress preemption quantum in wire bytes (0 = off:
	// an in-flight message always finishes — the paper's semantics).
	// Non-zero rows model true sub-message preemption, the upper bound
	// that parameter slicing approximates. Preemption is inert by
	// construction for fifo (nothing is ever more urgent) and rr (stride
	// rank is a dispatch position, not urgency), so those rows pin the
	// segmented path's bit-parity instead of measuring a policy.
	Preempt int64
	// PerMachine is the per-machine training throughput (samples/sec).
	PerMachine float64
	// IterMs is the mean iteration makespan in milliseconds.
	IterMs float64
	// TTCSpeedup is the time-to-convergence speedup over non-preemptive
	// fifo on the same path. Synchronous SGD's convergence trajectory is
	// identical under every discipline (the wire order changes, the math
	// does not), so time-to-convergence scales exactly with iteration
	// time: fifo_iter / sched_iter.
	TTCSpeedup float64
}

// schedCases returns the (model, bandwidth) grid of the ablation: each
// sweep model at its paper-headline bandwidth, plus every zoo model at the
// 1.5 Gbps bottleneck where ordering (and preemption) dominates. Fast mode
// trims the low-bandwidth axis to the cheapest model.
func schedCases(o Options) []struct {
	model string
	gbps  float64
} {
	cases := []struct {
		model string
		gbps  float64
	}{
		{"resnet50", 4},
		{"vgg19", 15},
		{"sockeye", 4},
	}
	if o.Fast {
		return append(cases, struct {
			model string
			gbps  float64
		}{"resnet110", 1.5})
	}
	for _, m := range []string{"resnet50", "inception3", "vgg19", "sockeye", "resnet110"} {
		cases = append(cases, struct {
			model string
			gbps  float64
		}{m, 1.5})
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
// Sched name and the network's preemption quantum.
func SchedulerAblation(o Options) []SchedulerRow {
	var rows []SchedulerRow
	var cells []cell
	for _, c := range schedCases(o) {
		m := zoo.ByName(c.model)
		for _, path := range []string{PathCluster, PathRing} {
			for _, name := range SchedDisciplines() {
				for _, preempt := range []int64{0, netsim.DefaultPreemptQuantum} {
					rows = append(rows, SchedulerRow{
						Model: c.model, BandwidthGbps: c.gbps, Path: path, Sched: name, Preempt: preempt,
					})
					cl := testbed(m, sliced(name), c.gbps)
					cl.PreemptQuantum = preempt
					cl.ring = path == PathRing
					cells = append(cells, cl)
				}
			}
		}
	}
	for i, out := range runCells(o, cells) {
		rows[i].PerMachine, rows[i].IterMs = out.PerMachine, out.IterMs
	}
	// Resolve TTCSpeedup against each (model, bandwidth, path) group's
	// non-preemptive fifo row (a model appears at several bandwidths): the
	// fifo cell doubles as its group's reference, so this is a serial second
	// pass over the outcomes.
	type group struct {
		model string
		gbps  float64
		path  string
	}
	fifoIter := make(map[group]float64)
	for i := range rows {
		if rows[i].Sched == "fifo" && rows[i].Preempt == 0 {
			fifoIter[group{rows[i].Model, rows[i].BandwidthGbps, rows[i].Path}] = rows[i].IterMs
		}
	}
	for i := range rows {
		rows[i].TTCSpeedup = fifoIter[group{rows[i].Model, rows[i].BandwidthGbps, rows[i].Path}] / rows[i].IterMs
	}
	return rows
}

// SchedulerTable renders the ablation, one line per (model, path,
// discipline, preemption) cell.
func SchedulerTable(rows []SchedulerRow) string {
	out := "model\tGbps\tpath\tsched\tpreempt\tsamples/s/machine\titer_ms\tttc_speedup_vs_fifo\n"
	for _, r := range rows {
		preempt := "off"
		if r.Preempt > 0 {
			preempt = fmt.Sprintf("%dKiB", r.Preempt>>10)
		}
		out += fmt.Sprintf("%s\t%g\t%s\t%s\t%s\t%.1f\t%.2f\t%.3fx\n",
			r.Model, r.BandwidthGbps, r.Path, r.Sched, preempt, r.PerMachine, r.IterMs, r.TTCSpeedup)
	}
	return out
}
