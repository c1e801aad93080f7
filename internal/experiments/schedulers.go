package experiments

import (
	"fmt"

	"p3/internal/cluster"
	"p3/internal/netsim"
	"p3/internal/sched"
	"p3/internal/strategy"
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
	warm, measure := o.iters()
	// Flatten the sweep into independent cells first, then fill every cell
	// on the parEach worker pool: each cell is one pure simulation, so the
	// table comes out bit-identical to the serial sweep, only bounded by
	// the slowest core instead of the sum of all cells. The non-preemptive
	// fifo cell doubles as the TTCSpeedup reference of its (model, path)
	// group, resolved in a serial pass after the measurements land.
	type cell struct {
		model   string
		gbps    float64
		path    string
		sched   string
		preempt int64
	}
	var cells []cell
	for _, c := range schedCases(o) {
		for _, path := range []string{PathCluster, PathRing} {
			for _, name := range SchedDisciplines() {
				for _, preempt := range []int64{0, netsim.DefaultPreemptQuantum} {
					cells = append(cells, cell{c.model, c.gbps, path, name, preempt})
				}
			}
		}
	}
	rows := make([]SchedulerRow, len(cells))
	parEach(len(cells), func(i int) {
		c := cells[i]
		st, err := strategy.SlicingOnly(0).WithSched(c.sched)
		if err != nil {
			panic(err) // SchedDisciplines() only holds registered names
		}
		st.Name = "sliced+" + c.sched
		m := zoo.ByName(c.model) // fresh model per cell: nothing shared across goroutines
		row := SchedulerRow{
			Model:         c.model,
			BandwidthGbps: c.gbps,
			Path:          c.path,
			Sched:         c.sched,
			Preempt:       c.preempt,
		}
		row.PerMachine, row.IterMs, _ = runPath(c.path, cluster.Config{
			Model: m, Machines: 4, Strategy: st, BandwidthGbps: c.gbps,
			PreemptQuantum: c.preempt,
			WarmupIters:    warm, MeasureIters: measure, Seed: o.Seed + 1,
		}, false)
		rows[i] = row
	})
	// Resolve TTCSpeedup against each (model, bandwidth, path) group's
	// non-preemptive fifo row (a model appears at several bandwidths).
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
