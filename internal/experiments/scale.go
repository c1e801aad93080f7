package experiments

import (
	"fmt"

	"p3/internal/zoo"
)

// ScaleRow is one cell of the cluster-size scale axis: a model at the
// 1.5 Gbps bottleneck bandwidth (where ordering dominates), swept well past
// the paper's 4-16 machines on both aggregation paths. WallMs records the
// simulator's own cost for the cell — the number the dispatch-path
// optimization is accountable to — and Events its discrete-event volume.
type ScaleRow struct {
	Model    string
	Machines int
	// Path is the aggregation path: "cluster" (parameter server) or "ring"
	// (all-reduce).
	Path  string
	Sched string
	// Profile is the timing profile the discipline ranked against:
	// "static" (FLOP-derived), "measured" (the two-pass calibrated mode,
	// rebuilt from the first pass's observed stalls), or "-" for
	// model-blind disciplines.
	Profile string
	// PerMachine is per-machine training throughput (samples/sec); the
	// paper's scalability claim is that it stays flat as machines grow.
	PerMachine float64
	IterMs     float64
	// Events is the discrete-event count of the run; at 64 machines the
	// cluster path multiplies traffic ~250x over 4 machines.
	Events uint64
	// WallMs is the wall-clock cost of simulating the cell (outcome.WallMs).
	WallMs float64
}

// scaleSizes returns the machine-count axis. 64 machines was impractical
// before the O(log F) dispatch rewrite: every egress queue holds one flow
// per peer, so each pop paid a 64-flow linear scan (sorted in full under a
// credit gate), inside simulations whose event volume itself grows ~N^2.
// 256 and 1024 came within reach with the sharded engine: parameter-server
// event volume grows roughly linearly in machines, so the big cells are
// wide rather than deep and the conservative-lookahead shards keep them
// tractable. The ring axis stays capped at 64: every collective is 2(N-1)
// rounds of N transmissions per chunk, ~N^2 events — a 256-machine ring cell
// alone would cost ~16x the whole 64-machine sweep — and its global
// per-collective launch barrier pins it to the single-shard engine besides.
func scaleSizes(path string, fast bool) []int {
	if path == PathRing {
		if fast {
			// The 64-machine ring costs ~40M events per cell; the trimmed
			// sweep keeps CI fast and leaves the full axis to `p3bench
			// scale`.
			return []int{4, 16}
		}
		return []int{4, 16, 64}
	}
	if fast {
		return []int{4, 64}
	}
	return []int{4, 16, 64, 256, 1024}
}

// scaleVariant is one scheduling variant of the scale sweep.
type scaleVariant struct {
	sched      string
	calibrated bool
}

// scaleVariants returns the discipline axis: the original fifo-vs-p3 pair,
// the damped wrapper that fixes the 64-machine p3-vs-fifo inversion, tictac
// under both the static and the measured (two-pass calibrated) profile, and
// the damped+calibrated composition. The last two pin the sweep's second
// finding: at 64 machines stall feedback under STRICT priority diverges
// (stretching a starved layer's deadline makes it still less urgent — the
// feedback chases its own tail), while under the damped rank, which bounds
// any class's deferral, the same feedback converges and beats fifo.
func scaleVariants() []scaleVariant {
	return []scaleVariant{
		{sched: "fifo"},
		{sched: "p3"},
		{sched: "damped"},
		{sched: "tictac"},
		{sched: "tictac", calibrated: true},
		{sched: "damped:tictac", calibrated: true},
	}
}

// Scale sweeps cluster sizes past the paper's testbed (Figure 10 stops at
// 16 machines): the sliced strategy under fifo, p3, damped-p3 and
// static/calibrated tictac ordering, parameter server and ring all-reduce,
// at the bottleneck bandwidth. The damped and calibrated columns pin the
// 64-machine result: strict p3 inverts against fifo at high fan-in, the
// damped rank does not.
func Scale(o Options) []ScaleRow {
	const name = "resnet50"
	m := zoo.ByName(name)
	var rows []ScaleRow
	var cells []cell
	for _, path := range []string{PathCluster, PathRing} {
		for _, n := range scaleSizes(path, o.Fast) {
			for _, v := range scaleVariants() {
				if n > 64 && v.calibrated {
					// The calibrated variants pay for two full passes per
					// cell; past 64 machines the sweep keeps the
					// single-pass fifo/p3/damped/tictac axis.
					continue
				}
				row := ScaleRow{Model: name, Machines: n, Path: path, Sched: v.sched, Profile: "-"}
				switch {
				case v.calibrated:
					row.Profile = "measured"
				case v.sched == "tictac":
					row.Profile = "static"
				}
				rows = append(rows, row)
				c := testbed(m, sliced(v.sched), 1.5)
				c.Machines, c.ring, c.calibrated = n, path == PathRing, v.calibrated
				cells = append(cells, c)
			}
		}
	}
	for i, out := range runCells(o, cells) {
		rows[i].PerMachine, rows[i].IterMs, rows[i].Events, rows[i].WallMs = out.PerMachine, out.IterMs, out.Events, out.WallMs
	}
	return rows
}

// ScaleTable renders the scale axis, one line per (path, machines, sched,
// profile).
func ScaleTable(rows []ScaleRow) string {
	out := "model\tpath\tmachines\tsched\tprofile\tsamples/s/machine\titer_ms\tevents\tsim_wall_ms\n"
	for _, r := range rows {
		out += fmt.Sprintf("%s\t%s\t%d\t%s\t%s\t%.1f\t%.2f\t%d\t%.1f\n",
			r.Model, r.Path, r.Machines, r.Sched, r.Profile, r.PerMachine, r.IterMs, r.Events, r.WallMs)
	}
	return out
}
