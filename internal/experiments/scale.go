package experiments

import "p3/internal/zoo"

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
// at the 1.5 Gbps bottleneck bandwidth, where ordering dominates. The
// paper's scalability claim is that per-machine throughput stays flat as
// machines grow. The damped and calibrated columns pin the 64-machine
// result: strict p3 inverts against fifo at high fan-in, the damped rank
// does not. The profile column names what a discipline ranked against:
// "static" (FLOP-derived), "measured" (the two-pass calibrated mode,
// rebuilt from the first pass's observed stalls), or "-" for model-blind
// disciplines. events and sim_wall_ms are the simulator's own cost per cell.
func Scale(o Options) *Table {
	m := zoo.ByName("resnet50")
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
				c := testbed(m, sliced(v.sched), 1.5)
				c.Machines, c.ring, c.calibrated = n, path == PathRing, v.calibrated
				cells = append(cells, c)
			}
		}
	}
	return runTable(o, cells, []column[Row]{
		colModel, colPath, colMachines, colSched,
		{"profile", "%s", func(r Row) any {
			switch {
			case r.calibrated:
				return "measured"
			case r.Config.Strategy.Sched == "tictac":
				return "static"
			}
			return "-"
		}},
		colPerMachine, colIterMs, colEvents, colWall,
	})
}
