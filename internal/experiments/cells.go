package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"p3/internal/cluster"
	"p3/internal/model"
	"p3/internal/ring"
	"p3/internal/strategy"
)

// cell is one simulated configuration of a sweep: a cluster.Config carrying
// only what varies between the sweep's cells. The run control — WarmupIters,
// MeasureIters, Seed, Shards — is runCells' to fill from Options.
type cell struct {
	cluster.Config
	// ring runs the cell on ring all-reduce instead of the parameter server,
	// with the fields the two Configs share (a ring has no servers, shards or
	// topology).
	ring bool
	// calibrated runs the two-pass calibrated mode and keeps its second pass.
	calibrated bool
	// tag names a swept axis that is not a config field: Rack's server
	// placement, Faults' scenario.
	tag string
}

// testbed is a cell on the paper's four-machine cluster.
func testbed(m *model.Model, s strategy.Strategy, gbps float64) cell {
	return cell{Config: cluster.Config{Model: m, Machines: 4, Strategy: s, BandwidthGbps: gbps}}
}

// under returns base running under the named queue discipline, renamed
// "<label>+<disc>". It panics on a name the sched registry does not hold.
func under(base strategy.Strategy, label, disc string) strategy.Strategy {
	st, err := base.WithSched(disc)
	if err != nil {
		panic(err)
	}
	st.Name = label + "+" + disc
	return st
}

// sliced is the sliced, immediate-broadcast strategy under the named
// discipline, so that ordering is the only variable of a discipline axis.
func sliced(disc string) strategy.Strategy {
	return under(strategy.SlicingOnly(0), "sliced", disc)
}

// outcome is what one cell produced: the run's Result — on the ring path the
// fields the two Results share — and the projections the tables start from.
type outcome struct {
	cluster.Result
	// PerMachine is per-machine training throughput (samples/sec), IterMs
	// the mean iteration makespan in milliseconds.
	PerMachine float64
	IterMs     float64
	// WallMs is the wall-clock cost of simulating the cell, measured while
	// the pool's other cells share the machine, so on a multi-core runner it
	// is an upper bound on the cell's serial cost; a calibrated cell pays for
	// both of its passes. Serial costs are what `go run ./bench` measures,
	// one cell at a time.
	WallMs float64
}

// Row is one cell of a sweep together with what it produced. The fields
// the Config and the Result both carry (Model, Machines, Strategy,
// BandwidthGbps) are read as r.Config.X or r.Result.X.
type Row struct {
	cell
	outcome
}

// Table is a sweep's result: one Row per cell, printed through the sweep's
// columns.
type Table struct {
	Rows []Row
	cols []column[Row]
}

// TSV renders the table, one line per cell.
func (t *Table) TSV() string { return tsv(t.cols, t.Rows) }

// runTable runs the cells and pairs each with its outcome.
func runTable(o Options, cells []cell, cols []column[Row]) *Table {
	t := &Table{Rows: make([]Row, len(cells)), cols: cols}
	for i, out := range runCells(o, cells) {
		t.Rows[i] = Row{cells[i], out}
	}
	return t
}

// Columns more than one sweep prints.
var (
	colModel      = column[Row]{"model", "%s", func(r Row) any { return r.Config.Model.Name }}
	colMachines   = column[Row]{"machines", "%d", func(r Row) any { return r.Config.Machines }}
	colRack       = column[Row]{"rack", "%d", func(r Row) any { return r.Topology.RackSize }}
	colPath       = column[Row]{"path", "%s", func(r Row) any { return r.path() }}
	colSched      = column[Row]{"sched", "%s", func(r Row) any { return r.Config.Strategy.Sched }}
	colPerMachine = column[Row]{"samples/s/machine", "%.1f", func(r Row) any { return r.PerMachine }}
	colIterMs     = column[Row]{"iter_ms", "%.2f", func(r Row) any { return r.IterMs }}
	colEvents     = column[Row]{"events", "%d", func(r Row) any { return r.Events }}
	colWall       = column[Row]{"sim_wall_ms", "%.1f", func(r Row) any { return r.WallMs }}
)

// path names the cell's aggregation path.
func (c cell) path() string {
	if c.ring {
		return PathRing
	}
	return PathCluster
}

// run executes the cell as configured.
func (c cell) run() cluster.Result {
	if !c.ring {
		if c.calibrated {
			_, r := cluster.RunCalibrated(c.Config)
			return r
		}
		return cluster.Run(c.Config)
	}
	rc := ring.Config{
		Model: c.Model, Machines: c.Machines, Strategy: c.Strategy,
		BandwidthGbps: c.BandwidthGbps, PreemptQuantum: c.PreemptQuantum, Profile: c.Profile,
		WarmupIters: c.WarmupIters, MeasureIters: c.MeasureIters, Seed: c.Seed,
		Recorder: c.Recorder,
	}
	var r ring.Result
	if c.calibrated {
		_, r = ring.RunCalibrated(rc)
	} else {
		r = ring.Run(rc)
	}
	return cluster.Result{
		Model: r.Model, Strategy: r.Strategy, Machines: r.Machines, BandwidthGbps: r.BandwidthGbps,
		Throughput: r.Throughput, MeanIterTime: r.MeanIterTime, ComputeIterTime: r.ComputeIter,
		MeasuredIters: r.MeasuredIters, LayerStalls: r.LayerStalls, Events: r.Events, Msgs: r.Msgs,
	}
}

// runCells runs every cell and returns the outcomes in cell order: the one
// place above cluster.Run and ring.Run where a simulation is started. Each
// cell is a pure function of its config (own engine, own network, own
// discipline instances; nothing writes a *model.Model during a run, so cells
// may share one), so the pool's outputs — and with them every table and
// golden — are bit-identical to a serial sweep. Work is handed out by an
// atomic counter rather than pre-sliced ranges because cell costs vary wildly
// (a 64-machine cell costs ~100x a 4-machine one); the counter keeps every
// core busy until the tail. At one worker (GOMAXPROCS=1, or a single cell) it
// is a plain loop with no goroutines, so serial debugging and deterministic
// profiling stay trivial.
func runCells(o Options, cells []cell) []outcome {
	warm, measure := o.iters()
	out := make([]outcome, len(cells))
	runOne := func(i int) {
		c := cells[i]
		c.WarmupIters, c.MeasureIters, c.Seed, c.Shards = warm, measure, o.Seed+1, o.Shards
		//p3:wallclock-ok WallMs reports real simulator throughput
		t0 := time.Now()
		r := c.run()
		//p3:wallclock-ok WallMs reports real simulator throughput
		wall := time.Since(t0)
		out[i] = outcome{
			Result:     r,
			PerMachine: r.Throughput / float64(r.Machines),
			IterMs:     r.MeanIterTime.Millis(),
			WallMs:     float64(wall.Microseconds()) / 1000,
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(cells))
	if workers <= 1 {
		for i := range cells {
			runOne(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	return out
}
