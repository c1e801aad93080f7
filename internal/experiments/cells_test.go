package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"p3/internal/cluster"
	"p3/internal/faults"
	"p3/internal/ring"
	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/zoo"
)

// mixedCells is one cell of every kind the runner distinguishes, each with a
// machine count of its own so an outcome names the cell it came from. Built
// afresh per run: a Recorder and a fault plan belong to one run.
func mixedCells() []cell {
	m := zoo.ByName("resnet110")
	at := func(c cell, machines int) cell {
		c.Machines = machines
		return c
	}
	ringCell := testbed(m, sliced("p3"), 1.5)
	ringCell.ring = true
	calibrated := testbed(m, sliced("tictac"), 1.5)
	calibrated.calibrated = true
	calibratedRing := calibrated
	calibratedRing.ring = true
	recorded := testbed(m, strategy.P3(0), 1.5)
	recorded.Recorder = trace.NewRecorder(6, 0)
	faulted := testbed(m, sliced("fifo"), 1.5)
	faulted.Faults = &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindStraggler, At: 0, Until: faultHorizonNs, Machine: 1, Factor: 1.5},
	}}
	return []cell{
		at(testbed(m, strategy.Baseline(), 1.5), 2), at(ringCell, 3), at(calibrated, 4),
		at(calibratedRing, 5), at(recorded, 6), at(faulted, 7),
	}
}

// TestRunCellsPoolMatchesSerial runs the mixed list as a plain loop and on a
// four-worker pool: same outcomes, in cell order, everything but the
// stopwatch.
func TestRunCellsPoolMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var runs [2][]outcome
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		runs[i] = runCells(fast, mixedCells())
		for j := range runs[i] {
			if runs[i][j].WallMs <= 0 {
				t.Errorf("GOMAXPROCS=%d cell %d: WallMs %v", procs, j, runs[i][j].WallMs)
			}
			runs[i][j].WallMs = 0
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("pooled outcomes differ from the serial loop's:\n got %+v\nwant %+v", runs[1], runs[0])
	}
	for j, out := range runs[0] {
		if out.Machines != j+2 || out.PerMachine != out.Throughput/float64(j+2) || out.IterMs != out.MeanIterTime.Millis() {
			t.Errorf("outcome %d is not cell %d's: %+v", j, j, out)
		}
	}
	if straggler := runs[0][5]; straggler.FaultsInjected != 1 {
		t.Errorf("fault-plan cell injected %d faults, want 1", straggler.FaultsInjected)
	}
}

// TestRunCellsFillsRunControl pins what only the runner sets: iteration
// counts and seed from Options, Shards on every cluster-path cell — a
// recorded one included, whose series equal the one-shard run's — and the
// second pass of a calibrated cell, on both paths.
func TestRunCellsFillsRunControl(t *testing.T) {
	o := Options{Fast: true, Seed: 1, Shards: 4}
	cells := mixedCells()
	outs := runCells(o, cells)

	warm, measure := o.iters()
	control := func(c cell) cluster.Config {
		cfg := c.Config
		cfg.WarmupIters, cfg.MeasureIters, cfg.Seed = warm, measure, o.Seed+1
		return cfg
	}
	single := control(cells[4])
	single.Recorder = trace.NewRecorder(6, 0)
	if want := cluster.Run(single); !reflect.DeepEqual(outs[4].Result, want) {
		t.Errorf("recorded cell at Shards: 4 differs from a direct single-shard run:\n got %+v\nwant %+v", outs[4].Result, want)
	}
	for m := 0; m < 6; m++ {
		got, want := cells[4].Recorder.Gbps(m, trace.Out), single.Recorder.Gbps(m, trace.Out)
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("recorded cell at Shards: 4, machine %d: %d outbound buckets differ from the single-shard run's %d", m, len(got), len(want))
		}
	}
	if want := cluster.Run(control(cells[0])); !reflect.DeepEqual(outs[0].Result, want) {
		t.Errorf("sharded cell differs from a direct single-shard run:\n got %+v\nwant %+v", outs[0].Result, want)
	}
	if _, want := cluster.RunCalibrated(control(cells[2])); !reflect.DeepEqual(outs[2].Result, want) {
		t.Errorf("calibrated cell is not RunCalibrated's second pass:\n got %+v\nwant %+v", outs[2].Result, want)
	}
	cfg := control(cells[3])
	_, want := ring.RunCalibrated(ring.Config{
		Model: cfg.Model, Machines: cfg.Machines, Strategy: cfg.Strategy, BandwidthGbps: cfg.BandwidthGbps,
		WarmupIters: warm, MeasureIters: measure, Seed: cfg.Seed,
	})
	got := outs[3]
	if got.Throughput != want.Throughput || got.MeanIterTime != want.MeanIterTime || got.Events != want.Events ||
		got.Msgs != want.Msgs || !reflect.DeepEqual(got.LayerStalls, want.LayerStalls) {
		t.Errorf("calibrated ring cell is not ring.RunCalibrated's second pass:\n got %+v\nwant %+v", got.Result, want)
	}
}

func TestRunCellsEmpty(t *testing.T) {
	if outs := runCells(fast, nil); outs == nil || len(outs) != 0 {
		t.Fatalf("runCells(nil) = %#v, want an empty slice", outs)
	}
}
