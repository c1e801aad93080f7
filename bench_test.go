// Root benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation (cmd/p3bench's header lists them). Each benchmark runs a
// representative configuration of its experiment; the cmd/p3bench tool runs
// the full sweeps and prints the series.
//
//	go test -bench=. -benchmem
package p3_test

import (
	"runtime"
	"testing"
	"time"

	"p3/internal/benchmarks"
	"p3/internal/cluster"
	"p3/internal/data"
	"p3/internal/experiments"
	"p3/internal/nn"
	"p3/internal/opt"
	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/train"
	"p3/internal/zoo"
)

// BenchmarkDispatch runs the shared dispatch microbenchmark suite
// (internal/benchmarks): the same code `p3bench bench` renders and the CI
// regression gate measures against ci/bench_baseline.json, so `go test
// -bench Dispatch` and the gate can never drift apart.
func BenchmarkDispatch(b *testing.B) {
	for _, n := range benchmarks.Dispatch() {
		b.Run(n.Name, n.Bench)
	}
}

// runSim is one simulated configuration with test-friendly iteration counts.
func runSim(b *testing.B, model string, s strategy.Strategy, machines int, gbps float64, rec *trace.Recorder) cluster.Result {
	b.Helper()
	return cluster.Run(cluster.Config{
		Model: zoo.ByName(model), Machines: machines, Strategy: s,
		BandwidthGbps: gbps, WarmupIters: 1, MeasureIters: 3, Seed: 1, Recorder: rec,
	})
}

// BenchmarkFig5ModelZoo builds all four model tables (Figure 5's data).
func BenchmarkFig5ModelZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range zoo.All() {
			if m.TotalParams() == 0 {
				b.Fatal("empty model")
			}
		}
	}
}

// Figure 7: bandwidth vs throughput, one benchmark per sub-figure at the
// bandwidth the paper quotes its headline speedup for.
func BenchmarkFig7aResNet50Baseline4G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "resnet50", strategy.Baseline(), 4, 4, nil)
	}
}

func BenchmarkFig7aResNet50P3_4G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "resnet50", strategy.P3(0), 4, 4, nil)
	}
}

func BenchmarkFig7bInception3P3_4G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "inception3", strategy.P3(0), 4, 4, nil)
	}
}

func BenchmarkFig7cVGG19Baseline15G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "vgg19", strategy.Baseline(), 4, 15, nil)
	}
}

func BenchmarkFig7cVGG19P3_15G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "vgg19", strategy.P3(0), 4, 15, nil)
	}
}

func BenchmarkFig7cVGG19Slicing30G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "vgg19", strategy.SlicingOnly(0), 4, 30, nil)
	}
}

func BenchmarkFig7dSockeyeP3_4G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "sockeye", strategy.P3(0), 4, 4, nil)
	}
}

// Figures 8/9: network-utilization traces (recorder attached).
func BenchmarkFig8NetworkUtilBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder(4, 0)
		runSim(b, "resnet50", strategy.Baseline(), 4, 4, rec)
	}
}

func BenchmarkFig9NetworkUtilP3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder(4, 0)
		runSim(b, "resnet50", strategy.P3(0), 4, 4, rec)
	}
}

// Figure 10: scalability (8-machine point at 10 Gbps).
func BenchmarkFig10aResNet50Scale8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "resnet50", strategy.P3(0), 8, 10, nil)
	}
}

func BenchmarkFig10bVGG19Scale8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "vgg19", strategy.P3(0), 8, 10, nil)
	}
}

func BenchmarkFig10cSockeyeScale16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "sockeye", strategy.P3(0), 16, 10, nil)
	}
}

// Figure 11: one P3-vs-DGC convergence epoch at test scale.
func BenchmarkFig11ConvergenceP3vsDGC(b *testing.B) {
	set := data.Generate(data.Config{Samples: 480, Features: 16, Classes: 4, Noise: 1.2, Seed: 5})
	tr, val := set.Split(0.25)
	cfg := train.Config{
		Net:     nn.Config{In: 16, Width: 24, Classes: 4, Blocks: 2, Seed: 9},
		Workers: 4, Batch: 8, Epochs: 1,
		Schedule: opt.ConstSchedule(0.05), Momentum: 0.9, ClipNorm: 2, Seed: 31,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Mode = train.Dense
		train.Run(cfg, tr, val)
		cfg.Mode = train.DGC
		cfg.DGCSparsity = 0.99
		train.Run(cfg, tr, val)
	}
}

// Figure 12: slice-size sweep endpoints and the paper's 50k optimum.
func BenchmarkFig12Slice1k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "resnet50", strategy.P3(1000), 4, 4, nil)
	}
}

func BenchmarkFig12Slice50k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "resnet50", strategy.P3(50_000), 4, 4, nil)
	}
}

func BenchmarkFig12Slice1M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "resnet50", strategy.P3(1_000_000), 4, 4, nil)
	}
}

// Figure 13: TensorFlow-style synchronization.
func BenchmarkFig13TensorFlowUtil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder(4, 0)
		runSim(b, "resnet50", strategy.TFStyle(), 4, 4, rec)
	}
}

// Figure 14: Poseidon-style WFBP.
func BenchmarkFig14PoseidonUtil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder(4, 0)
		runSim(b, "inception3", strategy.WFBP(), 4, 1, rec)
	}
}

// Figure 15: ASGD vs P3 — the simulated iteration-time half of the figure.
func BenchmarkFig15ASGDvsP3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "resnet110", strategy.P3(0), 4, 1, nil)
		runSim(b, "resnet110", strategy.ASGDStrategy(), 4, 1, nil)
	}
}

// Scale axis (beyond the paper): the 64-machine comm-bound configuration
// that the O(log F) dispatch rewrite made practical — every egress queue
// holds one flow per peer, and event volume grows ~N^2.
func BenchmarkScale64Machines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "resnet50", strategy.P3(0), 64, 1.5, nil)
	}
}

// runSimShards is runSim on the conservative-lookahead sharded engine.
func runSimShards(b *testing.B, model string, s strategy.Strategy, machines, shards int, gbps float64) cluster.Result {
	b.Helper()
	return cluster.Run(cluster.Config{
		Model: zoo.ByName(model), Machines: machines, Strategy: s,
		BandwidthGbps: gbps, WarmupIters: 1, MeasureIters: 3, Seed: 1,
		Shards: shards,
	})
}

// BenchmarkScale256 is the 256-machine cell the sharded engine brought in
// reach: same comm-bound configuration as Scale64, four times as wide.
func BenchmarkScale256(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSim(b, "resnet50", strategy.P3(0), 256, 1.5, nil)
	}
}

// BenchmarkScale64Shards8 is Scale64 on the parallel executor. Its Result
// is bit-identical to the single-shard run (the conservative-lookahead
// determinism contract); the wall-clock ratio against BenchmarkScale64-
// Machines is the sharding speedup on the machine at hand.
func BenchmarkScale64Shards8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSimShards(b, "resnet50", strategy.P3(0), 64, 8, 1.5)
	}
}

// TestShardSpeedup64 pins that sharding actually pays at scale: on a host
// with enough cores the 64-machine cell at -shards=8 must finish at least
// 2.5x faster than the single-shard run. Gated on NumCPU so single-core CI
// runners (where the window machinery can only add overhead) skip rather
// than flake; the bit-equality property is pinned separately in
// internal/cluster regardless of core count.
func TestShardSpeedup64(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement in -short mode")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("need >= 8 CPUs for a meaningful 8-shard speedup, have %d", runtime.NumCPU())
	}
	run := func(shards int) time.Duration {
		cfg := cluster.Config{
			Model: zoo.ByName("resnet50"), Machines: 64, Strategy: strategy.P3(0),
			BandwidthGbps: 1.5, WarmupIters: 1, MeasureIters: 3, Seed: 1,
			Shards: shards,
		}
		best := time.Duration(0)
		for rep := 0; rep < 2; rep++ { // best of two: load spikes only slow a run down
			t0 := time.Now()
			cluster.Run(cfg)
			if d := time.Since(t0); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}
	single := run(0)
	sharded := run(8)
	speedup := float64(single) / float64(sharded)
	t.Logf("64 machines: single %v, 8 shards %v, speedup %.2fx", single, sharded, speedup)
	if speedup < 2.5 {
		t.Errorf("8-shard speedup %.2fx < 2.5x (single %v, sharded %v)", speedup, single, sharded)
	}
}

// BenchmarkScale256Shards8Credit is the 256-machine credit cell on the
// parallel executor — the cell the window-relaxed refund protocol moved
// off the one-shard sim.Engine (credit-gated egress historically forced
// shards=1, so this cell used to run single-core while every ungated
// discipline fanned out).
func BenchmarkScale256Shards8Credit(b *testing.B) {
	st, err := strategy.SlicingOnly(0).WithSched("credit")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		runSimShards(b, "resnet50", st, 256, 8, 1.5)
	}
}

// TestShardSpeedupCredit256 pins the wall-clock payoff of the
// window-relaxed credit protocol: the 256-machine credit sweep cell —
// which the shards=1 rejection used to pin to one core — must finish at
// least 2.5x faster at -shards=8 than single-shard, on a host with
// enough cores. Same gating and best-of-two discipline as
// TestShardSpeedup64; bit-equality of the sharded credit run is pinned
// separately by internal/cluster's TestShardedGatedMatchesSingle
// regardless of core count.
func TestShardSpeedupCredit256(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement in -short mode")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("need >= 8 CPUs for a meaningful 8-shard speedup, have %d", runtime.NumCPU())
	}
	st, err := strategy.SlicingOnly(0).WithSched("credit")
	if err != nil {
		t.Fatal(err)
	}
	st.Name = "sliced+credit"
	run := func(shards int) time.Duration {
		cfg := cluster.Config{
			Model: zoo.ByName("resnet50"), Machines: 256, Strategy: st,
			BandwidthGbps: 1.5, WarmupIters: 1, MeasureIters: 2, Seed: 1,
			Shards: shards,
		}
		best := time.Duration(0)
		for rep := 0; rep < 2; rep++ { // best of two: load spikes only slow a run down
			t0 := time.Now()
			cluster.Run(cfg)
			if d := time.Since(t0); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}
	single := run(0)
	sharded := run(8)
	speedup := float64(single) / float64(sharded)
	t.Logf("256 machines, credit: single %v, 8 shards %v, speedup %.2fx", single, sharded, speedup)
	if speedup < 2.5 {
		t.Errorf("8-shard credit speedup %.2fx < 2.5x (single %v, sharded %v)", speedup, single, sharded)
	}
}

// BenchmarkHeadline regenerates the Section 5.3 summary table.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Headline(experiments.Options{Fast: true, Seed: 1})
		if len(rows) != 4 {
			b.Fatal("headline incomplete")
		}
	}
}
