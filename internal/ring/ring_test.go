package ring

import (
	"slices"
	"testing"

	"p3/internal/cluster"
	"p3/internal/model"
	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/zoo"
)

func smallModel() *model.Model {
	m := &model.Model{Name: "small", BatchSize: 8, SampleUnit: "images",
		PlateauPerWorker: 100, FwdFraction: 1.0 / 3.0}
	sizes := []int64{200_000, 60_000, 1_200_000, 400_000, 2_000_000}
	for i, s := range sizes {
		m.Layers = append(m.Layers, model.Layer{
			Index: i, Name: string(rune('a' + i)), Kind: model.KindConv,
			Params: s, FwdFLOPs: s * 10,
		})
	}
	return m
}

func cfg(s strategy.Strategy, gbps float64, machines int) Config {
	return Config{
		Model: smallModel(), Machines: machines, Strategy: s,
		BandwidthGbps: gbps, WarmupIters: 1, MeasureIters: 3, Seed: 1,
	}
}

var (
	arLayer  = strategy.Strategy{Name: "ar-layer", Granularity: strategy.Shards, Sched: "fifo"}
	arSliced = strategy.Strategy{Name: "ar-sliced", Granularity: strategy.Slices, Sched: "fifo"}
	arP3     = strategy.Strategy{Name: "ar-p3", Granularity: strategy.Slices, Sched: "p3"}
)

func TestRunCompletes(t *testing.T) {
	for _, s := range []strategy.Strategy{arLayer, arSliced, arP3} {
		r := Run(cfg(s, 5, 4))
		if r.Throughput <= 0 {
			t.Fatalf("%s: throughput %v", s.Name, r.Throughput)
		}
		if r.MeanIterTime < r.ComputeIter {
			t.Fatalf("%s: iteration %v faster than compute %v", s.Name, r.MeanIterTime, r.ComputeIter)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Run(cfg(arP3, 5, 4))
	b := Run(cfg(arP3, 5, 4))
	if a.Throughput != b.Throughput {
		t.Fatalf("nondeterministic: %v vs %v", a.Throughput, b.Throughput)
	}
}

// TestPriorityHelpsUnderConstraint mirrors the paper's main claim on the
// all-reduce substrate: sliced+priority must beat layer-granularity FIFO at
// low bandwidth.
func TestPriorityHelpsUnderConstraint(t *testing.T) {
	layer := Run(cfg(arLayer, 3, 4))
	p3 := Run(cfg(arP3, 3, 4))
	if p3.Throughput <= layer.Throughput {
		t.Fatalf("ar-p3 (%v) not above ar-layer (%v) at 3 Gbps", p3.Throughput, layer.Throughput)
	}
}

func TestComputeBoundAtHighBandwidth(t *testing.T) {
	m := smallModel()
	r := Run(Config{Model: m, Machines: 4, Strategy: arP3, BandwidthGbps: 200,
		WarmupIters: 1, MeasureIters: 3, Seed: 1})
	perWorker := r.Throughput / 4
	if perWorker < m.PlateauPerWorker*0.95 {
		t.Fatalf("per-worker %v below plateau %v at 200 Gbps", perWorker, m.PlateauPerWorker)
	}
}

func TestThroughputMonotoneInBandwidth(t *testing.T) {
	prev := 0.0
	for _, bw := range []float64{1, 2, 4, 8} {
		r := Run(cfg(arP3, bw, 4))
		if r.Throughput < prev*0.995 {
			t.Fatalf("throughput fell at %v Gbps", bw)
		}
		prev = r.Throughput
	}
}

func TestDifferentRingSizes(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		r := Run(cfg(arP3, 10, n))
		if r.Throughput <= 0 {
			t.Fatalf("n=%d: throughput %v", n, r.Throughput)
		}
		if r.Machines != n {
			t.Fatalf("n=%d: result says %d machines", n, r.Machines)
		}
	}
}

func TestSingleMachinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1-machine ring accepted")
		}
	}()
	Run(cfg(arP3, 10, 1))
}

func TestInvalidModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid model accepted")
		}
	}()
	Run(Config{Model: &model.Model{Name: "bad"}, Machines: 4, Strategy: arP3, BandwidthGbps: 1})
}

// TestRealModel exercises a zoo model end to end on the ring.
func TestRealModel(t *testing.T) {
	r := Run(Config{Model: zoo.ResNet50(), Machines: 4, Strategy: arP3,
		BandwidthGbps: 10, WarmupIters: 1, MeasureIters: 2, Seed: 1})
	if r.Throughput <= 0 {
		t.Fatal("resnet50 ring run failed")
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

// TestUrgentLayerCompletesFirst transplants the Figure 4 effect onto the
// collective: with priority scheduling, the first (most urgent) layer's
// all-reduce overtakes the bulk layers' traffic; its forward stall shrinks
// accordingly, visible as a shorter iteration.
func TestUrgentLayerCompletesFirst(t *testing.T) {
	// Front-loaded model: tiny first layer behind a huge bulk layer whose
	// gradients appear first in backprop.
	m := &model.Model{Name: "frontload", BatchSize: 8, SampleUnit: "images",
		PlateauPerWorker: 100, FwdFraction: 1.0 / 3.0}
	sizes := []int64{50_000, 4_000_000}
	for i, s := range sizes {
		m.Layers = append(m.Layers, model.Layer{
			Index: i, Name: string(rune('a' + i)), Kind: model.KindConv,
			Params: s, FwdFLOPs: 1_000_000,
		})
	}
	run := func(s strategy.Strategy) Result {
		return Run(Config{Model: m, Machines: 4, Strategy: s,
			BandwidthGbps: 2, WarmupIters: 1, MeasureIters: 3, Seed: 1})
	}
	fifo := run(arSliced)
	prio := run(arP3)
	if prio.MeanIterTime >= fifo.MeanIterTime {
		t.Fatalf("priority iteration %v not below FIFO %v", prio.MeanIterTime, fifo.MeanIterTime)
	}
}

// TestResultCountsEveryRingSegment pins Result.Msgs/WireBytes to the
// protocol's closed form: every iteration all-reduces every chunk in 2(N-1)
// rounds of one 1/N-sized segment per machine.
func TestResultCountsEveryRingSegment(t *testing.T) {
	for _, s := range []strategy.Strategy{arLayer, arP3} {
		c := cfg(s, 5, 4)
		r := Run(c)
		n := int64(c.Machines)
		perChunk := int64(c.WarmupIters+c.MeasureIters) * 2 * (n - 1) * n
		plan := s.Partition(c.Model, 1)
		var segBytes int64
		for _, ch := range plan.Chunks {
			segBytes += max(ch.Bytes()/n, 1)
		}
		if want := perChunk * int64(plan.NumChunks()); r.Msgs != want {
			t.Errorf("%s: Msgs = %d, want iters x chunks x 2(N-1) x N = %d", s.Name, r.Msgs, want)
		}
		if want := perChunk * segBytes; r.WireBytes != want {
			t.Errorf("%s: WireBytes = %d, want %d", s.Name, r.WireBytes, want)
		}
	}
}

// TestRunCalibratedRecordsOnePass: cluster.RunCalibrated's recorder holds
// the calibrated all-reduce pass alone — the series a plain Run on the
// calibrated profile records — not the two passes' bytes summed into one
// trace.
func TestRunCalibratedRecordsOnePass(t *testing.T) {
	c := cfg(strategy.Strategy{Name: "ar-tictac", Granularity: strategy.Slices, Sched: "tictac"}, 1, 4)
	c.AllReduce = true
	c.Recorder = trace.NewRecorder(4, 0)
	static, _ := cluster.RunCalibrated(c)
	plain := c
	plain.Recorder = trace.NewRecorder(4, 0)
	plain.Profile = strategy.CalibrateProfile(c.Model, c.BandwidthGbps, static.MeanLayerStalls())
	Run(plain)
	for m := range c.Machines {
		for _, d := range []trace.Dir{trace.Out, trace.In} {
			if got, want := c.Recorder.Series(m, d), plain.Recorder.Series(m, d); !slices.Equal(got, want) {
				t.Errorf("machine %d %v: RunCalibrated recorded %.0f B, the calibrated pass alone %.0f B",
					m, d, c.Recorder.TotalBytes(m, d), plain.Recorder.TotalBytes(m, d))
			}
		}
	}
}
