// Package experiments regenerates every table and figure of the paper's
// evaluation section (Figures 5 and 7-15, plus the Section 5.3 headline
// speedups). Each experiment returns structured Figure values that the
// cmd/p3bench tool and the root benchmarks render as TSV series and ASCII
// plots, side by side with the paper's reference numbers.
package experiments

import (
	"fmt"

	"p3/internal/cluster"
	"p3/internal/model"
	"p3/internal/ring"
	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/zoo"
)

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is the reproduction of one paper figure (or sub-figure).
type Figure struct {
	ID     string // e.g. "fig7a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes carries paper-reference values and reproduction caveats.
	Notes []string
}

// Options tunes experiment cost. The zero value reproduces the full paper
// grids; Fast trims sweeps for tests and smoke runs.
type Options struct {
	Fast bool
	// Seed for workload jitter; runs are deterministic per seed.
	Seed int64
	// Shards selects the cluster simulator's engine: <= 1 runs the legacy
	// single-heap engine, >= 2 the conservative-lookahead parallel engine
	// with that many shards. Results are bit-identical either way (the
	// determinism contract in internal/sim); shards only buy wall-clock on
	// multi-core runners, and recorder-backed utilization figures always
	// run single-shard.
	Shards int
}

func (o Options) iters() (warm, measure int) {
	if o.Fast {
		return 1, 3
	}
	return 2, 8
}

// run executes one simulated configuration.
func run(m *model.Model, s strategy.Strategy, machines int, gbps float64, o Options, rec *trace.Recorder) cluster.Result {
	warm, measure := o.iters()
	shards := o.Shards
	if rec != nil {
		shards = 0 // utilization buckets need the single-shard engine
	}
	return cluster.Run(cluster.Config{
		Model:         m,
		Machines:      machines,
		Strategy:      s,
		BandwidthGbps: gbps,
		WarmupIters:   warm,
		MeasureIters:  measure,
		Seed:          o.Seed + 1,
		Recorder:      rec,
		Shards:        shards,
	})
}

// runPath runs cfg on one aggregation path — the ring path takes the
// fields the two Configs share (it has no servers, shards or topology) —
// optionally as the second pass of the two-pass calibrated mode, and
// returns per-machine throughput (samples/s), the mean iteration time in
// milliseconds and the run's event count.
func runPath(path string, cfg cluster.Config, calibrated bool) (perMachine, iterMs float64, events uint64) {
	if path == PathRing {
		rc := ring.Config{
			Model: cfg.Model, Machines: cfg.Machines, Strategy: cfg.Strategy,
			BandwidthGbps: cfg.BandwidthGbps, PreemptQuantum: cfg.PreemptQuantum,
			WarmupIters: cfg.WarmupIters, MeasureIters: cfg.MeasureIters, Seed: cfg.Seed,
			Engine: cfg.Engine,
		}
		var r ring.Result
		if calibrated {
			_, r = ring.RunCalibrated(rc)
		} else {
			r = ring.Run(rc)
		}
		return r.Throughput / float64(r.Machines), r.MeanIterTime.Millis(), r.Events
	}
	var r cluster.Result
	if calibrated {
		_, r = cluster.RunCalibrated(cfg)
	} else {
		r = cluster.Run(cfg)
	}
	return r.Throughput / float64(r.Machines), r.MeanIterTime.Millis(), r.Events
}

// awsModel derives the AWS g3.4xlarge variant of a model used by the
// scalability study (Section 5.5): the paper's Figure 10 was measured on
// M60 GPUs, roughly half the P4000 throughput of the Figure 7 testbed
// (0.6x for the LSTM-bound Sockeye).
func awsModel(m *model.Model) *model.Model {
	clone := *m
	factor := 0.5
	if m.Name == "sockeye" {
		factor = 0.6
	}
	clone.PlateauPerWorker = m.PlateauPerWorker * factor
	return &clone
}

// Fig5 reproduces Figure 5: the per-tensor parameter distribution of
// ResNet-50, VGG-19 and Sockeye.
func Fig5(o Options) []*Figure {
	var figs []*Figure
	sub := 'a'
	for _, name := range []string{"resnet50", "vgg19", "sockeye"} {
		m := zoo.ByName(name)
		x := make([]float64, len(m.Layers))
		y := make([]float64, len(m.Layers))
		for i, l := range m.Layers {
			x[i] = float64(i)
			y[i] = float64(l.Params) / 1e6
		}
		figs = append(figs, &Figure{
			ID:     fmt.Sprintf("fig5%c", sub),
			Title:  fmt.Sprintf("Parameter distribution: %s (%d tensors, %.2fM params)", m.Name, len(m.Layers), float64(m.TotalParams())/1e6),
			XLabel: "layer index",
			YLabel: "params (millions)",
			Series: []Series{{Name: m.Name, X: x, Y: y}},
			Notes: []string{
				"paper: ResNet-50 all tensors < 2.4M; VGG-19 fc6 = 71.5% of model; Sockeye heaviest tensor is the initial embedding",
			},
		})
		sub++
	}
	return figs
}

// fig7Grid returns the bandwidth grid for a model (Gbps).
func fig7Grid(name string, fast bool) []float64 {
	switch name {
	case "resnet50", "inception3":
		if fast {
			return []float64{2, 4, 8}
		}
		return []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	default: // vgg19, sockeye: the paper sweeps to 30 Gbps
		if fast {
			return []float64{4, 15, 30}
		}
		return []float64{1, 2, 4, 6, 8, 10, 15, 20, 25, 30}
	}
}

// Fig7 reproduces Figure 7: per-machine training throughput vs network
// bandwidth for Baseline, Slicing and P3 on a four-machine cluster.
func Fig7(o Options) []*Figure {
	names := []string{"resnet50", "inception3", "vgg19", "sockeye"}
	notes := map[string]string{
		"resnet50":   "paper: baseline degrades below 6 Gbps, P3 linear to 4 Gbps, max speedup 26% at 4 Gbps",
		"inception3": "paper: max speedup 18%; slicing alone does not help (small tensors)",
		"vgg19":      "paper: slicing +49% at 30 Gbps, P3 +66% at 15 Gbps",
		"sockeye":    "paper: max speedup 38%; heavy *initial* layer",
	}
	strategies := []strategy.Strategy{strategy.Baseline(), strategy.SlicingOnly(0), strategy.P3(0)}
	var figs []*Figure
	sub := 'a'
	for _, name := range names {
		m := zoo.ByName(name)
		grid := fig7Grid(name, o.Fast)
		fig := &Figure{
			ID:     fmt.Sprintf("fig7%c", sub),
			Title:  fmt.Sprintf("Bandwidth vs throughput: %s (4 machines)", name),
			XLabel: "bandwidth (Gbps)",
			YLabel: fmt.Sprintf("throughput (%s/sec per machine)", m.SampleUnit),
			Notes:  []string{notes[name]},
		}
		// The (strategy, bandwidth) cells are independent pure simulations:
		// fill a flat grid on the worker pool, then slice it into series.
		ys := make([]float64, len(strategies)*len(grid))
		parEach(len(ys), func(i int) {
			r := run(zoo.ByName(name), strategies[i/len(grid)], 4, grid[i%len(grid)], o, nil)
			ys[i] = r.Throughput / float64(r.Machines)
		})
		for si, s := range strategies {
			series := Series{Name: s.Name, X: append([]float64(nil), grid...)}
			series.Y = ys[si*len(grid) : (si+1)*len(grid)]
			fig.Series = append(fig.Series, series)
		}
		figs = append(figs, fig)
		sub++
	}
	return figs
}

// utilConfig is one sub-figure of the network-utilization studies.
type utilConfig struct {
	model string
	gbps  float64
}

var utilConfigs = []utilConfig{
	{"resnet50", 4},
	{"vgg19", 15},
	{"sockeye", 4},
}

// utilizationFigure runs one strategy/model/bandwidth configuration and
// extracts machine 0's inbound/outbound Gbps series (10 ms buckets), as
// measured by bwm-ng in the paper.
func utilizationFigure(id, title string, m *model.Model, s strategy.Strategy, gbps float64, o Options, note string) *Figure {
	rec := trace.NewRecorder(4, 0)
	r := run(m, s, 4, gbps, o, rec)
	skip := int(r.WarmupEnd / rec.Bucket())
	out := rec.Gbps(0, trace.Out)
	in := rec.Gbps(0, trace.In)
	maxBuckets := 250
	clip := func(xs []float64) []float64 {
		if skip < len(xs) {
			xs = xs[skip:]
		} else {
			xs = nil
		}
		if len(xs) > maxBuckets {
			xs = xs[:maxBuckets]
		}
		return xs
	}
	out, in = clip(out), clip(in)
	mk := func(name string, ys []float64) Series {
		xs := make([]float64, len(ys))
		for i := range xs {
			xs[i] = float64(i)
		}
		return Series{Name: name, X: xs, Y: ys}
	}
	return &Figure{
		ID:     id,
		Title:  title,
		XLabel: "time (10 ms buckets)",
		YLabel: "usage (Gbps)",
		Series: []Series{mk("outbound", out), mk("inbound", in)},
		Notes:  []string{note},
	}
}

// Fig8 reproduces Figure 8: baseline network utilization (bursty, poorly
// overlapped bidirectional traffic).
func Fig8(o Options) []*Figure {
	var figs []*Figure
	sub := 'a'
	for _, uc := range utilConfigs {
		m := zoo.ByName(uc.model)
		figs = append(figs, utilizationFigure(
			fmt.Sprintf("fig8%c", sub),
			fmt.Sprintf("Baseline network utilization: %s at %gGbps", uc.model, uc.gbps),
			m, strategy.Baseline(), uc.gbps, o,
			"paper: bursty traffic, long idle gaps, inbound/outbound not overlapped"))
		sub++
	}
	return figs
}

// Fig9 reproduces Figure 9: P3's network utilization (smoother, overlapped
// bidirectional traffic, reduced idle time).
func Fig9(o Options) []*Figure {
	var figs []*Figure
	sub := 'a'
	for _, uc := range utilConfigs {
		m := zoo.ByName(uc.model)
		figs = append(figs, utilizationFigure(
			fmt.Sprintf("fig9%c", sub),
			fmt.Sprintf("P3 network utilization: %s at %gGbps", uc.model, uc.gbps),
			m, strategy.P3(0), uc.gbps, o,
			"paper: reduced idle time, bidirectional bandwidth used simultaneously"))
		sub++
	}
	return figs
}

// Fig10 reproduces Figure 10: aggregate throughput scaling with cluster
// size (2-16 machines) on a 10 Gbps AWS-like network.
func Fig10(o Options) []*Figure {
	names := []string{"resnet50", "vgg19", "sockeye"}
	notes := map[string]string{
		"resnet50": "paper: baseline == P3 (10 Gbps is enough for ResNet-50)",
		"vgg19":    "paper: up to +61% on an 8-machine cluster",
		"sockeye":  "paper: up to +18% on an 8-machine cluster; LSTMs scale poorly",
	}
	sizes := []int{2, 4, 8, 16}
	if o.Fast {
		sizes = []int{2, 8}
	}
	var figs []*Figure
	sub := 'a'
	for _, name := range names {
		m := awsModel(zoo.ByName(name))
		fig := &Figure{
			ID:     fmt.Sprintf("fig10%c", sub),
			Title:  fmt.Sprintf("Scalability: %s @10Gbps (AWS g3.4xlarge profile)", name),
			XLabel: "cluster size (machines)",
			YLabel: fmt.Sprintf("aggregate throughput (%s/sec)", m.SampleUnit),
			Notes:  []string{notes[name]},
		}
		strategies := []strategy.Strategy{strategy.Baseline(), strategy.P3(0)}
		ys := make([]float64, len(strategies)*len(sizes))
		parEach(len(ys), func(i int) {
			r := run(awsModel(zoo.ByName(name)), strategies[i/len(sizes)], sizes[i%len(sizes)], 10, o, nil)
			ys[i] = r.Throughput
		})
		for si, s := range strategies {
			series := Series{Name: s.Name}
			for ni, n := range sizes {
				series.X = append(series.X, float64(n))
				series.Y = append(series.Y, ys[si*len(sizes)+ni])
			}
			fig.Series = append(fig.Series, series)
		}
		figs = append(figs, fig)
		sub++
	}
	return figs
}

// Fig12 reproduces Figure 12: P3 throughput vs slice size.
func Fig12(o Options) []*Figure {
	sizes := []int64{1000, 2000, 5000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000}
	if o.Fast {
		sizes = []int64{1000, 50_000, 1_000_000}
	}
	var figs []*Figure
	sub := 'a'
	for _, uc := range utilConfigs {
		m := zoo.ByName(uc.model)
		fig := &Figure{
			ID:     fmt.Sprintf("fig12%c", sub),
			Title:  fmt.Sprintf("Slice size vs throughput: %s at %gGbps", uc.model, uc.gbps),
			XLabel: "slice size (parameters)",
			YLabel: fmt.Sprintf("throughput (%s/sec per machine)", m.SampleUnit),
			Notes:  []string{"paper: peak at 50,000 parameters; overhead dominates below, pipelining degrades above"},
		}
		series := Series{Name: "p3"}
		for _, sz := range sizes {
			r := run(m, strategy.P3(sz), 4, uc.gbps, o, nil)
			series.X = append(series.X, float64(sz))
			series.Y = append(series.Y, r.Throughput/float64(r.Machines))
		}
		fig.Series = append(fig.Series, series)
		figs = append(figs, fig)
		sub++
	}
	return figs
}

// Fig13 reproduces Appendix Figure 13: TensorFlow-style synchronization's
// network utilization on ResNet-50 at 4 Gbps.
func Fig13(o Options) []*Figure {
	return []*Figure{utilizationFigure(
		"fig13", "TensorFlow-style network utilization: resnet50 at 4Gbps",
		zoo.ByName("resnet50"), strategy.TFStyle(), 4, o,
		"paper: bursty; pulls deferred to the next iteration leave inbound idle during backprop")}
}

// Fig14 reproduces Appendix Figure 14: Poseidon-style WFBP network
// utilization on InceptionV3 at 1 Gbps.
func Fig14(o Options) []*Figure {
	return []*Figure{utilizationFigure(
		"fig14", "Poseidon-style (WFBP) network utilization: inception3 at 1Gbps",
		zoo.ByName("inception3"), strategy.WFBP(), 1, o,
		"paper: layer-granularity WFBP also utilizes the network poorly under bandwidth constraints")}
}

// HeadlineRow is one model's Section 5.3 summary speedup.
type HeadlineRow struct {
	Model         string
	BandwidthGbps float64
	Baseline      float64 // per-machine samples/sec
	Slicing       float64
	P3            float64
	SpeedupPct    float64 // P3 vs baseline
	PaperPct      float64
}

// Headline reproduces the Section 5.3 headline numbers: the P3 speedup at
// the bandwidth the paper quotes for each model.
func Headline(o Options) []HeadlineRow {
	cases := []struct {
		model string
		gbps  float64
		paper float64
	}{
		{"resnet50", 4, 26},
		{"inception3", 4, 18},
		{"vgg19", 15, 66},
		{"sockeye", 4, 38},
	}
	// All 12 (model, strategy) runs are independent pure simulations: fill a
	// flat grid on the worker pool, then assemble rows in case order.
	strategies := []strategy.Strategy{strategy.Baseline(), strategy.SlicingOnly(0), strategy.P3(0)}
	grid := make([]cluster.Result, len(cases)*len(strategies))
	parEach(len(grid), func(i int) {
		c := cases[i/len(strategies)]
		grid[i] = run(zoo.ByName(c.model), strategies[i%len(strategies)], 4, c.gbps, o, nil)
	})
	rows := make([]HeadlineRow, 0, len(cases))
	for ci, c := range cases {
		base := grid[ci*len(strategies)+0]
		slic := grid[ci*len(strategies)+1]
		p3 := grid[ci*len(strategies)+2]
		rows = append(rows, HeadlineRow{
			Model:         c.model,
			BandwidthGbps: c.gbps,
			Baseline:      base.Throughput / 4,
			Slicing:       slic.Throughput / 4,
			P3:            p3.Throughput / 4,
			SpeedupPct:    (p3.Throughput/base.Throughput - 1) * 100,
			PaperPct:      c.paper,
		})
	}
	return rows
}
