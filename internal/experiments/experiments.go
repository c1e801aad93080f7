// Package experiments regenerates every table and figure of the paper's
// evaluation section (Figures 5 and 7-15, plus the Section 5.3 headline
// speedups) and the extensions past it. All lists them in order, one
// Experiment each: its ID is the cmd/p3bench target and the golden's name,
// and cmd/p3report renders each as one section.
//
// Every simulated sweep has one shape: declare the cells (cells.go), hand
// them to runCells, project the outcomes into series, typed rows, or — for
// the long sweeps — a Table: each cell beside its outcome, printed through
// a list of columns. One rule covers sharding: every cluster-path cell runs
// at Options.Shards (clamped to its machine count by cluster), ring cells
// run one shard.
package experiments

import (
	"fmt"

	"p3/internal/model"
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
	// Shards is the shard count of every cluster-path cell's engine
	// (cluster.Config.Shards, which clamps it to the cell's machine count);
	// ring cells run one shard. Results are
	// bit-identical at any value (the determinism contract in internal/sim);
	// shards only buy wall-clock on multi-core runners.
	Shards int
}

func (o Options) iters() (warm, measure int) {
	if o.Fast {
		return 1, 3
	}
	return 2, 8
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

// sweep runs mk(s, x) for every strategy and every point of the x axis and
// returns one Series per strategy, y picking the plotted value.
func sweep(o Options, strategies []strategy.Strategy, xs []float64,
	mk func(s strategy.Strategy, x float64) cell, y func(outcome) float64) []Series {

	var cells []cell
	for _, s := range strategies {
		for _, x := range xs {
			cells = append(cells, mk(s, x))
		}
	}
	outs := runCells(o, cells)
	series := make([]Series, len(strategies))
	for si, s := range strategies {
		series[si] = Series{Name: s.Name, X: append([]float64(nil), xs...)}
		for _, out := range outs[si*len(xs) : (si+1)*len(xs)] {
			series[si].Y = append(series[si].Y, y(out))
		}
	}
	return series
}

func perMachine(out outcome) float64 { return out.PerMachine }

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
	for i, name := range names {
		m := zoo.ByName(name)
		figs = append(figs, &Figure{
			ID:     fmt.Sprintf("fig7%c", 'a'+i),
			Title:  fmt.Sprintf("Bandwidth vs throughput: %s (4 machines)", name),
			XLabel: "bandwidth (Gbps)",
			YLabel: fmt.Sprintf("throughput (%s/sec per machine)", m.SampleUnit),
			Notes:  []string{notes[name]},
			Series: sweep(o, strategies, fig7Grid(name, o.Fast),
				func(s strategy.Strategy, bw float64) cell { return testbed(m, s, bw) }, perMachine),
		})
	}
	return figs
}

// utilSpec is one network-utilization figure: a strategy on a model at a
// bandwidth, recorded.
type utilSpec struct {
	id, title, note string
	model           string
	gbps            float64
	strategy        strategy.Strategy
}

// modelAt is a model at a bandwidth (Gbps).
type modelAt struct {
	model string
	gbps  float64
}

// paperPoints are the models at the bandwidths the paper singles out: the
// sub-figures of the utilization and slice-size studies and the grid of
// both ablations.
var paperPoints = []modelAt{{"resnet50", 4}, {"vgg19", 15}, {"sockeye", 4}}

// utilizationFigures runs each spec with a recorder attached and extracts
// machine 0's inbound/outbound Gbps series (10 ms buckets), as measured by
// bwm-ng in the paper.
func utilizationFigures(o Options, specs []utilSpec) []*Figure {
	cells := make([]cell, len(specs))
	for i, sp := range specs {
		cells[i] = testbed(zoo.ByName(sp.model), sp.strategy, sp.gbps)
		cells[i].Recorder = trace.NewRecorder(4, 0)
	}
	const maxBuckets = 250
	figs := make([]*Figure, len(specs))
	for i, out := range runCells(o, cells) {
		rec := cells[i].Recorder
		skip := int(out.WarmupEnd / rec.Bucket())
		mk := func(name string, ys []float64) Series {
			ys = ys[min(skip, len(ys)):]
			ys = ys[:min(maxBuckets, len(ys))]
			xs := make([]float64, len(ys))
			for i := range xs {
				xs[i] = float64(i)
			}
			return Series{Name: name, X: xs, Y: ys}
		}
		figs[i] = &Figure{
			ID:     specs[i].id,
			Title:  specs[i].title,
			XLabel: "time (10 ms buckets)",
			YLabel: "usage (Gbps)",
			Series: []Series{mk("outbound", rec.Gbps(0, trace.Out)), mk("inbound", rec.Gbps(0, trace.In))},
			Notes:  []string{specs[i].note},
		}
	}
	return figs
}

// utilizationStudy is Figure 8 or 9: one strategy over paperPoints.
func utilizationStudy(o Options, fig, title, note string, s strategy.Strategy) []*Figure {
	var specs []utilSpec
	for i, uc := range paperPoints {
		specs = append(specs, utilSpec{
			id:    fmt.Sprintf("%s%c", fig, 'a'+i),
			title: fmt.Sprintf("%s network utilization: %s at %gGbps", title, uc.model, uc.gbps),
			note:  note, model: uc.model, gbps: uc.gbps, strategy: s,
		})
	}
	return utilizationFigures(o, specs)
}

// Fig8 reproduces Figure 8: baseline network utilization (bursty, poorly
// overlapped bidirectional traffic).
func Fig8(o Options) []*Figure {
	return utilizationStudy(o, "fig8", "Baseline",
		"paper: bursty traffic, long idle gaps, inbound/outbound not overlapped", strategy.Baseline())
}

// Fig9 reproduces Figure 9: P3's network utilization (smoother, overlapped
// bidirectional traffic, reduced idle time).
func Fig9(o Options) []*Figure {
	return utilizationStudy(o, "fig9", "P3",
		"paper: reduced idle time, bidirectional bandwidth used simultaneously", strategy.P3(0))
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
	sizes := []float64{2, 4, 8, 16}
	if o.Fast {
		sizes = []float64{2, 8}
	}
	var figs []*Figure
	for i, name := range names {
		m := awsModel(zoo.ByName(name))
		figs = append(figs, &Figure{
			ID:     fmt.Sprintf("fig10%c", 'a'+i),
			Title:  fmt.Sprintf("Scalability: %s @10Gbps (AWS g3.4xlarge profile)", name),
			XLabel: "cluster size (machines)",
			YLabel: fmt.Sprintf("aggregate throughput (%s/sec)", m.SampleUnit),
			Notes:  []string{notes[name]},
			Series: sweep(o, []strategy.Strategy{strategy.Baseline(), strategy.P3(0)}, sizes,
				func(s strategy.Strategy, n float64) cell {
					c := testbed(m, s, 10)
					c.Machines = int(n)
					return c
				},
				// Aggregate, not per-machine, throughput: the paper's y axis.
				func(out outcome) float64 { return out.Throughput }),
		})
	}
	return figs
}

// Fig12 reproduces Figure 12: P3 throughput vs slice size.
func Fig12(o Options) []*Figure {
	sizes := []float64{1000, 2000, 5000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000}
	if o.Fast {
		sizes = []float64{1000, 50_000, 1_000_000}
	}
	var figs []*Figure
	for i, uc := range paperPoints {
		m := zoo.ByName(uc.model)
		figs = append(figs, &Figure{
			ID:     fmt.Sprintf("fig12%c", 'a'+i),
			Title:  fmt.Sprintf("Slice size vs throughput: %s at %gGbps", uc.model, uc.gbps),
			XLabel: "slice size (parameters)",
			YLabel: fmt.Sprintf("throughput (%s/sec per machine)", m.SampleUnit),
			Notes:  []string{"paper: peak at 50,000 parameters; overhead dominates below, pipelining degrades above"},
			Series: sweep(o, []strategy.Strategy{strategy.P3(0)}, sizes,
				func(s strategy.Strategy, sz float64) cell {
					s.MaxSliceParams = int64(sz)
					return testbed(m, s, uc.gbps)
				}, perMachine),
		})
	}
	return figs
}

// Fig13 reproduces Appendix Figure 13: TensorFlow-style synchronization's
// network utilization on ResNet-50 at 4 Gbps.
func Fig13(o Options) []*Figure {
	return utilizationFigures(o, []utilSpec{{
		id: "fig13", title: "TensorFlow-style network utilization: resnet50 at 4Gbps",
		note:  "paper: bursty; pulls deferred to the next iteration leave inbound idle during backprop",
		model: "resnet50", gbps: 4, strategy: strategy.TFStyle(),
	}})
}

// Fig14 reproduces Appendix Figure 14: Poseidon-style WFBP network
// utilization on InceptionV3 at 1 Gbps.
func Fig14(o Options) []*Figure {
	return utilizationFigures(o, []utilSpec{{
		id: "fig14", title: "Poseidon-style (WFBP) network utilization: inception3 at 1Gbps",
		note:  "paper: layer-granularity WFBP also utilizes the network poorly under bandwidth constraints",
		model: "inception3", gbps: 1, strategy: strategy.WFBP(),
	}})
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
	var cells []cell
	for _, c := range cases {
		m := zoo.ByName(c.model)
		for _, s := range []strategy.Strategy{strategy.Baseline(), strategy.SlicingOnly(0), strategy.P3(0)} {
			cells = append(cells, testbed(m, s, c.gbps))
		}
	}
	outs := runCells(o, cells)
	rows := make([]HeadlineRow, 0, len(cases))
	for ci, c := range cases {
		base, slic, p3 := outs[3*ci], outs[3*ci+1], outs[3*ci+2]
		rows = append(rows, HeadlineRow{
			Model:         c.model,
			BandwidthGbps: c.gbps,
			Baseline:      base.PerMachine,
			Slicing:       slic.PerMachine,
			P3:            p3.PerMachine,
			SpeedupPct:    (p3.Throughput/base.Throughput - 1) * 100,
			PaperPct:      c.paper,
		})
	}
	return rows
}

// headlineCols print the Section 5.3 summary rows.
var headlineCols = []column[HeadlineRow]{
	{"model", "%s", func(r HeadlineRow) any { return r.Model }},
	{"Gbps", "%g", func(r HeadlineRow) any { return r.BandwidthGbps }},
	{"baseline", "%.1f", func(r HeadlineRow) any { return r.Baseline }},
	{"slicing", "%.1f", func(r HeadlineRow) any { return r.Slicing }},
	{"p3", "%.1f", func(r HeadlineRow) any { return r.P3 }},
	{"speedup%", "%+.1f", func(r HeadlineRow) any { return r.SpeedupPct }},
	{"paper%", "%+.1f", func(r HeadlineRow) any { return r.PaperPct }},
}
