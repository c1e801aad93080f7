package experiments

import (
	"fmt"

	"p3/internal/model"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// AblationRow decomposes P3's gain for one model at its headline bandwidth.
type AblationRow struct {
	Model         string
	BandwidthGbps float64
	// Per-machine throughputs at each design point.
	Baseline      float64 // KVStore: shards, FIFO, notify+pull
	ImmediateOnly float64 // + immediate broadcast (still shards, FIFO)
	SlicingOnly   float64 // + slicing (FIFO order)
	PriorityOnly  float64 // shards + priority queues (no slicing)
	FullP3        float64 // slicing + priority
}

// Ablation isolates the contribution of each P3 design decision the paper
// discusses in Section 4.2: removing the notify/pull round trip, slicing,
// and priority scheduling — the mechanism's two core components, each alone
// and together.
func Ablation(o Options) []AblationRow {
	priorityShards := strategy.Strategy{
		Name: "priority-shards", Granularity: strategy.Shards,
		Sched: "p3", Pull: strategy.Immediate,
	}
	strategies := []strategy.Strategy{
		strategy.Baseline(), strategy.WFBP(), strategy.SlicingOnly(0),
		priorityShards, strategy.P3(0),
	}
	var cells []cell
	for _, c := range paperPoints {
		m := zoo.ByName(c.model)
		for _, s := range strategies {
			cells = append(cells, testbed(m, s, c.gbps))
		}
	}
	outs := runCells(o, cells)
	rows := make([]AblationRow, 0, len(paperPoints))
	for ci, c := range paperPoints {
		g := outs[ci*len(strategies):]
		rows = append(rows, AblationRow{
			Model:         c.model,
			BandwidthGbps: c.gbps,
			Baseline:      g[0].PerMachine,
			ImmediateOnly: g[1].PerMachine,
			SlicingOnly:   g[2].PerMachine,
			PriorityOnly:  g[3].PerMachine,
			FullP3:        g[4].PerMachine,
		})
	}
	return rows
}

// ablationCols print the decomposition.
var ablationCols = []column[AblationRow]{
	{"model", "%s", func(r AblationRow) any { return r.Model }},
	{"Gbps", "%g", func(r AblationRow) any { return r.BandwidthGbps }},
	{"baseline", "%.1f", func(r AblationRow) any { return r.Baseline }},
	{"+immediate", "%.1f", func(r AblationRow) any { return r.ImmediateOnly }},
	{"+slicing", "%.1f", func(r AblationRow) any { return r.SlicingOnly }},
	{"+priority", "%.1f", func(r AblationRow) any { return r.PriorityOnly }},
	{"full_p3", "%.1f", func(r AblationRow) any { return r.FullP3 }},
}

// ExtAllreduce is the extension experiment backing the paper's Section 6
// claim that P3's principles carry over to other aggregation methods: the
// same models on ring all-reduce, at layer granularity (WFBP-style, what
// contemporary all-reduce frameworks did) vs P3-style sliced + priority.
func ExtAllreduce(o Options) []*Figure {
	strategies := []strategy.Strategy{
		{Name: "ar-layer", Granularity: strategy.Shards, Sched: "fifo"},
		{Name: "ar-sliced", Granularity: strategy.Slices, Sched: "fifo"},
		{Name: "ar-p3", Granularity: strategy.Slices, Sched: "p3"},
	}
	var figs []*Figure
	for i, name := range []string{"resnet50", "vgg19", "sockeye"} {
		m := zoo.ByName(name)
		figs = append(figs, &Figure{
			ID:     fmt.Sprintf("ext-allreduce-%c", 'a'+i),
			Title:  fmt.Sprintf("Extension: ring all-reduce, %s (4 machines)", name),
			XLabel: "bandwidth (Gbps)",
			YLabel: fmt.Sprintf("throughput (%s/sec per machine)", m.SampleUnit),
			Notes: []string{
				"extension of Section 6: slicing + priority applied to ring all-reduce instead of the parameter server",
			},
			Series: sweep(o, strategies, fig7Grid(name, o.Fast),
				func(s strategy.Strategy, bw float64) cell {
					c := testbed(m, s, bw)
					c.AllReduce = true
					return c
				}, perMachine),
		})
	}
	return figs
}

// TimeToAccuracyRow is one line of the time-to-accuracy extension: how the
// mechanisms trade iteration speed against statistical efficiency.
type TimeToAccuracyRow struct {
	Mechanism   string
	IterMs      float64 // simulated iteration time at the reference setup
	FinalAcc    float64
	MinutesTo80 float64 // simulated wall-clock to 80% validation accuracy
}

// TimeToAccuracy combines both halves of the reproduction: simulated
// iteration times (ResNet-110 profile, 4 machines, 1 Gbps — the Appendix
// B.2 setup) with measured convergence trajectories, for baseline, P3 and
// DGC. DGC moves ~0.1% of the bytes, so its iterations are nearly
// compute-bound, but it pays a small accuracy gap — while P3 gets its
// speedup with bit-identical convergence.
func TimeToAccuracy(o Options) []TimeToAccuracyRow {
	m := zoo.ResNet110()
	// DGC wire bytes: top-0.1% of values plus indices (~2x per value).
	dgcWire := *m
	dgcWire.Layers = append([]model.Layer(nil), m.Layers...)
	for i := range dgcWire.Layers {
		dgcWire.Layers[i].Params = max(1, int64(float64(dgcWire.Layers[i].Params)*0.002))
	}
	outs := runCells(o, []cell{
		testbed(m, strategy.Baseline(), 1),
		testbed(m, strategy.P3(0), 1),
		testbed(&dgcWire, strategy.P3(0), 1),
	})

	// Accuracy trajectories from the real trainer.
	histories := convergenceHistories(o)

	rows := []TimeToAccuracyRow{
		{Mechanism: "baseline", IterMs: outs[0].IterMs},
		{Mechanism: "p3", IterMs: outs[1].IterMs},
		{Mechanism: "dgc", IterMs: outs[2].IterMs},
	}
	for i := range rows {
		h := histories[rows[i].Mechanism]
		rows[i].FinalAcc = h.acc[len(h.acc)-1]
		rows[i].MinutesTo80 = -1
		for e, a := range h.acc {
			if a >= 0.8 {
				rows[i].MinutesTo80 = float64(e+1) * float64(h.itersPerEpoch) * rows[i].IterMs / 1000 / 60
				break
			}
		}
	}
	return rows
}

// ttaCols print the extension rows.
var ttaCols = []column[TimeToAccuracyRow]{
	{"mechanism", "%s", func(r TimeToAccuracyRow) any { return r.Mechanism }},
	{"iter_ms", "%.1f", func(r TimeToAccuracyRow) any { return r.IterMs }},
	{"final_acc", "%.4f", func(r TimeToAccuracyRow) any { return r.FinalAcc }},
	{"minutes_to_80%", "%s", func(r TimeToAccuracyRow) any {
		if r.MinutesTo80 < 0 {
			return "never"
		}
		return fmt.Sprintf("%.1f", r.MinutesTo80)
	}},
}
