package experiments

import (
	"fmt"
	"slices"
	"strings"
)

// Experiment is one entry of the evaluation: what p3bench runs by name and
// what the report renders as one section.
type Experiment struct {
	// ID is the p3bench target name and the name of the golden that pins
	// the -fast output (every entry but fig5 has one).
	ID    string
	Title string
	// About is the report's paragraph above the output; "" where the figures
	// carry their own (the utilization studies' shared note).
	About string
	// Exactly one of Figures and Table is set.
	Figures func(Options) []*Figure
	Table   func(Options) string
	// Summary renders computed figures as the report's markdown. Without one
	// the report prints each figure's TSV as a table.
	Summary func([]*Figure) string
}

// All is the evaluation in report order.
var All = []Experiment{
	{ID: "fig5", Title: "Figure 5 — parameter distribution",
		About: "Paper: ResNet-50 has no tensor above ~2.4M parameters; VGG-19's fc6 holds\n" +
			"71.5% of the model; Sockeye's heaviest tensor is the *initial* embedding.",
		Figures: Fig5, Summary: fig5Summary},
	{ID: "fig7", Title: "Figure 7 — bandwidth vs throughput (4 machines)",
		About:   "Throughput per machine (samples/sec), Baseline / Slicing / P3.",
		Figures: Fig7, Summary: fig7Summary},
	{ID: "fig8", Title: "Figure 8 — baseline network utilization", Figures: Fig8, Summary: utilSummary},
	{ID: "fig9", Title: "Figure 9 — P3 network utilization", Figures: Fig9, Summary: utilSummary},
	{ID: "fig10", Title: "Figure 10 — scalability (2–16 machines @ 10 Gbps, AWS profile)",
		About: "Aggregate samples/sec; paper: ResNet-50 baseline == P3; VGG-19 up to +61%\n" +
			"(8 machines); Sockeye up to +18% (8 machines).",
		Figures: Fig10, Summary: func(figs []*Figure) string {
			return eachFigure(figs, func(f *Figure) string {
				gain, n := bestGain(f.Series[0], f.Series[1])
				return fmt.Sprintf("Measured: max P3 gain %+.0f%% at %g machines.", gain*100, n)
			})
		}},
	{ID: "fig11", Title: "Figure 11 — convergence: P3 vs DGC (5 hyper-parameter settings)",
		About: "Paper: P3's accuracy band always above DGC's; mean DGC drop 0.4%\n" +
			"(ResNet-110/CIFAR-10). Ours uses the substitute task (package `nn`): a residual\n" +
			"MLP on synthetic data, DGC at 99.9% sparsity without warm-up.",
		Figures: Fig11, Summary: fig11Summary},
	{ID: "fig12", Title: "Figure 12 — slice size vs throughput",
		About: "Paper: throughput peaks at 50,000 parameters per slice; per-message overhead\n" +
			"dominates below, pipelining degrades above.",
		Figures: Fig12, Summary: func(figs []*Figure) string {
			return eachFigure(figs, func(f *Figure) string {
				s := f.Series[0]
				i := slices.Index(s.Y, slices.Max(s.Y))
				return fmt.Sprintf("Measured peak: %.0f-parameter slices (%.1f samples/sec).", s.X[i], s.Y[i])
			})
		}},
	{ID: "fig13", Title: "Figure 13 — TensorFlow-style utilization (Appendix B.1)", Figures: Fig13, Summary: utilSummary},
	{ID: "fig14", Title: "Figure 14 — Poseidon/WFBP utilization (Appendix B.1)", Figures: Fig14, Summary: utilSummary},
	{ID: "fig15", Title: "Figure 15 — ASGD vs P3, accuracy over wall-clock (Appendix B.2)",
		About: "Paper: P3 reaches 93% final vs ASGD's 88%, and hits 80% ~6x sooner despite\n" +
			"ASGD's faster iterations. Iteration times below come from the simulator\n" +
			"(ResNet-110 profile, 4 machines, 1 Gbps); accuracies from the substitute task.",
		Figures: Fig15, Summary: fig15Summary},
	{ID: "headline", Title: "Section 5.3 headline speedups",
		About: "(`speedup%` is measured P3-vs-baseline; `paper%` is the quoted value.)",
		Table: func(o Options) string { return tsv(headlineCols, Headline(o)) }},
	{ID: "ablation", Title: "Ablation — contribution of each design decision",
		About: "Per-machine throughput when enabling each P3 mechanism in isolation\n" +
			"(immediate broadcast, slicing, priority) versus the full design: Section\n" +
			"4.2's three modifications, one at a time.",
		Table: func(o Options) string { return tsv(ablationCols, Ablation(o)) }},
	{ID: "sched", Title: "Scheduler ablation — every discipline, both aggregation paths",
		About: "Every discipline in the internal/sched registry applied to the same sliced\n" +
			"immediate-broadcast strategy, on the parameter-server cluster and on ring\n" +
			"all-reduce, so transmission order is the only variable. `ttc_speedup_vs_fifo`\n" +
			"is time-to-convergence relative to fifo on the same path (synchronous SGD\n" +
			"converges identically under every order, so it scales with iteration time).\n" +
			"p3, credit, and smallest form the leading pack; tictac — TicTac-style\n" +
			"critical-path ranks from the model's timing profile — tracks p3 closely,\n" +
			"as expected for linear-chain models where timing-derived order nearly\n" +
			"coincides with layer order; credit-adaptive matches credit while sizing its\n" +
			"per-destination windows by AIMD instead of a hand-picked constant.",
		Table: func(o Options) string { return SchedulerAblation(o).TSV() }},
	{ID: "scale", Title: "Extension — scale axis (cluster sizes past the paper's testbed)",
		About: "ResNet-50 at the 1.5 Gbps bottleneck on the sliced strategy, swept past the\n" +
			"paper's 4–16 machines on the parameter server (`cluster`) and on ring\n" +
			"all-reduce (`ring`), under fifo, p3, damped p3, and tictac ranked on the\n" +
			"static or the measured (two-pass calibrated) profile. Per-machine throughput\n" +
			"should stay flat as machines grow; at 64 machines on the parameter server\n" +
			"strict p3 falls behind fifo and the damped rank does not. `events` and\n" +
			"`sim_wall_ms` are the simulator's own cost per cell.",
		Table: func(o Options) string { return Scale(o).TSV() }},
	{ID: "rack", Title: "Extension — rack-scale topology (oversubscribed core, spine tier, in-network aggregation)",
		About: "The regime past the paper's flat testbed, in the spirit of Parameter Hub's\n" +
			"rack-scale co-design: machines in racks behind an oversubscribed core (and,\n" +
			"on the two-tier cells, a 4:1 spine over two pods), with server placement,\n" +
			"host/core/spine disciplines, in-rack and hierarchical aggregation, the\n" +
			"aggregator reduce rate (`agg_GBps`; `inf` = free switch-side reduction) and\n" +
			"the rack-local parameter cache (`local`, on the pull-mode `baseline`\n" +
			"strategy rows) as axes. `core_MB`/`spine_MB` are the payload volumes that\n" +
			"serialized through the ToR and spine ports — the traffic each reduction\n" +
			"tier exists to shrink.",
		Table: func(o Options) string { return Rack(o).TSV() }},
	{ID: "faults", Title: "Extension — fault injection and graceful degradation",
		About: "Scripted faults (internal/faults) on the rack-aggregated cluster: a 1.5x\n" +
			"compute straggler, a half-rate host NIC, and a permanent aggregator crash\n" +
			"that forces every affected reduction through the timeout/re-push failover.\n" +
			"`retained_pct` is throughput relative to the same discipline's clean cell\n" +
			"— the graceful-degradation measure. In the comm-bound regime every\n" +
			"discipline absorbs the compute straggler almost entirely. The credit\n" +
			"window cuts both ways: under the degraded NIC its bounded in-flight bytes\n" +
			"keep the slowed link's queue shallow (most throughput retained), but\n" +
			"under the crash a fixed window sized for the healthy in-rack round-trip\n" +
			"throttles the much slower direct-to-server failover path (least retained)\n" +
			"— a static-window/BDP mismatch that argues for adaptive windows.",
		Table: func(o Options) string { return Faults(o).TSV() }},
	{ID: "allreduce", Title: "Extension — P3 principles on ring all-reduce (Section 6 claim)",
		About: "The paper claims slicing + priority generalize beyond the parameter server.\n" +
			"`cluster.Config.AllReduce` runs ring all-reduce on the same substrate:",
		Figures: ExtAllreduce, Summary: func(figs []*Figure) string {
			return eachFigure(figs, func(f *Figure) string {
				gain, bw := bestGain(f.Series[0], f.Series[2])
				return fmt.Sprintf("Measured: sliced+priority all-reduce gains up to %+.0f%% over\n"+
					"layer-granularity all-reduce (at %g Gbps).", gain*100, bw)
			})
		}},
	{ID: "tta", Title: "Extension — time to accuracy",
		About: "Combining both halves of the reproduction: simulated iteration time x\n" +
			"measured statistical efficiency. DGC iterates fastest but converges lower;\n" +
			"P3 keeps dense convergence at near-compute-bound speed.",
		Table: func(o Options) string { return tsv(ttaCols, TimeToAccuracy(o)) }},
	{ID: "sensitivity", Title: "Sensitivity — server count and batch size (Appendix A.7 knobs)",
		About: "VGG-19 at 15 Gbps on 4 machines, per-machine images/sec. Fewer servers\n" +
			"concentrate ingress and update load (P3's pipelining matters more); larger\n" +
			"batches stretch compute against fixed communication (everything hides).",
		Table: func(o Options) string { return tsv(sensitivityCols, Sensitivity(o)) }},
}

// Section runs the experiment and renders it as a report section.
func (e Experiment) Section(o Options) string {
	if e.Table != nil {
		return e.section(nil, e.Table(o))
	}
	return e.section(e.Figures(o), "")
}

// section renders computed output under the experiment's title and
// paragraph.
func (e Experiment) section(figs []*Figure, table string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", e.Title)
	if e.About != "" {
		b.WriteString(e.About + "\n\n")
	}
	switch {
	case e.Table != nil:
		b.WriteString(markdown(table) + "\n")
	case e.Summary != nil:
		b.WriteString(e.Summary(figs))
	default:
		for _, f := range figs {
			b.WriteString(markdown(f.TSV()) + "\n")
		}
	}
	return b.String()
}

// bestGain is alt's largest relative gain over base across their shared x
// axis, and where it falls; 0, 0 when alt never wins.
func bestGain(base, alt Series) (gain, x float64) {
	for i := range base.Y {
		if g := alt.Y[i]/base.Y[i] - 1; g > gain {
			gain, x = g, base.X[i]
		}
	}
	return gain, x
}

func sum(ys []float64) float64 {
	total := 0.0
	for _, y := range ys {
		total += y
	}
	return total
}

// eachFigure renders every figure as a markdown table under its title,
// followed by its measured line.
func eachFigure(figs []*Figure, measured func(*Figure) string) string {
	var b strings.Builder
	for _, f := range figs {
		fmt.Fprintf(&b, "### %s\n\n%s\n%s\n\n", f.Title, markdown(f.TSV()), measured(f))
	}
	return b.String()
}

func fig5Summary(figs []*Figure) string {
	var b strings.Builder
	var totals []string
	fc6 := 0.0
	for _, f := range figs {
		s := f.Series[0]
		largest, total := slices.Max(s.Y), sum(s.Y)
		fmt.Fprintf(&b, "- **%s**: %d tensors, %.2fM params total, largest %.2fM (%.1f%% of model)\n",
			s.Name, len(s.Y), total, largest, largest/total*100)
		totals = append(totals, fmt.Sprintf("%.2fM", total))
		if s.Name == "vgg19" {
			fc6 = largest / total * 100
		}
	}
	// TestFig5 holds the three claims "matches" stands for.
	fmt.Fprintf(&b, "\nMeasured: matches — %s totals; fc6 share %.1f%%; Sockeye's\n"+
		"first tensor (source embedding) is its largest. `p3bench fig5` prints the\n"+
		"full per-tensor tables.\n\n", strings.Join(totals, "/"), fc6)
	return b.String()
}

func fig7Summary(figs []*Figure) string {
	var b strings.Builder
	for _, f := range figs {
		fmt.Fprintf(&b, "### %s: %s\n\n%s\n\n", f.ID, f.Title, strings.Join(f.Notes, "\n"))
		b.WriteString(markdown(f.TSV()))
		base, slic := f.Series[0], f.Series[1]
		gain, bw := bestGain(base, f.Series[2])
		last := len(base.Y) - 1
		fmt.Fprintf(&b, "\nMeasured: max P3 gain **%+.0f%%** at %g Gbps; slicing alone %+.0f%% at %g Gbps.\n\n",
			gain*100, bw, (slic.Y[last]/base.Y[last]-1)*100, base.X[last])
	}
	return b.String()
}

// utilSummary is one utilization study; the paper's observation is the note
// its sub-figures share.
func utilSummary(figs []*Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", strings.Join(figs[0].Notes, "\n"))
	b.WriteString("| config | dir | mean Gbps | peak Gbps | idle buckets |\n| --- | --- | --- | --- | --- |\n")
	for _, f := range figs {
		for _, s := range f.Series {
			if len(s.Y) == 0 {
				continue
			}
			peak := slices.Max(s.Y)
			idle := 0
			for _, y := range s.Y {
				if y < 0.05*peak {
					idle++
				}
			}
			fmt.Fprintf(&b, "| %s | %s | %.2f | %.2f | %d%% |\n",
				f.ID, s.Name, sum(s.Y)/float64(len(s.Y)), peak, idle*100/len(s.Y))
		}
	}
	b.WriteString("\n`p3bench` prints the full 10 ms time series for each sub-figure.\n\n")
	return b.String()
}

func fig11Summary(figs []*Figure) string {
	var b strings.Builder
	f := figs[0]
	last := len(f.Series[0].Y) - 1
	get := func(name string) float64 {
		for _, s := range f.Series {
			if s.Name == name {
				return s.Y[last]
			}
		}
		return -1
	}
	b.WriteString("| method | final min | final max |\n| --- | --- | --- |\n")
	fmt.Fprintf(&b, "| p3 (== baseline, bit-identical) | %.4f | %.4f |\n", get("p3_min"), get("p3_max"))
	fmt.Fprintf(&b, "| dgc | %.4f | %.4f |\n", get("dgc_min"), get("dgc_max"))
	fmt.Fprintf(&b, "\nMeasured band gap at the final epoch: P3 max %+.2f%% over DGC max.\n",
		(get("p3_max")-get("dgc_max"))*100)
	b.WriteString("P3 == baseline exactly: `internal/train`'s bit-identity test proves the\n")
	b.WriteString("aggregation arithmetic is unchanged by slicing or priority reordering.\n\n")
	return b.String()
}

func fig15Summary(figs []*Figure) string {
	var b strings.Builder
	f := figs[0]
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	b.WriteString("\n")
	for _, s := range f.Series {
		to80 := "never reached"
		for i, y := range s.Y {
			if y >= 0.8 {
				to80 = fmt.Sprintf("%.1f min", s.X[i])
				break
			}
		}
		fmt.Fprintf(&b, "- **%s**: final accuracy %.4f; 80%% reached at %s\n",
			s.Name, s.Y[len(s.Y)-1], to80)
	}
	b.WriteString("\n")
	return b.String()
}
