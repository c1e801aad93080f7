// Package report generates EXPERIMENTS.md: the paper-versus-measured record
// for every table and figure of the evaluation, produced by actually running
// the full experiment suite (cmd/p3report).
package report

import (
	"fmt"
	"slices"
	"strings"

	"p3/internal/experiments"
)

// Generate runs every experiment and renders the full markdown report.
// With o.Fast it produces a trimmed (smoke) version in well under a minute;
// the full version takes a few minutes, dominated by the convergence runs.
func Generate(o experiments.Options) string {
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	b.WriteString("Reproduction of every table and figure in *Priority-based Parameter\n")
	b.WriteString("Propagation for Distributed DNN Training* (MLSys 2019). All throughput and\n")
	b.WriteString("utilization numbers come from the discrete-event cluster simulator that\n")
	b.WriteString("substitutes for the paper's 4x-GPU testbed (`internal/model/timing.go` has the\n")
	b.WriteString("compute calibration, `netsim.DefaultConfig` the four network constants); convergence\n")
	b.WriteString("numbers come from real training runs on the substitute task. Absolute values\n")
	b.WriteString("are therefore calibrated, but every *comparison* (who wins, by what factor,\n")
	b.WriteString("where the knees fall) is measured, not assumed.\n\n")
	if o.Fast {
		b.WriteString("> NOTE: generated with -fast (trimmed sweeps). Run `go run ./cmd/p3report`\n")
		b.WriteString("> without -fast for the full grids.\n\n")
	}
	b.WriteString("Regenerate: `go run ./cmd/p3report > EXPERIMENTS.md` — or inspect any single\n")
	b.WriteString("experiment with `go run ./cmd/p3bench <figN>`.\n\n")

	section5(&b, o)
	section7(&b, o)
	sectionUtil(&b, o, "Figure 8 — baseline network utilization", experiments.Fig8)
	sectionUtil(&b, o, "Figure 9 — P3 network utilization", experiments.Fig9)
	section10(&b, o)
	section11(&b, o)
	section12(&b, o)
	sectionUtil(&b, o, "Figure 13 — TensorFlow-style utilization (Appendix B.1)", experiments.Fig13)
	sectionUtil(&b, o, "Figure 14 — Poseidon/WFBP utilization (Appendix B.1)", experiments.Fig14)
	section15(&b, o)
	sectionHeadline(&b, o)
	sectionAblation(&b, o)
	sectionSched(&b, o)
	sectionRack(&b, o)
	sectionFaults(&b, o)
	sectionAllreduce(&b, o)
	sectionTTA(&b, o)
	sectionCompression(&b, o)
	sectionSensitivity(&b, o)
	sectionDeviations(&b)
	return b.String()
}

func sectionCompression(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Extension — compression family (related work)\n\n")
	b.WriteString("The quantization/sparsification baselines the paper cites (QSGD, TernGrad,\n")
	b.WriteString("1-bit SGD, DGC) on the substitute task: bandwidth bought with accuracy risk,\n")
	b.WriteString("versus the dense exchange P3 keeps.\n\n")
	b.WriteString(tsvToMarkdown(experiments.CompressionTable(experiments.ExtCompression(o))))
	b.WriteString("\n")
}

func sectionSensitivity(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Sensitivity — server count and batch size (Appendix A.7 knobs)\n\n")
	b.WriteString("VGG-19 at 15 Gbps on 4 machines, per-machine images/sec. Fewer servers\n")
	b.WriteString("concentrate ingress and update load (P3's pipelining matters more); larger\n")
	b.WriteString("batches stretch compute against fixed communication (everything hides).\n\n")
	b.WriteString(tsvToMarkdown(experiments.SensitivityTable(experiments.Sensitivity(o))))
	b.WriteString("\n")
}

func sectionDeviations(b *strings.Builder) {
	b.WriteString("## Known deviations from the paper\n\n")
	b.WriteString("1. **Absolute scale is calibrated, comparisons are measured.** Per-worker\n")
	b.WriteString("   compute-bound throughput is pinned to the paper's high-bandwidth plateaus\n")
	b.WriteString("   (`internal/model/timing.go`); everything else — knees, gaps, crossovers — emerges from\n")
	b.WriteString("   the simulated mechanisms.\n")
	b.WriteString("2. **Slicing-only at 30 Gbps on VGG-19 under-gains** (~+17% measured vs +49%\n")
	b.WriteString("   quoted). At that bandwidth the baseline's penalty is dominated by endpoint\n")
	b.WriteString("   (de)serialization costs that our two-rate endpoint model captures only\n")
	b.WriteString("   coarsely. At 15 Gbps — where the paper quotes its headline +66% — the\n")
	b.WriteString("   reproduction agrees within a few points.\n")
	b.WriteString("3. **InceptionV3's gain is smaller than quoted** (+7% vs +18% at 4 Gbps); its\n")
	b.WriteString("   many small tensors leave less queueing delay for P3 to remove in our\n")
	b.WriteString("   model. The qualitative claims (baseline knee below ~6 Gbps, slicing alone\n")
	b.WriteString("   useless) reproduce.\n")
	b.WriteString("4. **Convergence experiments run the substitute task** (residual MLP on\n")
	b.WriteString("   synthetic data instead of ResNet-110/CIFAR-10, which requires data and\n")
	b.WriteString("   GPUs this build does not have). The reproduced *relations*: P3 == baseline\n")
	b.WriteString("   bit-identically; DGC at 99.9% sparsity trails slightly on average; ASGD\n")
	b.WriteString("   destabilizes at synchronous learning rates. DGC's warm-up schedule is\n")
	b.WriteString("   omitted, and with momentum correction our DGC occasionally matches dense\n")
	b.WriteString("   accuracy — consistent with the DGC paper's own claims, and with this\n")
	b.WriteString("   paper's observation that DGC results are hard to reproduce exactly.\n")
	b.WriteString("5. **Poseidon is approximated** by WFBP-on-PS (layer granularity, immediate\n")
	b.WriteString("   sync); Figure 14 only needs its bursty-utilization behaviour.\n")
	b.WriteString("6. **Figure 10's AWS testbed** is modelled as a 0.5x (0.6x for Sockeye)\n")
	b.WriteString("   compute-rate scaling of the P4000 profile (M60-class GPUs).\n")
}

func tsvToMarkdown(tsv string) string {
	var b strings.Builder
	rows := 0
	for _, line := range strings.Split(strings.TrimRight(tsv, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		cells := strings.Split(line, "\t")
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
		if rows == 0 {
			b.WriteString("|" + strings.Repeat(" --- |", len(cells)) + "\n")
		}
		rows++
	}
	return b.String()
}

func section5(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Figure 5 — parameter distribution\n\n")
	b.WriteString("Paper: ResNet-50 has no tensor above ~2.4M parameters; VGG-19's fc6 holds\n")
	b.WriteString("71.5% of the model; Sockeye's heaviest tensor is the *initial* embedding.\n\n")
	for _, f := range experiments.Fig5(o) {
		ys := f.Series[0].Y
		largest := slices.Max(ys)
		var total float64
		for _, y := range ys {
			total += y
		}
		fmt.Fprintf(b, "- **%s**: %d tensors, %.2fM params total, largest %.2fM (%.1f%% of model)\n",
			f.Series[0].Name, len(ys), total, largest, largest/total*100)
	}
	b.WriteString("\nMeasured: matches — 25.56M/143.67M/40.13M totals; fc6 share 71.5%; Sockeye's\n")
	b.WriteString("first tensor (source embedding) is its largest. `p3bench fig5` prints the\n")
	b.WriteString("full per-tensor tables.\n\n")
}

func section7(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Figure 7 — bandwidth vs throughput (4 machines)\n\n")
	b.WriteString("Throughput per machine (samples/sec), Baseline / Slicing / P3.\n\n")
	for _, f := range experiments.Fig7(o) {
		fmt.Fprintf(b, "### %s: %s\n\n%s\n\n", f.ID, f.Title, strings.Join(f.Notes, "\n"))
		b.WriteString(tsvToMarkdown(f.TSV()))
		base, slic, p3 := f.Series[0], f.Series[1], f.Series[2]
		bestGain, bestBW := 0.0, 0.0
		for i := range base.Y {
			if g := p3.Y[i]/base.Y[i] - 1; g > bestGain {
				bestGain, bestBW = g, base.X[i]
			}
		}
		last := len(base.Y) - 1
		fmt.Fprintf(b, "\nMeasured: max P3 gain **%+.0f%%** at %g Gbps; slicing alone %+.0f%% at %g Gbps.\n\n",
			bestGain*100, bestBW, (slic.Y[last]/base.Y[last]-1)*100, base.X[last])
	}
}

// sectionUtil is one utilization study; the paper's observation is the note
// its sub-figures share.
func sectionUtil(b *strings.Builder, o experiments.Options, title string,
	fn func(experiments.Options) []*experiments.Figure) {

	figs := fn(o)
	fmt.Fprintf(b, "## %s\n\n%s\n\n", title, strings.Join(figs[0].Notes, "\n"))
	b.WriteString("| config | dir | mean Gbps | peak Gbps | idle buckets |\n| --- | --- | --- | --- | --- |\n")
	for _, f := range figs {
		for _, s := range f.Series {
			if len(s.Y) == 0 {
				continue
			}
			peak := slices.Max(s.Y)
			var total float64
			idle := 0
			for _, y := range s.Y {
				total += y
				if y < 0.05*peak {
					idle++
				}
			}
			fmt.Fprintf(b, "| %s | %s | %.2f | %.2f | %d%% |\n",
				f.ID, s.Name, total/float64(len(s.Y)), peak, idle*100/len(s.Y))
		}
	}
	b.WriteString("\n`p3bench` prints the full 10 ms time series for each sub-figure.\n\n")
}

func section10(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Figure 10 — scalability (2–16 machines @ 10 Gbps, AWS profile)\n\n")
	b.WriteString("Aggregate samples/sec; paper: ResNet-50 baseline == P3; VGG-19 up to +61%\n")
	b.WriteString("(8 machines); Sockeye up to +18% (8 machines).\n\n")
	for _, f := range experiments.Fig10(o) {
		fmt.Fprintf(b, "### %s\n\n", f.Title)
		b.WriteString(tsvToMarkdown(f.TSV()))
		base, p3 := f.Series[0], f.Series[1]
		bestGain, bestN := 0.0, 0.0
		for i := range base.Y {
			if g := p3.Y[i]/base.Y[i] - 1; g > bestGain {
				bestGain, bestN = g, base.X[i]
			}
		}
		fmt.Fprintf(b, "\nMeasured: max P3 gain %+.0f%% at %g machines.\n\n", bestGain*100, bestN)
	}
}

func section11(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Figure 11 — convergence: P3 vs DGC (5 hyper-parameter settings)\n\n")
	b.WriteString("Paper: P3's accuracy band always above DGC's; mean DGC drop 0.4%\n")
	b.WriteString("(ResNet-110/CIFAR-10). Ours uses the substitute task (package `nn`): a residual\n")
	b.WriteString("MLP on synthetic data, DGC at 99.9% sparsity without warm-up.\n\n")
	f := experiments.Fig11(o)[0]
	last := len(f.Series[0].Y) - 1
	get := func(name string) float64 {
		for _, s := range f.Series {
			if s.Name == name {
				return s.Y[last]
			}
		}
		return -1
	}
	fmt.Fprintf(b, "| method | final min | final max |\n| --- | --- | --- |\n")
	fmt.Fprintf(b, "| p3 (== baseline, bit-identical) | %.4f | %.4f |\n", get("p3_min"), get("p3_max"))
	fmt.Fprintf(b, "| dgc | %.4f | %.4f |\n", get("dgc_min"), get("dgc_max"))
	fmt.Fprintf(b, "\nMeasured band gap at the final epoch: P3 max %+.2f%% over DGC max.\n",
		(get("p3_max")-get("dgc_max"))*100)
	b.WriteString("P3 == baseline exactly: `internal/train`'s bit-identity test proves the\n")
	b.WriteString("aggregation arithmetic is unchanged by slicing or priority reordering.\n\n")
}

func section12(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Figure 12 — slice size vs throughput\n\n")
	b.WriteString("Paper: throughput peaks at 50,000 parameters per slice; per-message overhead\n")
	b.WriteString("dominates below, pipelining degrades above.\n\n")
	for _, f := range experiments.Fig12(o) {
		fmt.Fprintf(b, "### %s\n\n", f.Title)
		b.WriteString(tsvToMarkdown(f.TSV()))
		s := f.Series[0]
		peakX, peakY := 0.0, 0.0
		for i := range s.Y {
			if s.Y[i] > peakY {
				peakX, peakY = s.X[i], s.Y[i]
			}
		}
		fmt.Fprintf(b, "\nMeasured peak: %.0f-parameter slices (%.1f samples/sec).\n\n", peakX, peakY)
	}
}

func section15(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Figure 15 — ASGD vs P3, accuracy over wall-clock (Appendix B.2)\n\n")
	b.WriteString("Paper: P3 reaches 93% final vs ASGD's 88%, and hits 80% ~6x sooner despite\n")
	b.WriteString("ASGD's faster iterations. Iteration times below come from the simulator\n")
	b.WriteString("(ResNet-110 profile, 4 machines, 1 Gbps); accuracies from the substitute task.\n\n")
	f := experiments.Fig15(o)[0]
	for _, n := range f.Notes {
		fmt.Fprintf(b, "- %s\n", n)
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
		fmt.Fprintf(b, "- **%s**: final accuracy %.4f; 80%% reached at %s\n",
			s.Name, s.Y[len(s.Y)-1], to80)
	}
	b.WriteString("\n")
}

func sectionHeadline(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Section 5.3 headline speedups\n\n")
	b.WriteString(tsvToMarkdown(experiments.HeadlineTable(experiments.Headline(o))))
	b.WriteString("\n(`speedup%` is measured P3-vs-baseline; `paper%` is the quoted value.)\n\n")
}

func sectionAblation(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Ablation — contribution of each design decision\n\n")
	b.WriteString("Per-machine throughput when enabling each P3 mechanism in isolation\n")
	b.WriteString("(immediate broadcast, slicing, priority) versus the full design: Section\n")
	b.WriteString("4.2's three modifications, one at a time.\n\n")
	b.WriteString(tsvToMarkdown(experiments.AblationTable(experiments.Ablation(o))))
	b.WriteString("\n")
}

func sectionSched(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Scheduler ablation — every discipline, both aggregation paths\n\n")
	b.WriteString("Every discipline in the internal/sched registry applied to the same sliced\n")
	b.WriteString("immediate-broadcast strategy, on the parameter-server cluster and on ring\n")
	b.WriteString("all-reduce, so transmission order is the only variable. `ttc_speedup_vs_fifo`\n")
	b.WriteString("is time-to-convergence relative to fifo on the same path (synchronous SGD\n")
	b.WriteString("converges identically under every order, so it scales with iteration time).\n")
	b.WriteString("p3, credit, and smallest form the leading pack; tictac — TicTac-style\n")
	b.WriteString("critical-path ranks from the model's timing profile — tracks p3 closely,\n")
	b.WriteString("as expected for linear-chain models where timing-derived order nearly\n")
	b.WriteString("coincides with layer order; credit-adaptive matches credit while sizing its\n")
	b.WriteString("per-destination windows by AIMD instead of a hand-picked constant.\n\n")
	b.WriteString(tsvToMarkdown(experiments.SchedulerTable(experiments.SchedulerAblation(o))))
	b.WriteString("\n")
}

func sectionRack(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Extension — rack-scale topology (oversubscribed core, spine tier, in-network aggregation)\n\n")
	b.WriteString("The regime past the paper's flat testbed, in the spirit of Parameter Hub's\n")
	b.WriteString("rack-scale co-design: machines in racks behind an oversubscribed core (and,\n")
	b.WriteString("on the two-tier cells, a 4:1 spine over two pods), with server placement,\n")
	b.WriteString("host/core/spine disciplines, in-rack and hierarchical aggregation, the\n")
	b.WriteString("aggregator reduce rate (`agg_GBps`; `inf` = free switch-side reduction) and\n")
	b.WriteString("the rack-local parameter cache (`local`, on the pull-mode `baseline`\n")
	b.WriteString("strategy rows) as axes. `core_MB`/`spine_MB` are the payload volumes that\n")
	b.WriteString("serialized through the ToR and spine ports — the traffic each reduction\n")
	b.WriteString("tier exists to shrink.\n\n")
	b.WriteString(tsvToMarkdown(experiments.RackTable(experiments.Rack(o))))
	b.WriteString("\n")
}

func sectionFaults(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Extension — fault injection and graceful degradation\n\n")
	b.WriteString("Scripted faults (internal/faults) on the rack-aggregated cluster: a 1.5x\n")
	b.WriteString("compute straggler, a half-rate host NIC, and a permanent aggregator crash\n")
	b.WriteString("that forces every affected reduction through the timeout/re-push failover.\n")
	b.WriteString("`retained_pct` is throughput relative to the same discipline's clean cell\n")
	b.WriteString("— the graceful-degradation measure. In the comm-bound regime every\n")
	b.WriteString("discipline absorbs the compute straggler almost entirely. The credit\n")
	b.WriteString("window cuts both ways: under the degraded NIC its bounded in-flight bytes\n")
	b.WriteString("keep the slowed link's queue shallow (most throughput retained), but\n")
	b.WriteString("under the crash a fixed window sized for the healthy in-rack round-trip\n")
	b.WriteString("throttles the much slower direct-to-server failover path (least retained)\n")
	b.WriteString("— a static-window/BDP mismatch that argues for adaptive windows.\n\n")
	b.WriteString(tsvToMarkdown(experiments.FaultsTable(experiments.Faults(o))))
	b.WriteString("\n")
}

func sectionAllreduce(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Extension — P3 principles on ring all-reduce (Section 6 claim)\n\n")
	b.WriteString("The paper claims slicing + priority generalize beyond the parameter server.\n")
	b.WriteString("`internal/ring` implements ring all-reduce on the same substrate:\n\n")
	for _, f := range experiments.ExtAllreduce(o) {
		fmt.Fprintf(b, "### %s\n\n", f.Title)
		b.WriteString(tsvToMarkdown(f.TSV()))
		layer, p3 := f.Series[0], f.Series[2]
		bestGain, bestBW := 0.0, 0.0
		for i := range layer.Y {
			if g := p3.Y[i]/layer.Y[i] - 1; g > bestGain {
				bestGain, bestBW = g, layer.X[i]
			}
		}
		fmt.Fprintf(b, "\nMeasured: sliced+priority all-reduce gains up to %+.0f%% over\nlayer-granularity all-reduce (at %g Gbps).\n\n", bestGain*100, bestBW)
	}
}

func sectionTTA(b *strings.Builder, o experiments.Options) {
	b.WriteString("## Extension — time to accuracy\n\n")
	b.WriteString("Combining both halves of the reproduction: simulated iteration time x\n")
	b.WriteString("measured statistical efficiency. DGC iterates fastest but converges lower;\n")
	b.WriteString("P3 keeps dense convergence at near-compute-bound speed.\n\n")
	b.WriteString(tsvToMarkdown(experiments.TimeToAccuracyTable(experiments.TimeToAccuracy(o))))
	b.WriteString("\n")
}
