// Command p3bench regenerates every table and figure of the paper's
// evaluation section. Each experiment prints an ASCII rendering plus the
// underlying TSV series, with the paper's reference values in the notes.
//
// Usage:
//
//	p3bench [-fast] [-seed N] [-shards N] [-plot] [-baseline FILE] \
//	        [fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 \
//	         headline ablation sched scale rack faults allreduce tta compression \
//	         sensitivity bench | all]
//
// The throughput/utilization experiments (fig5, fig7-10, fig12-14, headline)
// run on the discrete-event simulator and take seconds. Every sweep spreads
// its cells over GOMAXPROCS workers, and every parameter-server cell runs on
// -shards engine shards (ring all-reduce cells run one shard; results are
// bit-identical at any value). The
// convergence experiments (fig11, fig15) train real networks and take minutes
// without -fast.
//
// bench runs the dispatch-path microbenchmarks (ns/op + allocs/op for the
// scheduler queue, transport queue and event engine) plus the zoo-simulation
// timings. -baseline FILE compares the microbenchmarks against a checked-in
// artifact and exits non-zero when any dispatch path allocates at steady
// state or regresses ns/op by more than 25% (calibration-scaled) — the CI
// regression gate. (The repository's benchmark is `go run ./bench`; its
// -json writes bench/out/result-N.json.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"p3/internal/benchmarks"
	"p3/internal/experiments"
)

var figOrder = []string{
	"fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"headline", "ablation", "sched", "scale", "rack", "faults", "allreduce", "tta", "compression", "sensitivity",
}

// figures are the targets that render as plots and TSV series; the other
// names in figOrder render as tables.
var figures = map[string]func(experiments.Options) []*experiments.Figure{
	"fig5":      experiments.Fig5,
	"fig7":      experiments.Fig7,
	"fig8":      experiments.Fig8,
	"fig9":      experiments.Fig9,
	"fig10":     experiments.Fig10,
	"fig11":     experiments.Fig11,
	"fig12":     experiments.Fig12,
	"fig13":     experiments.Fig13,
	"fig14":     experiments.Fig14,
	"fig15":     experiments.Fig15,
	"allreduce": experiments.ExtAllreduce,
}

// expandTargets resolves the command line's targets into the list to run, in
// order and without repeats: no target at all, or "all" wherever it appears,
// stands for every experiment in figOrder (not for bench); -baseline implies
// bench. A name that is neither an experiment, bench nor all is an error.
func expandTargets(args []string, baseline bool) ([]string, error) {
	if len(args) == 0 {
		args = []string{"all"}
	}
	var out []string
	add := func(names ...string) {
		for _, n := range names {
			if !slices.Contains(out, n) {
				out = append(out, n)
			}
		}
	}
	for _, a := range args {
		switch {
		case a == "all":
			add(figOrder...)
		case a == "bench" || slices.Contains(figOrder, a):
			add(a)
		default:
			return nil, fmt.Errorf("unknown target %q", a)
		}
	}
	if baseline {
		add("bench")
	}
	return out, nil
}

func main() {
	fast := flag.Bool("fast", false, "trimmed sweeps (for smoke runs)")
	seed := flag.Int64("seed", 0, "workload seed")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "simulation shards per parameter-server cell (results are bit-identical at any value)")
	plot := flag.Bool("plot", true, "render ASCII plots")
	tsv := flag.Bool("tsv", true, "print TSV series")
	baseline := flag.String("baseline", "", "compare dispatch microbenchmarks against this artifact; exit 1 on regression (implies the bench target)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: p3bench [flags] [%s|bench|all]...\n", strings.Join(figOrder, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()

	targets, err := expandTargets(flag.Args(), *baseline != "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "p3bench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	o := experiments.Options{Fast: *fast, Seed: *seed, Shards: *shards}
	for _, t := range targets {
		switch {
		case t == "headline":
			fmt.Println("== Section 5.3 headline speedups (P3 vs baseline) ==")
			fmt.Print(experiments.HeadlineTable(experiments.Headline(o)))
			fmt.Println()
		case t == "ablation":
			fmt.Println("== Ablation: contribution of each P3 design decision (per-machine samples/sec) ==")
			fmt.Print(experiments.AblationTable(experiments.Ablation(o)))
			fmt.Println()
		case t == "sched":
			fmt.Println("== Scheduler ablation: every queue discipline on the sliced strategy (internal/sched) ==")
			fmt.Print(experiments.SchedulerTable(experiments.SchedulerAblation(o)))
			fmt.Println()
		case t == "scale":
			fmt.Println("== Scale axis: cluster sizes past the paper's testbed (resnet50 @1.5Gbps, sliced strategy) ==")
			fmt.Print(experiments.ScaleTable(experiments.Scale(o)))
			fmt.Println()
		case t == "rack":
			fmt.Println("== Rack axis: multi-rack topology, oversubscribed core, server placement (resnet50 @1.5Gbps) ==")
			fmt.Print(experiments.RackTable(experiments.Rack(o)))
			fmt.Println()
		case t == "faults":
			fmt.Println("== Faults: scripted stragglers, link degradation and aggregator crashes per discipline (resnet50 @1.5Gbps, rack-aggregated) ==")
			fmt.Print(experiments.FaultsTable(experiments.Faults(o)))
			fmt.Println()
		case t == "compression":
			fmt.Println("== Extension: compression family (related work, Section 6) vs dense exchange ==")
			fmt.Print(experiments.CompressionTable(experiments.ExtCompression(o)))
			fmt.Println()
		case t == "sensitivity":
			fmt.Println("== Sensitivity: server count and batch size (VGG-19 @15Gbps, per-machine images/sec) ==")
			fmt.Print(experiments.SensitivityTable(experiments.Sensitivity(o)))
			fmt.Println()
		case t == "tta":
			fmt.Println("== Extension: time-to-accuracy (ResNet-110 profile @1Gbps iteration times x substitute-task convergence) ==")
			fmt.Print(experiments.TimeToAccuracyTable(experiments.TimeToAccuracy(o)))
			fmt.Println()
		case t == "bench":
			runBench(*baseline, *fast)
		default: // a figure: expandTargets let nothing else through
			for _, fig := range figures[t](o) {
				if *plot {
					fmt.Println(fig.ASCII(72, 16))
				}
				if *tsv {
					fmt.Println(fig.TSV())
				}
			}
		}
	}
}

// runBench measures the dispatch microbenchmarks (and, unless gating only,
// the zoo simulation timings), prints them, and optionally enforces the
// regression gate.
func runBench(baselinePath string, fast bool) {
	// The CI gate skips the zoo sims: the gate's thresholds cover only the
	// microbenchmarks, and the sims add minutes.
	withSims := baselinePath == "" && !fast
	fmt.Println("== Dispatch microbenchmarks (ns/op, allocs/op) and zoo sim timings ==")
	art := benchmarks.Collect(withSims)
	fmt.Printf("go\t%s\tGOMAXPROCS\t%d\tcalib_ns\t%.2f\n", art.GoVersion, art.GOMAXPROCS, art.CalibNs)
	fmt.Println("benchmark\tns/op\tallocs/op\tB/op")
	for _, r := range art.Dispatch {
		fmt.Printf("%s\t%.1f\t%d\t%d\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	if len(art.Sims) > 0 {
		fmt.Println("sim\tmachines\titer_ms\twall_ms\tevents")
		for _, s := range art.Sims {
			fmt.Printf("%s\t%d\t%.2f\t%.1f\t%d\n", s.Name, s.Machines, s.IterMs, s.WallMs, s.Events)
		}
	}
	fmt.Println()

	if baselinePath != "" {
		buf, err := os.ReadFile(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p3bench: reading baseline: %v\n", err)
			os.Exit(1)
		}
		var base benchmarks.Artifact
		if err := json.Unmarshal(buf, &base); err != nil {
			fmt.Fprintf(os.Stderr, "p3bench: parsing baseline %s: %v\n", baselinePath, err)
			os.Exit(1)
		}
		violations := benchmarks.Check(art, &base, 0.25)
		if len(violations) > 0 {
			// Shared runners suffer multi-second CPU-steal phases that spike
			// ns/op past any tolerance the start-of-run calibration can
			// correct for, and survive even the min-of-reps statistic. A real
			// regression reproduces in a fresh measurement round; a steal
			// spike does not — so the gate fails only on violations that
			// recur for the same benchmark in an independent re-measurement.
			fmt.Fprintf(os.Stderr, "p3bench: first measurement round regressed (%d violation(s)); re-measuring\n", len(violations))
			retry := benchmarks.Check(benchmarks.Collect(false), &base, 0.25)
			recurred := make(map[string]bool, len(retry))
			for _, v := range retry {
				recurred[v[:strings.Index(v, ":")]] = true
			}
			var confirmed []string
			for _, v := range violations {
				if recurred[v[:strings.Index(v, ":")]] {
					confirmed = append(confirmed, v)
				}
			}
			violations = confirmed
		}
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "p3bench: dispatch benchmarks regressed against %s in both measurement rounds:\n", baselinePath)
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("benchmark gate passed against %s (tolerance 25%%, allocs/op must be 0)\n\n", baselinePath)
	}
}
