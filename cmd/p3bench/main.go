// Command p3bench regenerates the tables and figures of the paper's
// evaluation section, one target per entry of experiments.All (`p3bench -h`
// lists them). A figure prints an ASCII rendering plus the underlying TSV
// series, with the paper's reference values in the notes; a table prints
// its TSV.
//
// Usage:
//
//	p3bench [-fast] [-seed N] [-shards N] [-plot] [-tsv] [-baseline FILE] [TARGET... | bench | all]
//
// The throughput/utilization experiments run on the discrete-event
// simulator and take seconds. Every sweep spreads its cells over GOMAXPROCS
// workers, and every parameter-server cell runs on -shards engine shards:
// by default one, since the cell pool already fills every core and sharding
// has measured slower than one engine on two cores (ring all-reduce cells
// always run one shard; results are bit-identical at any value). The
// convergence experiments (fig11, fig15, tta) train real networks and take
// minutes without -fast.
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
	"slices"
	"strings"

	"p3/internal/benchmarks"
	"p3/internal/experiments"
)

// ids lists the experiments' IDs in experiments.All's order.
func ids() []string {
	out := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		out[i] = e.ID
	}
	return out
}

// expandTargets resolves the command line's targets into the list to run, in
// order and without repeats: no target at all, or "all" wherever it appears,
// stands for every experiment in experiments.All (not for bench); -baseline
// implies bench. A name that is neither an experiment, bench nor all is an
// error.
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
			add(ids()...)
		case a == "bench" || slices.Contains(ids(), a):
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
	shards := flag.Int("shards", 1, "simulation shards per parameter-server cell: >= 2 runs the conservative-lookahead parallel engine, which has measured slower than one engine on 2 cores (results are bit-identical at any value)")
	plot := flag.Bool("plot", true, "render ASCII plots")
	tsv := flag.Bool("tsv", true, "print TSV series")
	baseline := flag.String("baseline", "", "compare dispatch microbenchmarks against this artifact; exit 1 on regression (implies the bench target)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: p3bench [flags] [%s|bench|all]...\n", strings.Join(ids(), "|"))
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
		if t == "bench" {
			runBench(*baseline, *fast)
			continue
		}
		// expandTargets let nothing else through.
		e := experiments.All[slices.IndexFunc(experiments.All, func(e experiments.Experiment) bool { return e.ID == t })]
		if e.Table != nil {
			fmt.Printf("== %s ==\n%s\n", e.Title, e.Table(o))
			continue
		}
		for _, fig := range e.Figures(o) {
			if *plot {
				fmt.Println(fig.ASCII(72, 16))
			}
			if *tsv {
				fmt.Println(fig.TSV())
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
