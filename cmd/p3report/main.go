// Command p3report runs the evaluation and writes the paper-versus-measured
// record to stdout in markdown — the generator behind EXPERIMENTS.md: a
// header, one section per entry of experiments.All in order, and the known
// deviations from the paper.
//
//	go run ./cmd/p3report > EXPERIMENTS.md        # full (~15 min on two cores)
//	go run ./cmd/p3report -fast                   # trimmed smoke version
package main

import (
	"flag"
	"fmt"
	"strings"

	"p3/internal/experiments"
)

func main() {
	fast := flag.Bool("fast", false, "trimmed sweeps")
	seed := flag.Int64("seed", 0, "workload seed")
	flag.Parse()
	fmt.Print(Generate(experiments.Options{Fast: *fast, Seed: *seed}, experiments.All))
}

// Generate runs the experiments and renders the report.
func Generate(o experiments.Options, list []experiments.Experiment) string {
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

	for _, e := range list {
		b.WriteString(e.Section(o))
	}
	b.WriteString(deviations)
	return b.String()
}

// deviations closes the report. TestFig7FastShapes holds the gains items 2
// and 3 quote.
const deviations = "## Known deviations from the paper\n\n" +
	"1. **Absolute scale is calibrated, comparisons are measured.** Per-worker\n" +
	"   compute-bound throughput is pinned to the paper's high-bandwidth plateaus\n" +
	"   (`internal/model/timing.go`); everything else — knees, gaps, crossovers — emerges from\n" +
	"   the simulated mechanisms.\n" +
	"2. **Slicing-only at 30 Gbps on VGG-19 under-gains** (~+17% measured vs +49%\n" +
	"   quoted). At that bandwidth the baseline's penalty is dominated by endpoint\n" +
	"   (de)serialization costs that our two-rate endpoint model captures only\n" +
	"   coarsely. At 15 Gbps — where the paper quotes its headline +66% — the\n" +
	"   reproduction agrees within a few points.\n" +
	"3. **InceptionV3's gain is smaller than quoted** (+7% vs +18% at 4 Gbps); its\n" +
	"   many small tensors leave less queueing delay for P3 to remove in our\n" +
	"   model. The qualitative claims (baseline knee below ~6 Gbps, slicing alone\n" +
	"   useless) reproduce.\n" +
	"4. **Convergence experiments run the substitute task** (residual MLP on\n" +
	"   synthetic data instead of ResNet-110/CIFAR-10, which requires data and\n" +
	"   GPUs this build does not have). The reproduced *relations*: P3 == baseline\n" +
	"   bit-identically; DGC at 99.9% sparsity trails slightly on average; ASGD\n" +
	"   destabilizes at synchronous learning rates. DGC's warm-up schedule is\n" +
	"   omitted, and with momentum correction our DGC occasionally matches dense\n" +
	"   accuracy — consistent with the DGC paper's own claims, and with this\n" +
	"   paper's observation that DGC results are hard to reproduce exactly.\n" +
	"5. **Poseidon is approximated** by WFBP-on-PS (layer granularity, immediate\n" +
	"   sync); Figure 14 only needs its bursty-utilization behaviour.\n" +
	"6. **Figure 10's AWS testbed** is modelled as a 0.5x (0.6x for Sockeye)\n" +
	"   compute-rate scaling of the P4000 profile (M60-class GPUs).\n"
