// Convergence: train the same residual classifier with synchronous dense
// aggregation (what the baseline AND P3 compute — identical by
// construction), with Deep Gradient Compression, and with asynchronous SGD,
// then print the validation-accuracy trajectories side by side — the
// substance of the paper's Section 5.6 and Appendix B.2.
//
//	go run ./examples/convergence
package main

import (
	"fmt"

	"p3/internal/data"
	"p3/internal/nn"
	"p3/internal/opt"
	"p3/internal/train"
)

func main() {
	set := data.Generate(data.Config{Samples: 2560, Features: 64, Classes: 10, Noise: 1.5, Seed: 7})
	tr, val := set.Split(0.25)
	fmt.Printf("synthetic task: %d train / %d val samples, 10 classes\n\n", tr.N(), val.N())

	netCfg := nn.Config{In: 64, Width: 64, Classes: 10, Blocks: 4, Seed: 3}
	const epochs = 24
	base := train.Config{
		Net: netCfg, Workers: 4, Batch: 16, Epochs: epochs,
		Schedule: opt.StepSchedule{Base: 0.06, Gamma: 0.1, Milestones: []int{15, 21}},
		Momentum: 0.9, WeightDecay: 1e-4, ClipNorm: 2,
		Seed: 11,
	}

	modes := []struct {
		label string
		cfg   func(train.Config) train.Config
	}{
		{"p3/baseline (dense)", func(c train.Config) train.Config { c.Mode = train.Dense; return c }},
		{"dgc @99.9%", func(c train.Config) train.Config {
			c.Mode = train.DGC
			c.DGCSparsity = 0.999
			return c
		}},
		{"asgd", func(c train.Config) train.Config { c.Mode = train.ASGD; return c }},
	}

	histories := make([]*train.History, len(modes))
	for i, m := range modes {
		h, _ := train.Run(m.cfg(base), tr, val)
		histories[i] = h
	}

	fmt.Printf("%6s", "epoch")
	for _, m := range modes {
		fmt.Printf("%22s", m.label)
	}
	fmt.Println()
	for e := 0; e < epochs; e++ {
		fmt.Printf("%6d", e+1)
		for _, h := range histories {
			fmt.Printf("%22.4f", h.ValAcc[e])
		}
		fmt.Println()
	}
	fmt.Println()
	for i, m := range modes {
		fmt.Printf("final %-22s %.4f\n", m.label+":", histories[i].FinalValAcc)
	}
	fmt.Println("\npaper's finding: P3 == baseline exactly; DGC slightly below; ASGD below and unstable at higher learning rates")
}
