// Command p3train runs the convergence experiments' data-parallel trainer
// directly: pick an aggregation mode (dense = baseline/P3, dgc, asgd) and
// hyper-parameters, and watch per-epoch validation accuracy — the workload
// behind Figures 11 and 15.
//
// Example:
//
//	p3train -mode dgc -sparsity 0.999 -lr 0.07 -epochs 40 -workers 4
package main

import (
	"flag"
	"fmt"
	"os"

	"p3/internal/data"
	"p3/internal/nn"
	"p3/internal/opt"
	"p3/internal/train"
)

func main() {
	mode := flag.String("mode", "dense", "aggregation: dense|dgc|asgd")
	lr := flag.Float64("lr", 0.05, "base learning rate")
	momentum := flag.Float64("momentum", 0.9, "SGD momentum")
	sparsity := flag.Float64("sparsity", 0.999, "DGC sparsity (dgc mode)")
	workers := flag.Int("workers", 4, "data-parallel workers")
	batch := flag.Int("batch", 16, "per-worker batch size")
	epochs := flag.Int("epochs", 40, "training epochs")
	samples := flag.Int("samples", 3840, "synthetic dataset size")
	width := flag.Int("width", 64, "residual MLP width")
	blocks := flag.Int("blocks", 4, "residual blocks")
	clip := flag.Float64("clip", 2, "gradient clipping norm (0 = off)")
	seed := flag.Int64("seed", 11, "seed")
	flag.Parse()

	var m train.Mode
	switch *mode {
	case "dense":
		m = train.Dense
	case "dgc":
		m = train.DGC
	case "asgd":
		m = train.ASGD
	default:
		fmt.Fprintf(os.Stderr, "p3train: unknown mode %q (want dense|dgc|asgd)\n", *mode)
		os.Exit(2)
	}

	set := data.Generate(data.Config{Samples: *samples, Features: 64, Classes: 10, Noise: 1.5, Seed: 7})
	tr, val := set.Split(0.25)
	fmt.Printf("dataset: %d train / %d val, 10 classes\n", tr.N(), val.N())

	cfg := train.Config{
		Net:      nn.Config{In: 64, Width: *width, Classes: 10, Blocks: *blocks, Seed: 3},
		Workers:  *workers,
		Batch:    *batch,
		Epochs:   *epochs,
		Schedule: opt.StepSchedule{Base: *lr, Gamma: 0.1, Milestones: []int{*epochs * 5 / 8, *epochs * 7 / 8}},
		Momentum: *momentum, WeightDecay: 1e-4, ClipNorm: *clip,
		Mode: m, DGCSparsity: *sparsity,
		Seed: *seed,
	}
	h, net := train.Run(cfg, tr, val)
	fmt.Printf("mode=%v workers=%d params=%d\n", m, *workers, net.NumParams())
	for e := range h.ValAcc {
		fmt.Printf("epoch %3d  loss %.4f  val_acc %.4f\n", e+1, h.TrainLoss[e], h.ValAcc[e])
	}
	fmt.Printf("final val accuracy: %.4f after %d iterations\n", h.FinalValAcc, h.Iterations)
}
