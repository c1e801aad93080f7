// Command p3train runs the convergence experiments' data-parallel trainer
// directly: pick an aggregation mode (dense = baseline/P3, dgc, asgd) and
// hyper-parameters, and watch per-epoch validation accuracy — the workload
// behind Figures 11 and 15.
//
// Example:
//
//	p3train -mode dgc -sparsity 0.999 -lr 0.07 -epochs 40 -workers 4
//
// A setting the trainer cannot run with (train.Config.Validate's verdict, or
// a dataset too small to split and shard) prints one line and exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"p3/internal/data"
	"p3/internal/nn"
	"p3/internal/opt"
	"p3/internal/train"
)

// classes is the synthetic task's class count. data.Set.Split(0.25) sends
// every fourth sample of a class to validation, so a dataset needs at least
// four samples per class for a non-empty validation set.
const classes = 10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, trains, reports on stdout, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p3train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "dense", "aggregation: dense|dgc|asgd")
	lr := fs.Float64("lr", 0.05, "base learning rate")
	momentum := fs.Float64("momentum", 0.9, "SGD momentum")
	sparsity := fs.Float64("sparsity", 0.999, "DGC sparsity (dgc mode)")
	workers := fs.Int("workers", 4, "data-parallel workers")
	batch := fs.Int("batch", 16, "per-worker batch size")
	epochs := fs.Int("epochs", 40, "training epochs")
	samples := fs.Int("samples", 3840, "synthetic dataset size")
	width := fs.Int("width", 64, "residual MLP width")
	blocks := fs.Int("blocks", 4, "residual blocks")
	clip := fs.Float64("clip", 2, "gradient clipping norm (0 = off)")
	seed := fs.Int64("seed", 11, "seed")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "p3train: "+format+"\n", a...)
		return 2
	}

	var m train.Mode
	switch *mode {
	case "dense":
		m = train.Dense
	case "dgc":
		m = train.DGC
	case "asgd":
		m = train.ASGD
	default:
		return fail("unknown mode %q (want dense|dgc|asgd)", *mode)
	}
	cfg := train.Config{
		Net:      nn.Config{In: 64, Width: *width, Classes: classes, Blocks: *blocks, Seed: 3},
		Workers:  *workers,
		Batch:    *batch,
		Epochs:   *epochs,
		Schedule: opt.StepSchedule{Base: *lr, Gamma: 0.1, Milestones: []int{*epochs * 5 / 8, *epochs * 7 / 8}},
		Momentum: *momentum, WeightDecay: 1e-4, ClipNorm: *clip,
		Mode: m, DGCSparsity: *sparsity,
		Seed: *seed,
	}
	if err := cfg.Validate(); err != nil {
		return fail("%v", err)
	}
	if *samples < 4*classes {
		return fail("-samples %d: must be at least %d (four per class, for a validation split)", *samples, 4*classes)
	}

	set := data.Generate(data.Config{Samples: *samples, Features: 64, Classes: classes, Noise: 1.5, Seed: 7})
	tr, val := set.Split(0.25)
	if tr.N() < *workers {
		return fail("-samples %d: %d training samples cannot shard over %d workers", *samples, tr.N(), *workers)
	}
	fmt.Fprintf(stdout, "dataset: %d train / %d val, %d classes\n", tr.N(), val.N(), classes)
	h, net := train.Run(cfg, tr, val)
	fmt.Fprintf(stdout, "mode=%v workers=%d params=%d\n", m, *workers, net.NumParams())
	for e := range h.ValAcc {
		fmt.Fprintf(stdout, "epoch %3d  loss %.4f  val_acc %.4f\n", e+1, h.TrainLoss[e], h.ValAcc[e])
	}
	fmt.Fprintf(stdout, "final val accuracy: %.4f after %d iterations\n", h.FinalValAcc, h.Iterations)
	return 0
}
