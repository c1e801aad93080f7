// Command p3worker drives real P3 parameter servers with a synthetic
// training workload: it slices a zoo model's gradient set, emits the slices
// in backpropagation order (last layer first) with forward-order priorities,
// waits for every updated slice to return, and reports iteration times —
// a real-network microbenchmark of the mechanism, usable on loopback or
// across machines (the paper's Appendix A benchmark workflow). The -sched
// flag selects the send-queue discipline (see internal/sched).
//
// Start the servers first, then one p3worker per machine:
//
//	p3server -addr :9700 -workers 2 &   p3server -addr :9701 -workers 2 &
//	p3worker -id 0 -servers 127.0.0.1:9700,127.0.0.1:9701 -model resnet50 &
//	p3worker -id 1 -servers 127.0.0.1:9700,127.0.0.1:9701 -model resnet50
//
// Every worker must use the same -model, -slice and -servers list (they
// define the shared key space).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/pstcp"
	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/transport"
	"p3/internal/zoo"
)

// initIter tags the Pull that confirms the Inits landed, and its Data.
const initIter = -1

// options is what the command line asks for beyond the worker's config.
type options struct {
	iters, warmup, batch int
	slice                int64
	gbps                 float64
	stallsIn             string
	calibrate            bool
	model                *model.Model
}

// parseFlags maps the command line onto a pstcp.WorkerConfig (all but its
// Handler), rejects what the run cannot use and builds the timing profile
// (static, or calibrated from -stalls).
func parseFlags(args []string) (cfg pstcp.WorkerConfig, opt options, err error) {
	fs := flag.NewFlagSet("p3worker", flag.ContinueOnError)
	fs.IntVar(&cfg.ID, "id", 0, "worker id (0-based, unique per worker)")
	serverList := fs.String("servers", "127.0.0.1:9700", "comma-separated server addresses")
	modelName := fs.String("model", "resnet110", "zoo model defining the gradient set")
	fs.Int64Var(&opt.slice, "slice", 0, "max slice size in parameters (0 = paper default 50k)")
	fs.IntVar(&opt.iters, "iters", 20, "iterations to run")
	fs.IntVar(&opt.warmup, "warmup", 3, "warm-up iterations excluded from stats")
	fs.StringVar(&cfg.Sched, "sched", "p3", "send-queue discipline: "+strings.Join(sched.Usage(), "|")+" (p3 = paper, fifo = baseline)")
	fs.Float64Var(&opt.gbps, "gbps", 10, "estimated wire rate (Gbps) for the tictac timing profile's transfer estimates")
	fs.IntVar(&opt.batch, "batch", 32, "nominal batch size (throughput accounting only)")
	fs.StringVar(&opt.stallsIn, "stalls", "", "calibrated mode: build the timing profile from this measured stall file (p3sim -stallsout) instead of static timing alone")
	fs.BoolVar(&opt.calibrate, "calibrate", false, "live calibrated mode: after the warm-up iterations, rebuild the timing profile from this worker's own measured per-layer stalls and re-rank subsequent sends against it")
	if err = fs.Parse(args); err != nil {
		return cfg, opt, err
	}
	if opt.iters < 1 {
		// The mean sync time divides by the measured iterations.
		return cfg, opt, fmt.Errorf("-iters %d: must be at least 1", opt.iters)
	}
	if opt.calibrate && opt.warmup < 1 {
		return cfg, opt, fmt.Errorf("-calibrate needs at least one warm-up iteration to measure (-warmup >= 1)")
	}
	if _, err = sched.ByName(cfg.Sched); err != nil {
		return cfg, opt, err
	}
	if opt.model, err = zoo.Lookup(*modelName); err != nil {
		return cfg, opt, err
	}
	cfg.Servers = strings.Split(*serverList, ",")
	cfg.Profile = strategy.ComputeProfile(opt.model, opt.gbps)
	if opt.stallsIn != "" {
		stalls, err := strategy.ReadStallFile(opt.stallsIn)
		if err != nil {
			return cfg, opt, err
		}
		cfg.Profile = strategy.CalibrateProfile(opt.model, opt.gbps, stalls)
	}
	return cfg, opt, nil
}

func main() {
	cfg, opt, err := parseFlags(os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "p3worker:", err)
		}
		os.Exit(2)
	}
	id, m, warmup := cfg.ID, opt.model, opt.warmup
	plan := core.PartitionSlices(m, opt.slice, len(cfg.Servers))
	fmt.Printf("p3worker %d: %s -> %d slices over %d servers (%.1f MB gradients/iter)\n",
		id, m, plan.NumChunks(), len(cfg.Servers), float64(m.TotalBytes())/1e6)
	if opt.stallsIn != "" {
		fmt.Printf("p3worker %d: timing profile calibrated from measured stalls in %s\n", id, opt.stallsIn)
	}

	// Preallocate one gradient buffer per chunk (contents are irrelevant to
	// the transport; sizes are the real ones).
	grads := make([][]float32, plan.NumChunks())
	for i, c := range plan.Chunks {
		grads[i] = make([]float32, c.Params)
	}

	recv := make(chan struct{}, plan.NumChunks()+8)
	initAck := make(chan struct{}, len(cfg.Servers)) // a server's confirming Pull was answered

	// Live calibration state: the handler records, per layer, when the
	// layer's last updated slice arrived relative to the iteration start;
	// after warm-up the mean overshoot past the static deadline becomes the
	// measured stall profile.
	var calMu sync.Mutex
	var iterStart time.Time
	layerLast := make([]time.Duration, len(m.Layers))

	cfg.Handler = func(f *transport.Frame) {
		if f.Type == transport.TypeData && f.Iter == initIter {
			select {
			case initAck <- struct{}{}:
			default: // a repeated answer nobody waits for any more
			}
		} else if f.Type == transport.TypeData {
			if opt.calibrate {
				if l := plan.Chunks[f.Key].Layer; l < len(layerLast) {
					calMu.Lock()
					//p3:wallclock-ok calibration measures real per-layer latency
					if d := time.Since(iterStart); d > layerLast[l] {
						layerLast[l] = d
					}
					calMu.Unlock()
				}
			}
			recv <- struct{}{}
		}
	}
	worker, err := pstcp.DialWorkerCfg(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "p3worker:", err)
		os.Exit(1)
	}
	defer worker.Close()

	if id == 0 {
		// Confirm the Inits landed before any traffic, or a Push overtakes its
		// Init and the server zero-initialises the key from the push's shape:
		// Pull each server's last key after the Inits, in their own priority
		// class, and wait for its Data. A server parks a pull for a key it has
		// not made yet until the key's Init lands, so every Pull is answered
		// once. Every discipline that orders a class by arrival (all but the
		// size-ordered one) lands that last Init only after every other one;
		// ordered by size, a Push cannot overtake its equally sized Init
		// anyway.
		last := make(map[int]core.Chunk) // per server that owns any key
		for _, c := range plan.Chunks {
			worker.Init(c.Server, uint64(c.ID), grads[c.ID])
			last[c.Server] = c
		}
		for _, c := range last {
			worker.Pull(c.Server, uint64(c.ID), initIter, 0)
		}
		for range last {
			<-initAck
		}
	}

	var measured []time.Duration
	stallSum := make([]sim.Time, len(m.Layers))
	for it := 0; it < warmup+opt.iters; it++ {
		//p3:wallclock-ok iteration timing measures the real transport
		start := time.Now()
		calMu.Lock()
		iterStart = start
		for l := range layerLast {
			layerLast[l] = 0
		}
		calMu.Unlock()
		// Gradient generation order: backpropagation walks the layers from
		// last to first; priorities (forward order) are what reorder the
		// wire under -priority.
		for l := len(m.Layers) - 1; l >= 0; l-- {
			for _, cid := range plan.LayerChunks(l) {
				c := plan.Chunks[cid]
				worker.Push(c.Server, uint64(c.ID), int32(it), int32(c.Priority), grads[c.ID])
			}
		}
		for n := 0; n < plan.NumChunks(); n++ {
			<-recv
		}
		if opt.calibrate && it < warmup {
			// Overshoot past the static consumption deadline is the measured
			// stall the calibrated profile feeds back.
			calMu.Lock()
			for l := range layerLast {
				if over := layerLast[l].Nanoseconds() - cfg.Profile.NeedAtNs[l]; over > 0 {
					stallSum[l] += sim.Time(over)
				}
			}
			calMu.Unlock()
		}
		if opt.calibrate && it == warmup-1 {
			stalls := make([]sim.Time, len(stallSum))
			var total sim.Time
			for l, s := range stallSum {
				stalls[l] = s / sim.Time(warmup)
				total += stalls[l]
			}
			worker.SetProfile(strategy.CalibrateProfile(m, opt.gbps, stalls))
			fmt.Printf("p3worker %d: recalibrated timing profile from %d warm-up iterations (%.2f ms measured stall/iter)\n",
				id, warmup, total.Millis())
		}
		if it >= warmup {
			//p3:wallclock-ok iteration timing measures the real transport
			measured = append(measured, time.Since(start))
		}
	}

	var total time.Duration
	for _, d := range measured {
		total += d
	}
	mean := total / time.Duration(len(measured))
	fmt.Printf("p3worker %d: mean sync time %v over %d iterations (%.1f %s/sec at batch %d)\n",
		id, mean.Round(time.Microsecond), len(measured),
		float64(opt.batch)/mean.Seconds(), m.SampleUnit, opt.batch)
}
