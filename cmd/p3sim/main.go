// Command p3sim runs a single simulated training configuration and reports
// its throughput, iteration breakdown and (optionally) the NIC utilization
// trace of machine 0 — the simulated analogue of one cell of the paper's
// evaluation grid.
//
// Example:
//
//	p3sim -model vgg19 -strategy p3 -bw 15 -machines 4 -slice 50000 -trace
//
// The -sched flag re-runs any strategy under a different queue discipline
// from the internal/sched registry (fifo, p3, rr, smallest, credit:<bytes>),
// and -preempt enables resumable egress transmission: serialization happens
// in segments of the given byte quantum and a strictly more urgent message
// preempts an in-flight one at the next segment boundary — the
// true-preemption upper bound that the paper's slicing approximates:
//
//	p3sim -model vgg19 -strategy slicing -sched credit:1048576 -bw 15
//	p3sim -model vgg19 -strategy p3 -bw 1.5 -preempt 65536
//
// The calibrated mode closes the stall-feedback loop: -calibrate runs two
// passes — the first on the static FLOP-derived timing profile, the second
// on a profile rebuilt from the first pass's measured per-layer stalls —
// and reports both. -stallsout writes the measured stall profile for a
// later p3server/p3worker run; -stalls starts from one instead of the
// static profile:
//
//	p3sim -model vgg19 -strategy tictac -bw 1.5 -calibrate -stallsout vgg19.stalls
//	p3sim -model vgg19 -strategy tictac -bw 1.5 -stalls vgg19.stalls
//
// Fault injection replays (or generates) a deterministic scripted plan of
// aggregator crashes, straggler windows, link degradations and worker
// leave/join events (see internal/faults). -faultplan loads a JSON plan,
// -faultseed generates one matched to the topology flags. Every
// combination of flags is checked by cluster.Config.Validate before the
// run starts:
//
//	p3sim -model resnet50 -machines 16 -racksize 4 -oversub 4 -rackagg -faultseed 7
//	p3sim -model resnet50 -machines 16 -racksize 4 -oversub 4 -rackagg -faultplan crash.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"p3/internal/cluster"
	"p3/internal/sched"
	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/zoo"
)

// options is what the command line asks for beyond the run's Config.
type options struct {
	showTrace, showLayers, calibrate bool
	stallsIn, stallsOut              string
}

// parseFlags maps the command line onto a cluster.Config, field for field
// (a flag's default is its field's zero value unless the usage text says
// otherwise), loads or generates the fault plan, and returns whatever
// Config.Validate has to say about the combination.
func parseFlags(args []string) (cfg cluster.Config, opt options, err error) {
	fs := flag.NewFlagSet("p3sim", flag.ContinueOnError)
	modelName := fs.String("model", "resnet50", "model: resnet50|inception3|vgg19|sockeye|resnet110")
	stratName := fs.String("strategy", "p3", "strategy: baseline|tensorflow|wfbp|slicing|p3|asgd")
	schedName := fs.String("sched", "", "override the strategy's queue discipline: "+strings.Join(sched.Usage(), "|"))
	slice := fs.Int64("slice", 0, "max slice size in parameters (0 = paper default 50k; slicing/p3 only)")
	fs.Int64Var(&cfg.PreemptQuantum, "preempt", 0, "egress preemption quantum in wire bytes (0 = off: in-flight messages always finish)")
	fs.Float64Var(&cfg.BandwidthGbps, "bw", 10, "per-direction NIC bandwidth in Gbps")
	fs.IntVar(&cfg.Machines, "machines", 4, "cluster size (workers == servers == machines)")
	fs.IntVar(&cfg.MeasureIters, "iters", 8, "measured iterations")
	fs.IntVar(&cfg.WarmupIters, "warmup", 2, "warm-up iterations")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.BoolVar(&opt.showTrace, "trace", false, "print machine 0's 10ms utilization trace")
	fs.BoolVar(&opt.showLayers, "layers", false, "print the model's per-tensor table (Figure 5 data) and exit")
	fs.BoolVar(&opt.calibrate, "calibrate", false, "two-pass calibrated mode: re-run with the profile rebuilt from the first pass's measured stalls and report both")
	fs.StringVar(&opt.stallsIn, "stalls", "", "run against a measured stall profile (file written by -stallsout) instead of the static timing")
	fs.StringVar(&opt.stallsOut, "stallsout", "", "write the run's measured per-layer mean stalls to this file")
	fs.IntVar(&cfg.Shards, "shards", runtime.GOMAXPROCS(0), "simulation shards: 1 runs one event loop, >= 2 the conservative-lookahead parallel engine with that many (results are bit-identical either way)")
	fs.IntVar(&cfg.Topology.RackSize, "racksize", 0, "machines per rack (0 = flat network; >0 adds per-rack ToR uplinks and an oversubscribable core)")
	fs.Float64Var(&cfg.Topology.CoreOversub, "oversub", 0, "core oversubscription ratio for -racksize topologies (0 or 1 = non-blocking core, values in (0,1) undersubscribe)")
	fs.StringVar(&cfg.Topology.CoreSched, "coresched", "", "queue discipline for the ToR core ports (requires -racksize; empty = blind FIFO ports)")
	fs.BoolVar(&cfg.RackAggregation, "rackagg", false, "in-rack gradient aggregation: reduce pushes at each rack's ToR and fan broadcasts out there (requires -racksize)")
	fs.IntVar(&cfg.Topology.Pods, "pods", 0, "group the racks into this many equal pods joined by a spine tier (0 = single-tier core; requires -racksize)")
	fs.Float64Var(&cfg.Topology.SpineOversub, "spineoversub", 0, "spine oversubscription ratio relative to each pod's aggregate ToR-uplink rate (0 or 1 = non-blocking; requires -pods)")
	fs.StringVar(&cfg.Topology.SpineSched, "spinesched", "", "queue discipline for the spine ports (requires -pods; empty = blind FIFO ports)")
	fs.BoolVar(&cfg.HierAggregation, "hieragg", false, "hierarchical aggregation: reduce again at each pod's spine so one stream per pod reaches the server tier (requires -rackagg and -pods)")
	fs.BoolVar(&cfg.RackLocalPS, "racklocalps", false, "rack-local parameter serving: rack aggregators cache updated chunks and answer in-rack pulls without crossing the core (requires -rackagg)")
	fs.Float64Var(&cfg.AggReduceGBps, "aggrate", 0, "aggregator reduce rate in GB/s: each aggregator serializes ingest at this rate before reducing (0 = instantaneous; requires -rackagg)")
	planPath := fs.String("faultplan", "", "replay a scripted fault plan from this JSON file (see internal/faults; validated against the topology flags)")
	planSeed := fs.Int64("faultseed", 0, "generate a deterministic scripted fault plan from this seed (0 = no faults; mutually exclusive with -faultplan)")
	if err = fs.Parse(args); err != nil {
		return cfg, opt, err
	}

	if cfg.Machines < 1 {
		// 0 would mean Config's default; the recorder and the plan generator
		// below need the actual count.
		return cfg, opt, fmt.Errorf("-machines %d: must be at least 1", cfg.Machines)
	}
	if cfg.MeasureIters == 0 || cfg.WarmupIters == 0 {
		// 0 would mean Config's defaults (8 measured, 2 warm-up), not what
		// was asked for; Validate rejects negative counts.
		return cfg, opt, fmt.Errorf("-iters %d -warmup %d: both must be at least 1", cfg.MeasureIters, cfg.WarmupIters)
	}
	if cfg.Shards < 1 {
		// Config reads 0 as one shard; the engine line printed after the
		// run should not.
		return cfg, opt, fmt.Errorf("-shards %d: must be at least 1", cfg.Shards)
	}
	if cfg.Strategy, err = strategy.ByName(*stratName); err != nil {
		return cfg, opt, err
	}
	if *schedName != "" {
		if cfg.Strategy, err = cfg.Strategy.WithSched(*schedName); err != nil {
			return cfg, opt, err
		}
	}
	if *slice > 0 && cfg.Strategy.Granularity == strategy.Slices {
		cfg.Strategy.MaxSliceParams = *slice
	}
	if cfg.Model, err = zoo.Lookup(*modelName); err != nil {
		return cfg, opt, err
	}
	if opt.showTrace {
		cfg.Recorder = trace.NewRecorder(cfg.Machines, 0)
	}
	if cfg.Faults, err = faultPlan(*planPath, *planSeed, cfg); err != nil {
		return cfg, opt, err
	}
	return cfg, opt, cfg.Validate()
}

func main() {
	cfg, opt, err := parseFlags(os.Args[1:])
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "p3sim:", err)
		}
		os.Exit(2)
	}
	m, st, bw := cfg.Model, cfg.Strategy, cfg.BandwidthGbps
	if opt.showLayers {
		fmt.Print(m.Table())
		return
	}
	if opt.stallsIn != "" {
		stalls, err := strategy.ReadStallFile(opt.stallsIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "p3sim:", err)
			os.Exit(2)
		}
		cfg.Profile = strategy.CalibrateProfile(m, bw, stalls)
	}
	var r cluster.Result
	if opt.calibrate {
		// The recorder (and any -stallsout artifact) reflects only the
		// calibrated pass.
		var static cluster.Result
		static, r = cluster.RunCalibrated(cfg)
		firstLabel := "static"
		if opt.stallsIn != "" {
			firstLabel = "stall-file" // the first pass already ran on -stalls
		}
		fmt.Printf("calibrated:  %s pass %.2f ms/iter (stall %.2f ms) -> measured-profile pass %.2f ms/iter (stall %.2f ms)\n",
			firstLabel, static.MeanIterTime.Millis(), static.TotalStall().Millis(),
			r.MeanIterTime.Millis(), r.TotalStall().Millis())
	} else {
		r = cluster.Run(cfg)
	}
	if opt.stallsOut != "" {
		if err := strategy.WriteStallFile(opt.stallsOut, r.MeanLayerStalls()); err != nil {
			fmt.Fprintln(os.Stderr, "p3sim:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote measured stall profile to %s\n", opt.stallsOut)
	}

	preemptDesc := "off"
	if cfg.PreemptQuantum > 0 {
		preemptDesc = fmt.Sprintf("%d B", cfg.PreemptQuantum)
	}
	ratio := func(oversub float64) string {
		if oversub == 0 {
			return "non-blocking"
		}
		return fmt.Sprintf("%g:1", oversub)
	}
	topoDesc := "flat"
	if t := cfg.Topology; t.RackSize > 0 {
		topoDesc = fmt.Sprintf("racks of %d, core %s", t.RackSize, ratio(t.CoreOversub))
		if t.Pods > 0 {
			topoDesc += fmt.Sprintf(", %d pods, spine %s", t.Pods, ratio(t.SpineOversub))
		}
		if t.CoreSched != "" {
			topoDesc += ", core sched " + t.CoreSched
		}
		if t.SpineSched != "" {
			topoDesc += ", spine sched " + t.SpineSched
		}
		switch {
		case cfg.HierAggregation:
			topoDesc += ", hierarchical aggregation"
		case cfg.RackAggregation:
			topoDesc += ", in-rack aggregation"
		}
		if cfg.RackLocalPS {
			topoDesc += ", rack-local PS"
		}
		if cfg.AggReduceGBps > 0 {
			topoDesc += fmt.Sprintf(", agg %g GB/s", cfg.AggReduceGBps)
		}
	}
	fmt.Printf("model:       %s (%s)\n", m.Name, m)
	fmt.Printf("strategy:    %s  sched: %s  preempt: %s  machines: %d  bandwidth: %g Gbps\n",
		st.Name, st.Discipline(), preemptDesc, r.Machines, r.BandwidthGbps)
	fmt.Printf("engine:      %d shard(s)  topology: %s\n", min(cfg.Shards, r.Machines), topoDesc)
	fmt.Printf("throughput:  %.1f %s/s aggregate (%.1f per machine)\n",
		r.Throughput, m.SampleUnit, r.Throughput/float64(r.Machines))
	fmt.Printf("iteration:   %.2f ms mean (pure compute %.2f ms, comm overhead %.2f ms)\n",
		r.MeanIterTime.Millis(), r.ComputeIterTime.Millis(),
		(r.MeanIterTime - r.ComputeIterTime).Millis())
	fmt.Printf("sim cost:    %d events, %d messages, %.1f MB on the wire\n",
		r.Events, r.Msgs, float64(r.WireBytes)/1e6)
	if cfg.Faults != nil {
		fmt.Printf("faults:      %d injected, %d agg failovers, %d lost reductions, %.1f ms degraded links\n",
			r.FaultsInjected, r.AggFailovers, r.LostReductions, float64(r.DegradedNs)/1e6)
	}

	if rec := cfg.Recorder; rec != nil {
		skip := int(r.WarmupEnd / rec.Bucket())
		out, in := rec.Gbps(0, trace.Out), rec.Gbps(0, trace.In)
		fmt.Println("\nbucket\toutbound_gbps\tinbound_gbps")
		for i := skip; i < len(out) && i < skip+250; i++ {
			iv := 0.0
			if i < len(in) {
				iv = in[i]
			}
			fmt.Printf("%d\t%.3f\t%.3f\n", i-skip, out[i], iv)
		}
	}
}
