package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
)

// checker counts correctness checks; failed ÷ attempted is failed_share.
type checker struct {
	attempted, failed int
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
	}
}

// runConfig is one run of one workload.
type runConfig struct {
	def     *workloadDef
	env     *env
	seconds float64 // how long the timed passes go on
	traced  bool    // the per-layer run: probes, spans, traced and untraced passes side by side
}

// runResult is what a run reports; its last-line JSON form is the driver's
// contract.
type runResult struct {
	Workload  string    `json:"workload"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// passStats accumulates the timed passes of one side (traced or untraced).
type passStats struct {
	rawMs, firstMs, allocMB []float64
	wallNs, cpuNs           int64
	mallocs, events         uint64
	msgs, frames, payload   int64
	cells, passes           int
	last                    passOut
}

// run is one workload being measured.
type run struct {
	def  *workloadDef
	inst instance
	ck   *checker
	cold passOut // the first pass; every timed sim pass must equal it
	root int     // the workload's span
	// refs are the reference-kernel timings taken between blocks of passes.
	refs []float64
}

// block runs n timed passes and then the reference kernel. tr is nil for
// untraced passes.
func (r *run) block(n int, tr *tracer, st *passStats) {
	mem0, cpu0 := readMem(), cpuNs()
	for i := 0; i < n; i++ {
		id := r.root // a TCP pass is one iteration and opens its own iter[i] span
		if !r.def.tcp {
			id = tr.begin(fmt.Sprintf("pass[%d]", st.passes), r.root)
		}
		t0 := now()
		out := r.inst.pass(tr, id, r.ck)
		wall := since(t0)
		if !r.def.tcp {
			tr.end(id)
			r.ck.check(samePass(out, r.cold), "pass %d differs from the cold pass", st.passes)
		}
		st.rawMs = append(st.rawMs, float64(wall)/1e6)
		st.firstMs = append(st.firstMs, float64(out.firstNs)/1e6)
		st.wallNs += wall
		st.events += out.events
		st.msgs += out.msgs
		st.frames += out.frames
		st.payload += out.payload
		st.cells += out.cells
		st.passes++
		st.last = out
	}
	mem1, cpu1 := readMem(), cpuNs()
	st.cpuNs += cpu1 - cpu0
	st.mallocs += mem1.mallocs - mem0.mallocs
	st.allocMB = append(st.allocMB, float64(mem1.allocBytes-mem0.allocBytes)/1e6/float64(n))
	r.refs = append(r.refs, float64(refKernel()))
}

// quietMs is the run's pass time on the reference host: the lower quartile
// of the pass times, scaled by what the lower quartile of the reference
// kernel's timings says about this host during this run. Interference from
// other tenants only ever slows a pass down, in bursts of seconds; of the
// statistics tried on ten runs of every workload (README: spread study) the
// two lower quartiles moved least from run to run, the two medians most.
func (r *run) quietMs(rawMs []float64) float64 {
	return quantile(rawMs, 0.25) * refNominalNs / quantile(r.refs, 0.25)
}

// runWorkload sets the workload up, runs one cold pass (the two together are
// setup_s) and then timed passes for cfg.seconds. The untraced run returns
// the end-to-end metrics; the traced run returns the per-layer metrics and
// the tracer holding its spans.
func runWorkload(cfg runConfig, log io.Writer) (runResult, *tracer, error) {
	def, e := cfg.def, cfg.env
	ck := &checker{}
	m := metricSet{}
	var tr *tracer
	start := now() // the traced run's seconds include its probes and set-up
	if cfg.traced {
		tr = newTracer(def.name)
		runProbes(m, e.smoke)
	}
	root := tr.begin("workload/"+def.name, 0)
	if def.inputs != nil {
		def.inputs(e)
	}

	// setup_s runs from the start of set-up to the end of the first pass:
	// the cold pass is where state built on first use is paid for, so work a
	// change moves out of the timed passes shows here. It is timed into no
	// other end-to-end metric. Where the two take under half a second
	// together (tcp_small) they are repeated, each time on a fresh server
	// and fresh connections, and the median is reported.
	r := &run{def: def, ck: ck, root: root}
	var setups []float64
	var total int64
	for {
		ktr := tr // the first, coldest set-up is the one traced
		if len(setups) > 0 {
			ktr = nil
		}
		id := ktr.begin("setup", root)
		t0 := now()
		inst, err := def.setup(e, ktr, id)
		ktr.end(id)
		if err != nil {
			return runResult{}, nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		if len(setups) == 0 {
			m.set("host.setup_ms", float64(since(t0))/1e6)
		}
		r.inst = inst
		r.cold = inst.pass(nil, 0, ck)
		d := since(t0)
		setups = append(setups, float64(d)/1e9)
		total += d
		if total >= 0.5e9 || len(setups) == 5 || e.smoke {
			break
		}
		inst.close()
	}
	inst := r.inst
	defer inst.close()
	tcp, _ := inst.(*tcpInstance) // nil on the simulator workloads

	minPasses, block := def.minPasses, def.block
	if cfg.traced {
		minPasses = def.tracedPasses
	}
	if e.smoke {
		minPasses = 1
		if def.tcp {
			minPasses = 3
		}
	}
	if block > minPasses {
		block = minPasses
	}

	var plain, traced passStats
	r.refs = append(r.refs, float64(refKernel()))
	if !cfg.traced {
		start = now() // the untraced run's seconds are all timed passes
	}
	for {
		r.block(block, nil, &plain)
		if cfg.traced {
			r.block(block, tr, &traced)
		}
		if tcp != nil && tcp.broken {
			break
		}
		if plain.passes >= minPasses && float64(since(start)) >= cfg.seconds*1e9 {
			break
		}
	}

	if cfg.traced && def.name == "rack256_hier" {
		r.shardSpeedup(m, &traced, tr)
	}
	if tcp != nil {
		tcp.finish(ck)
	}

	if !cfg.traced {
		m["pass_ms_p25"] = value{Value: r.quietMs(plain.rawMs), Samples: len(plain.rawMs), Spread: spread(plain.rawMs)}
		m.set("setup_s", median(setups)*refNominalNs/quantile(r.refs, 0.25))
		m.setSamples("alloc_mb_per_pass", plain.allocMB)
		if tcp != nil {
			m.set("sim_samples_per_s", tcp.simTwin(e.seed))
		} else {
			m.set("sim_samples_per_s", r.cold.samplesPerS)
		}
		// Enough to redo the spread study from the logs of repeated runs.
		fmt.Fprintf(log, "# %s: %d timed passes, raw ms p25 %.2f p50 %.2f; reference kernel ms p25 %.2f p50 %.2f max/min %.2f\n",
			def.name, plain.passes, quantile(plain.rawMs, 0.25), median(plain.rawMs),
			quantile(r.refs, 0.25)/1e6, median(r.refs)/1e6, quantile(r.refs, 1)/quantile(r.refs, 0))
	} else {
		r.layerMetrics(e, m, &plain, &traced)
		if tcp != nil {
			tcp.layerStats(m)
		}
	}
	tr.end(root)

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	return runResult{
		Workload: def.name, Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed,
		Metrics: m.finish(defs),
	}, tr, nil
}

// shardSpeedup runs rack256_hier on the single-shard engine: the Result
// must equal the sharded one bit for bit, and the ratio of the two pass
// times is sim.shard_speedup (above 1 means the shards pay off).
func (r *run) shardSpeedup(m metricSet, sharded *passStats, tr *tracer) {
	one := *r.inst.(*clusterInstance)
	one.cfg.Shards = 1
	var ms []float64
	for i := 0; i < 2; i++ {
		id := tr.begin(fmt.Sprintf("pass_shards1[%d]", i), r.root)
		t0 := now()
		out := one.pass(tr, id, r.ck)
		ms = append(ms, float64(since(t0))/1e6)
		tr.end(id)
		// Shards is an input, not part of the Result, so the two compare whole.
		r.ck.check(samePass(out, sharded.last), "rack256_hier: Shards:1 Result differs from the sharded Result")
	}
	m.set("sim.shard_speedup", quantile(ms, 0)/quantile(sharded.rawMs, 0))
}

// layerMetrics derives the per-layer numbers that come from the workload's
// own passes. The traced passes are the source; the untraced ones alongside
// them give the tracing overhead.
func (r *run) layerMetrics(e *env, m metricSet, plain, traced *passStats) {
	def := r.def
	wallS := float64(traced.wallNs) / 1e9
	passes := float64(traced.passes)
	if traced.events > 0 {
		m.set("sim.events_per_s", float64(traced.events)/wallS)
		m.set("sim.mallocs_per_event", float64(traced.mallocs)/float64(traced.events))
	}
	perMsg := func(layer string) {
		m.set(layer+".ns_per_msg", float64(traced.wallNs)/float64(traced.msgs))
		m.set(layer+".events_per_msg", float64(traced.events)/float64(traced.msgs))
	}
	switch def.name {
	case "ps64_flat":
		perMsg("cluster")
		m.set("cluster.mallocs_per_msg", float64(traced.mallocs)/float64(traced.msgs))
		// What is left of the pass when every message is charged the host
		// path's stand-alone price: an estimate by subtraction.
		m.set("cluster.self_share_est", 1-float64(traced.msgs)*m["netsim.host_ns_per_msg"].Value/float64(traced.wallNs))
	case "ring16":
		perMsg("ring")
	case "faults64_credit":
		clean, crash := traced.last.clean, traced.last.crash
		m.set("faults.recovery_event_ratio", float64(crash.Events)/float64(clean.Events))
		m.set("faults.failovers", float64(crash.AggFailovers))
		m.set("faults.lost_reductions", float64(crash.LostReductions))
	case "paper4":
		m.set("experiments.ms_per_cell", 1e3*wallS/float64(traced.cells))
		m.set("experiments.cells_per_s", float64(traced.cells)/wallS)
	}
	if def.tcp {
		// Iterations of both sides: tracing one costs what
		// host.trace_overhead_pct says, and p90 needs the samples.
		iters := append(append([]float64(nil), traced.rawMs...), plain.rawMs...)
		m.set("pstcp.iter_ms_p50", median(iters))
		if len(iters) >= 100 { // ten samples beyond the 90th percentile
			m.set("pstcp.iter_ms_p90", quantile(iters, 0.9))
		}
		m.set("pstcp.first_layer_ms_p50", median(append(append([]float64(nil), traced.firstMs...), plain.firstMs...)))
		m.set("pstcp.goodput_MBps", float64(traced.payload)/1e6/wallS)
		m.set("pstcp.frames_per_s", float64(traced.frames)/wallS)
	}
	m.set("host.ref_ns", median(r.refs))
	m.set("host.ref_drift", quantile(r.refs, 1)/quantile(r.refs, 0))
	m.set("host.pass_ms_raw_p50", median(traced.rawMs))
	m.set("host.cpu_ms_per_pass", float64(traced.cpuNs)/1e6/passes)
	m.set("host.peak_rss_mb", peakRSSMB())
	m.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	shards := 1
	if def.name == "rack256_hier" {
		shards = e.shards
	}
	m.set("host.shards", float64(shards))
	// Fastest traced pass over fastest untraced pass: with a handful of
	// passes a side, the medians differ by more than any tracing could cost.
	m.set("host.trace_overhead_pct", 100*(quantile(traced.rawMs, 0)/quantile(plain.rawMs, 0)-1))
}
