package main

import (
	"math"
	"reflect"
	"runtime"

	"p3/internal/cluster"
	"p3/internal/experiments"
	"p3/internal/faults"
	"p3/internal/model"
	"p3/internal/netsim"
	"p3/internal/ring"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// env is what a workload's inputs are made from.
type env struct {
	seed   int64
	smoke  bool // test scale: 8-machine cells, 3 TCP iterations
	shards int  // rack256_hier's shard count: min(nproc, 4), recorded as host.shards
}

func newEnv(seed int64, smoke bool) *env {
	shards := runtime.NumCPU()
	if shards > 4 {
		shards = 4
	}
	return &env{seed: seed, smoke: smoke, shards: shards}
}

// pick returns full at benchmark scale and small at -smoke scale.
func (e *env) pick(full, small int) int {
	if e.smoke {
		return small
	}
	return full
}

// passOut is what one pass of a workload reports besides its wall time.
type passOut struct {
	// result is compared with reflect.DeepEqual between passes: a sim pass
	// is a pure function of its inputs.
	result any
	// samplesPerS is simulated samples/s/machine.
	samplesPerS float64
	events      uint64
	msgs        int64
	cells       int   // paper4: simulated configurations in the pass
	firstNs     int64 // TCP: iteration start to layer 0 complete on worker 0
	frames      int64 // TCP: frames sent and received by the workers
	payload     int64 // TCP: payload bytes pushed plus broadcast
	// crash and clean are the two cells of faults64_credit.
	crash, clean *cluster.Result
}

// instance is one set-up workload, ready to run passes.
type instance interface {
	// pass runs the workload's fixed input once. Spans go under parent; ck
	// receives the pass's invariants.
	pass(tr *tracer, parent int, ck *checker) passOut
	close()
}

// workloadDef declares one workload. All are closed-loop and run in this
// one process: a pass starts when the previous one has finished.
type workloadDef struct {
	name string
	why  string
	// block is how many passes run between two reference-kernel timings.
	block int
	// minPasses is the floor on timed passes whatever -seconds says;
	// tracedPasses the floor per side (traced, untraced) of the traced run.
	minPasses    int
	tracedPasses int
	tcp          bool
	// inputs, if set, generates the workload's inputs from the seed before
	// the clock starts.
	inputs func(e *env)
	setup  func(e *env, tr *tracer, parent int) (instance, error)
}

var workloads = []workloadDef{
	{name: "ps64_flat", block: 1, minPasses: 3, tracedPasses: 2, setup: setupPS64,
		why: "ROADMAP's reference cell: cluster protocol + netsim host path + sched with 64 flows per queue; bare engine dispatch is a few percent of it"},
	{name: "ring16", block: 1, minPasses: 3, tracedPasses: 2, setup: setupRing16,
		why: "same sim/netsim/sched without any cluster code, 1-2 flows per queue, most events per second: per-event engine and netsim cost shows most here"},
	{name: "rack256_hier", block: 1, minPasses: 3, tracedPasses: 2, setup: setupRack256,
		why: "the only workload on sim.Parallel and on ToR, spine and aggregator ports; makes sharding slower than one shard on two cores visible"},
	{name: "faults64_credit", block: 1, minPasses: 3, tracedPasses: 2, setup: setupFaults64,
		why: "credit-gated sched path, fault injection and cluster recovery; its simulated throughput is the pinned failover defect"},
	{name: "paper4", block: 1, minPasses: 3, tracedPasses: 2, setup: setupPaper4,
		why: "the paper's 4-machine evaluation through the experiments pool: per-cell construction dominates, long-run per-event gains barely show"},
	{name: "tcp_bulk", block: 5, minPasses: 15, tracedPasses: 10, tcp: true, inputs: tcpBulk.inputs, setup: tcpBulk.setup,
		why: "real loopback sockets, byte-bound: frame encode/decode throughput, server aggregate and update, kernel copies; per-frame cost is diluted"},
	{name: "tcp_small", block: 25, minPasses: 100, tracedPasses: 25, tcp: true, inputs: tcpSmall.inputs, setup: tcpSmall.setup,
		why: "real loopback sockets, frame-bound and credit-gated: SendQueue locking, header codec, flush policy, wake-ups; byte throughput barely matters"},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// buildModel wraps the construction of a model in its span.
func buildModel(tr *tracer, parent int, name string) *model.Model {
	var m *model.Model
	tr.in("zoo.ByName", parent, func(int) { m = zoo.ByName(name) })
	return m
}

// spreadServers places server s in rack s mod racks, at slot s div racks.
func spreadServers(servers, racks, rackSize int) []int {
	out := make([]int, servers)
	for s := range out {
		out[s] = (s%racks)*rackSize + s/racks
	}
	return out
}

// sliced returns parameter slicing under the named discipline.
func sliced(disc string) strategy.Strategy {
	st, err := strategy.SlicingOnly(0).WithSched(disc)
	if err != nil {
		panic(err) // the names are literals of this file
	}
	st.Name = "sliced+" + disc
	return st
}

// checkClusterResult counts the invariants of one cluster.Run result.
func checkClusterResult(ck *checker, what string, r *cluster.Result, iters int) {
	ck.check(r.MeasuredIters == iters, "%s: MeasuredIters %d, want %d", what, r.MeasuredIters, iters)
	ck.check(r.Msgs > 0, "%s: Msgs %d", what, r.Msgs)
	ck.check(r.MeanIterTime >= r.ComputeIterTime, "%s: MeanIterTime %v below ComputeIterTime %v", what, r.MeanIterTime, r.ComputeIterTime)
}

// clusterInstance runs one cluster.Run configuration per pass.
type clusterInstance struct {
	name string
	cfg  cluster.Config
}

func (c *clusterInstance) pass(tr *tracer, parent int, ck *checker) passOut {
	var r cluster.Result
	tr.in("cluster.Run", parent, func(int) { r = cluster.Run(c.cfg) })
	checkClusterResult(ck, c.name, &r, c.cfg.MeasureIters)
	return passOut{result: r, samplesPerS: r.Throughput / float64(r.Machines), events: r.Events, msgs: r.Msgs}
}

func (c *clusterInstance) close() {}

func setupPS64(e *env, tr *tracer, parent int) (instance, error) {
	return &clusterInstance{name: "ps64_flat", cfg: cluster.Config{
		Model: buildModel(tr, parent, "resnet50"), Machines: e.pick(64, 8),
		Strategy: strategy.P3(0), BandwidthGbps: 1.5,
		WarmupIters: 1, MeasureIters: 3, Seed: e.seed, Shards: 1,
	}}, nil
}

// setupRack256 builds the two-tier cell: racks of 32 in 2 pods behind a 4:1
// core and a 4:1 spine, damped queues on hosts, ToR and spine ports, rack
// and hierarchical aggregation, 8 servers spread over the racks.
func setupRack256(e *env, tr *tracer, parent int) (instance, error) {
	machines, rackSize, servers := e.pick(256, 8), e.pick(32, 2), e.pick(8, 4)
	topo := netsim.Topology{
		RackSize: rackSize, CoreOversub: 4, CoreSched: "damped",
		Pods: 2, SpineOversub: 4, SpineSched: "damped",
	}
	if err := topo.ValidateFor(machines); err != nil {
		return nil, err
	}
	return &clusterInstance{name: "rack256_hier", cfg: cluster.Config{
		Model: buildModel(tr, parent, "resnet50"), Machines: machines, Servers: servers,
		Strategy: sliced("damped"), BandwidthGbps: 1.5,
		WarmupIters: 1, MeasureIters: 3, Seed: e.seed, Shards: e.shards,
		Topology:        topo,
		ServerMachines:  spreadServers(servers, topo.NumRacks(machines), rackSize),
		RackAggregation: true, HierAggregation: true,
	}}, nil
}

type ringInstance struct{ cfg ring.Config }

func (c *ringInstance) pass(tr *tracer, parent int, ck *checker) passOut {
	var r ring.Result
	tr.in("ring.Run", parent, func(int) { r = ring.Run(c.cfg) })
	ck.check(r.MeasuredIters == c.cfg.MeasureIters, "ring16: MeasuredIters %d, want %d", r.MeasuredIters, c.cfg.MeasureIters)
	ck.check(r.Events > 0, "ring16: no events")
	ck.check(r.MeanIterTime >= r.ComputeIter, "ring16: MeanIterTime %v below ComputeIter %v", r.MeanIterTime, r.ComputeIter)
	// A chunk's all-reduce is 2(N-1) rounds in which every machine sends
	// one segment; ring.Result does not count messages, so this does.
	n := int64(c.cfg.Machines)
	chunks := int64(c.cfg.Strategy.Partition(c.cfg.Model, 1).NumChunks())
	iters := int64(c.cfg.WarmupIters + c.cfg.MeasureIters)
	return passOut{result: r, samplesPerS: r.Throughput / float64(r.Machines), events: r.Events,
		msgs: iters * chunks * 2 * (n - 1) * n}
}

func (c *ringInstance) close() {}

func setupRing16(e *env, tr *tracer, parent int) (instance, error) {
	return &ringInstance{cfg: ring.Config{
		Model: buildModel(tr, parent, "resnet50"), Machines: e.pick(16, 4),
		Strategy:      strategy.Strategy{Name: "ar-p3", Granularity: strategy.Slices, Sched: "p3"},
		BandwidthGbps: 1.5, WarmupIters: 1, MeasureIters: 3, Seed: e.seed,
	}}, nil
}

// faultsInstance runs the credit-gated rack-aggregated cell twice per pass:
// clean, then with rack 1's aggregator down for good from 100 ms on (the
// agg-crash plan of experiments.Faults).
type faultsInstance struct {
	clean, crash cluster.Config
}

func (c *faultsInstance) pass(tr *tracer, parent int, ck *checker) passOut {
	var clean, crash cluster.Result
	tr.in("cluster.Run", parent, func(int) { clean = cluster.Run(c.clean) })
	tr.in("cluster.Run", parent, func(int) { crash = cluster.Run(c.crash) })
	checkClusterResult(ck, "faults64_credit clean", &clean, c.clean.MeasureIters)
	checkClusterResult(ck, "faults64_credit crash", &crash, c.crash.MeasureIters)
	ck.check(clean.AggFailovers == 0 && clean.LostReductions == 0,
		"faults64_credit clean: %d failovers, %d lost reductions, want 0", clean.AggFailovers, clean.LostReductions)
	ck.check(crash.AggFailovers > 0 && crash.LostReductions > 0,
		"faults64_credit crash: %d failovers, %d lost reductions, want > 0", crash.AggFailovers, crash.LostReductions)
	return passOut{
		result:      [2]cluster.Result{clean, crash},
		samplesPerS: crash.Throughput / float64(crash.Machines),
		events:      clean.Events + crash.Events, msgs: clean.Msgs + crash.Msgs,
		clean: &clean, crash: &crash,
	}
}

func (c *faultsInstance) close() {}

func setupFaults64(e *env, tr *tracer, parent int) (instance, error) {
	machines, rackSize := e.pick(64, 8), e.pick(16, 4)
	topo := netsim.Topology{RackSize: rackSize, CoreOversub: 4}
	racks := topo.NumRacks(machines)
	cfg := cluster.Config{
		Model: buildModel(tr, parent, "resnet50"), Machines: machines, Servers: racks,
		Strategy: sliced("credit"), BandwidthGbps: 1.5,
		WarmupIters: 1, MeasureIters: 3, Seed: e.seed, Shards: 1,
		Topology:        topo,
		ServerMachines:  spreadServers(racks, racks, rackSize),
		RackAggregation: true,
	}
	plan := &faults.Plan{DetectNs: 2e6, TimeoutNs: 10e6, Events: []faults.Event{
		{Kind: faults.KindAggCrash, At: 100e6, Tier: faults.TierRack, Index: 1},
	}}
	var err error
	tr.in("Plan.Validate", parent, func(int) { err = plan.Validate(machines, topo) })
	if err != nil {
		return nil, err
	}
	crash := cfg
	crash.Faults = plan
	return &faultsInstance{clean: cfg, crash: crash}, nil
}

// paper4Out is everything a paper4 pass computes, kept for the
// pass-to-pass comparison.
type paper4Out struct {
	Headline    []experiments.HeadlineRow
	Ablation    []experiments.AblationRow
	Sensitivity []experiments.SensitivityRow
	Fig7        []*experiments.Figure
	Fig8        []*experiments.Figure
	Fig10       []*experiments.Figure
}

type paper4Instance struct {
	opts  experiments.Options
	smoke bool
}

// gridCells counts the simulated configurations behind throughput figures:
// one per plotted point.
func gridCells(figs []*experiments.Figure) int {
	n := 0
	for _, f := range figs {
		for _, s := range f.Series {
			n += len(s.Y)
		}
	}
	return n
}

func (c *paper4Instance) pass(tr *tracer, parent int, ck *checker) passOut {
	var out paper4Out
	tr.in("experiments.Headline", parent, func(int) { out.Headline = experiments.Headline(c.opts) })
	tr.in("experiments.Fig8", parent, func(int) { out.Fig8 = experiments.Fig8(c.opts) })
	if !c.smoke { // the test-scale pass keeps one pooled sweep and the recorded runs
		tr.in("experiments.Ablation", parent, func(int) { out.Ablation = experiments.Ablation(c.opts) })
		tr.in("experiments.Sensitivity", parent, func(int) { out.Sensitivity = experiments.Sensitivity(c.opts) })
		tr.in("experiments.Fig7", parent, func(int) { out.Fig7 = experiments.Fig7(c.opts) })
		tr.in("experiments.Fig10", parent, func(int) { out.Fig10 = experiments.Fig10(c.opts) })
	}
	// Simulated throughput of the paper's own result: the geometric mean of
	// the headline table's P3 column, over the models without compute
	// jitter. Sockeye draws its jitter from the seed and its row moves by a
	// percent from seed to seed, ten times this metric's bound; it stays in
	// the pass and in the pass-to-pass comparison.
	logSum, n := 0.0, 0
	for _, r := range out.Headline {
		ck.check(r.P3 > 0 && r.Baseline > 0, "paper4: headline %s has throughput %g / %g", r.Model, r.P3, r.Baseline)
		if zoo.ByName(r.Model).ComputeJitter == 0 {
			logSum += math.Log(r.P3)
			n++
		}
	}
	// Headline and Ablation run 3 and 5 strategies per row, Sensitivity 2;
	// a utilization figure (Fig8) is one recorded run.
	cells := 3*len(out.Headline) + 5*len(out.Ablation) + 2*len(out.Sensitivity) +
		gridCells(out.Fig7) + len(out.Fig8) + gridCells(out.Fig10)
	return passOut{result: out, samplesPerS: math.Exp(logSum / float64(n)), cells: cells}
}

func (c *paper4Instance) close() {}

// setupPaper4 has nothing to build: experiments makes its own models and
// plans per cell, inside the pass.
func setupPaper4(e *env, _ *tracer, _ int) (instance, error) {
	return &paper4Instance{opts: experiments.Options{Fast: true, Shards: 1, Seed: e.seed}, smoke: e.smoke}, nil
}

// samePass reports whether two passes computed the same thing.
func samePass(a, b passOut) bool { return reflect.DeepEqual(a.result, b.result) }
