// Package cluster simulates data-parallel synchronous-SGD training over a
// parameter-server architecture on the discrete-event clock. It is the
// substitute for the paper's physical testbed (four GPU machines with
// tc-qdisc-throttled NICs): one machine hosts one worker and one co-located
// parameter server (the paper's recommended deployment), workers alternate
// forward/backward compute phases, and gradients/parameters flow through the
// simulated network according to a strategy.Strategy.
//
// The protocol follows Sections 2, 4.1 and 4.2 of the paper:
//
//	worker: backward(l) done -> push gradient chunks of layer l
//	server: Nth push of a chunk processed -> parameters updated ->
//	        notify+pull (baseline), immediate broadcast (P3/slicing/WFBP),
//	        or reply-on-deferred-pull (TensorFlow style)
//	worker: all chunks of layer l received -> layer l usable by the next
//	        forward pass; forward(l) blocks until then
package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"

	"p3/internal/core"
	"p3/internal/faults"
	"p3/internal/model"
	"p3/internal/netsim"
	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/trace"
)

// Message kinds on the simulated network.
const (
	kPush   uint8 = iota + 1 // worker -> server: gradient chunk
	kNotify                  // server -> worker: chunk updated (baseline)
	kPull                    // worker -> server: parameter request
	kData                    // server -> worker: updated parameter chunk
	kCache                   // server -> rack aggregator: updated parameter chunk for the rack-local cache (RackLocalPS)
	kRepush                  // server -> worker: re-push a contribution lost at a crashed aggregator (Config.Faults)
)

// ctlBytes is the payload size of notify/pull control messages.
const ctlBytes = 16

// Config describes one simulated training run.
type Config struct {
	Model    *model.Model
	Machines int // worker machines (each runs one worker)
	// Servers is the parameter-server count; servers are co-located on the
	// first Servers machines. 0 means one server per machine, the paper's
	// deployment (Section 5.1). Appendix A.7 allows customizing this.
	Servers  int
	Strategy strategy.Strategy
	// BandwidthGbps is the per-direction NIC rate (the paper's x axis).
	BandwidthGbps float64
	// Net optionally overrides the full interconnect config; if zero-valued
	// it is derived from BandwidthGbps via netsim.DefaultConfig. The
	// Egress discipline is always forced from the strategy's Sched name.
	Net *netsim.Config
	// Profile optionally overrides the static FLOP-derived timing profile
	// handed to model-aware disciplines (tictac) — the hook behind the
	// calibrated two-pass mode (RunCalibrated), which re-runs with a
	// profile rebuilt from a prior run's measured stalls. nil selects the
	// static strategy.ComputeProfile.
	Profile *sched.Profile
	// PreemptQuantum > 0 makes NIC egress transmission resumable in
	// segments of this many wire bytes (netsim.Config.PreemptQuantum): a
	// strictly more urgent message preempts an in-flight one at the next
	// segment boundary — the true-preemption upper bound that the paper's
	// slicing approximates. 0 keeps message-granularity preemption.
	PreemptQuantum int64
	// UpdateRateGBps is the server-side per-byte processing rate in
	// gigabytes per second: deserializing a received gradient, accumulating
	// it, and (on the last push) applying the SGD update. ps-lite servers
	// do this on a single thread, so at layer granularity a 100 MB shard
	// occupies the server for a long, unpipelined stretch — one of the
	// effects parameter slicing removes.
	UpdateRateGBps float64
	// UpdateOverhead is the fixed per-message server processing cost.
	UpdateOverhead sim.Time
	// HostRateGBps is the worker-side per-byte cost of deserializing and
	// installing received parameters (same single-threaded copy path).
	HostRateGBps float64
	// HostOverhead is the fixed per-message worker receive cost.
	HostOverhead sim.Time
	// ServerThreads is the number of concurrent update threads per server
	// (ps-lite's server loop is effectively single-threaded; pushes to the
	// same key always serialize on its accumulator regardless).
	ServerThreads int
	// HostThreads is the number of concurrent install threads on the worker
	// receive path (MXNet's engine copies different keys in parallel).
	HostThreads int
	// WarmupIters iterations are run before measurement; MeasureIters are
	// measured. The paper skips 1000 warm-up iterations on real hardware;
	// the simulator reaches steady state within a couple.
	WarmupIters  int
	MeasureIters int
	// Seed drives the per-worker compute jitter (Sockeye's variable
	// sequence lengths). Runs are deterministic for a fixed seed.
	Seed int64
	// Recorder, if non-nil, captures per-machine NIC utilization.
	// Incompatible with Shards >= 2 (the buckets are shared across
	// machines).
	Recorder *trace.Recorder
	// Shards selects the engine: 0 or 1 runs the exact legacy single-heap
	// engine (bit-identical to earlier releases), >= 2 runs the
	// conservative-lookahead parallel engine with that many shards —
	// producing, by the sim package's determinism contract, the same
	// Result. Values above the machine count are clamped.
	Shards int
	// Engine optionally supplies a reusable single-shard engine: it is
	// Reset and used in place of a fresh one, so sweep workers keep one
	// grown event slab across configurations. Ignored when Shards >= 2.
	Engine *sim.Engine
	// Topology optionally arranges machines into racks behind an
	// oversubscribed core (netsim.Topology); the zero value keeps the flat
	// non-blocking switch.
	Topology netsim.Topology
	// ServerMachines optionally places parameter server s on machine
	// ServerMachines[s] (len must equal the server count; entries must be
	// distinct). nil keeps the default co-location: server s on machine s.
	// With a rack topology this is the PS-placement axis: spread servers
	// across racks or pack them into one.
	ServerMachines []int
	// RackAggregation enables Parameter Hub-style in-rack gradient
	// aggregation on a rack topology: every non-loopback gradient push
	// routes through the pushing worker's rack aggregator, which sums the
	// rack's contributions per (chunk, iteration) and forwards ONE reduced
	// stream to the chunk's server (weighted as the whole rack at the
	// aggregation barrier), and every server broadcast (Immediate data,
	// NotifyPull notifies) sends one copy per rack that the destination
	// ToR fans out to its machines. Per-worker pulls and their replies
	// stay direct — only the all-to-one and one-to-all patterns collapse.
	// Requires Topology.RackSize > 0; incompatible with Strategy.Async
	// (ASGD has no aggregation barrier to fold into the rack). The
	// reduction itself models a switch-side engine: aggregator ingest and
	// summing cost no host NIC or CPU time unless AggReduceGBps bounds it.
	RackAggregation bool
	// HierAggregation extends RackAggregation into a hierarchical reduce
	// on a spine topology (Topology.Pods > 0): rack aggregators flush
	// their reduced stream to their pod's aggregator instead of the
	// server, the pod aggregator reduces its racks' streams into ONE
	// stream per pod toward the chunk's server, and server broadcasts
	// descend the same tree (one stream per pod, fanned to the pod's rack
	// aggregators at the spine, then to machines at the ToRs) — so the
	// server NIC and the spine each carry per-pod streams instead of
	// per-rack ones. Requires RackAggregation and a spine tier.
	HierAggregation bool
	// RackLocalPS co-designs parameter-server placement with chunk
	// ownership at the rack level: every server update is also pushed to
	// the rack aggregators as a rack-local parameter cache (kCache, one
	// data-sized stream per rack — per pod under HierAggregation), and
	// every non-loopback parameter pull is answered by the puller's own
	// rack aggregator from that cache (pulls that arrive before the
	// cache update wait at the aggregator), so no pull or its data reply
	// ever crosses the core. Only pull-based strategies (NotifyPull,
	// DeferredPull) issue pulls — Immediate-broadcast strategies are
	// unaffected. Requires RackAggregation.
	RackLocalPS bool
	// AggReduceGBps bounds the aggregators' reduction capacity
	// (netsim.Config.AggReduceGBps): payloads queue FIFO at each
	// aggregator and reduce at this many bytes per nanosecond before the
	// aggregation logic sees them. 0 keeps the free switch-side engine.
	// Requires RackAggregation.
	AggReduceGBps float64
	// Faults optionally injects a scripted fault plan: aggregator
	// crash/restart, per-machine straggler windows, link-rate degradation,
	// and worker leave/join, all as deterministic discrete events (see
	// package faults). Aggregator crashes require RackAggregation with an
	// Immediate-broadcast strategy (pod-tier crashes also HierAggregation)
	// and are incompatible with RackLocalPS. A nil plan — and a zero-event
	// one — is byte-identical to no faults at every shard count.
	Faults *faults.Plan
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Machines == 0 {
		out.Machines = 4
	}
	if out.Servers == 0 {
		out.Servers = out.Machines
	}
	if out.Servers > out.Machines {
		panic(fmt.Sprintf("cluster: %d servers on %d machines", out.Servers, out.Machines))
	}
	if out.UpdateRateGBps == 0 {
		out.UpdateRateGBps = 2
	}
	if out.UpdateOverhead == 0 {
		out.UpdateOverhead = 5 * sim.Microsecond
	}
	if out.HostRateGBps == 0 {
		out.HostRateGBps = 3
	}
	if out.HostOverhead == 0 {
		out.HostOverhead = 5 * sim.Microsecond
	}
	if out.ServerThreads == 0 {
		out.ServerThreads = 1
	}
	if out.HostThreads == 0 {
		out.HostThreads = 2
	}
	if out.WarmupIters == 0 {
		out.WarmupIters = 2
	}
	if out.MeasureIters == 0 {
		out.MeasureIters = 8
	}
	return out
}

// Result summarizes a run.
type Result struct {
	Model         string
	Strategy      string
	Machines      int
	BandwidthGbps float64

	// Throughput is the aggregate training throughput (samples/second
	// summed over workers) — the paper's primary metric.
	Throughput float64
	// MeanIterTime is the average measured iteration makespan.
	MeanIterTime sim.Time
	// IterTimes holds each measured iteration's makespan.
	IterTimes []sim.Time
	// ComputeIterTime is the pure-compute iteration time (the upper bound on
	// throughput); the gap to MeanIterTime is communication delay.
	ComputeIterTime sim.Time
	// WarmupEnd is the virtual time at which measurement began (for
	// trimming utilization traces).
	WarmupEnd sim.Time
	// MeasuredIters is the measured iteration count (the divisor of
	// MeanLayerStalls).
	MeasuredIters int
	// LayerStalls[l] is worker 0's cumulative measured-window time spent
	// blocked at layer l waiting for its parameters — the queueing-delay
	// mechanism Figures 1 and 4 of the paper illustrate, and the measured
	// signal the calibrated profile mode feeds back into scheduling.
	LayerStalls []sim.Time

	Events    uint64
	Msgs      int64
	WireBytes int64
	// Preemptions counts egress transmissions parked mid-flight for a more
	// urgent message (0 unless Config.PreemptQuantum > 0).
	Preemptions int64
	// CoreBytes is the payload volume that serialized through the rack
	// uplink/downlink ports (0 on a flat network) — the traffic
	// RackAggregation exists to shrink.
	CoreBytes int64
	// SpineBytes is the payload volume that serialized through the spine
	// uplink/downlink ports (0 without Topology.Pods) — the inter-pod
	// traffic HierAggregation exists to shrink.
	SpineBytes int64

	// Fault counters (all 0 without Config.Faults). FaultsInjected is the
	// scripted event count; AggFailovers the failover actions taken
	// (detected reroutes around a down aggregator, direct re-pushes and
	// recovery pulls, re-push request rounds); DegradedNs the total
	// scripted link-degradation window time; LostReductions the gradient
	// contributions swallowed by down aggregators (each recovered through
	// a direct re-push).
	FaultsInjected int
	AggFailovers   int64
	DegradedNs     int64
	LostReductions int64
}

// TotalStall sums the per-layer forward stalls of worker 0 over the
// measured iterations.
func (r Result) TotalStall() sim.Time {
	var t sim.Time
	for _, s := range r.LayerStalls {
		t += s
	}
	return t
}

// MeanLayerStalls returns the per-iteration mean of LayerStalls, the form
// strategy.CalibrateProfile consumes.
func (r Result) MeanLayerStalls() []sim.Time {
	return strategy.MeanStalls(r.LayerStalls, r.MeasuredIters)
}

// Speedup returns r's throughput relative to base.
func (r Result) Speedup(base Result) float64 { return r.Throughput / base.Throughput }

func (r Result) String() string {
	return fmt.Sprintf("%s/%s x%d @%gGbps: %.1f %s/s (iter %.1f ms, compute %.1f ms)",
		r.Model, r.Strategy, r.Machines, r.BandwidthGbps, r.Throughput,
		"samples", r.MeanIterTime.Millis(), r.ComputeIterTime.Millis())
}

type chunkAgg struct {
	iter  int32
	count int
	done  bool
}

// rackAggState is one rack aggregator's reduction state: per chunk, the
// in-flight iteration and how many of the rack's workers have contributed
// their gradient slice. Iterations strictly serialize per chunk at an
// aggregator (a worker cannot push iteration k before the server's k-1
// update, which needed this rack's k-1 flush), so one slot per chunk
// suffices — the same invariant the server-side chunkAgg relies on.
// Under RackLocalPS the aggregator is also the rack's parameter cache:
// cachedIter[c] is the newest iteration whose kCache update for chunk c
// landed (-1 initially), and pending holds the rack's pulls that arrived
// ahead of their iteration's cache update.
type rackAggState struct {
	agg        []chunkAgg
	cachedIter []int32                 // RackLocalPS only
	pending    map[int32][]pendingPull // RackLocalPS only: chunk -> waiting pulls
}

// podAggState is one pod aggregator's reduction state (HierAggregation):
// the same per-chunk serialization invariant as rackAggState, with rack
// streams as the contributions — each arriving stream carries its rack's
// aggExpect weight, and the flush fires at podExpect.
type podAggState struct {
	agg []chunkAgg
}

type pendingPull struct {
	iter int32
	src  int
}

type procItem struct {
	chunk    int32
	iter     int32
	src      int32
	priority int32
}

// procPool serializes per-byte endpoint processing. It models MXNet's engine
// semantics: up to `threads` items process concurrently, but items for the
// same chunk (key) always serialize because they share an accumulator. The
// queue discipline is pluggable (a sched.Discipline resolved from the
// strategy's Sched name): fifo for baseline strategies, p3 priority ordering
// for the server- and worker-side producer/consumer loops of Section 4.2,
// or any other registered discipline.
type procPool struct {
	queue *sched.Queue[procItem]
	// chunkBusy and waiting are indexed by chunk id (dense, 0..NumChunks-1).
	chunkBusy []bool
	waiting   [][]procItem
	// idle holds the free processing threads. Each slot's completion
	// continuation is bound once at construction, so starting an item
	// allocates nothing; len(idle) == 0 means every thread is busy.
	idle     []*procSlot
	overhead sim.Time
	rate     float64  // bytes per nanosecond
	proc     sim.Proc // the owning machine's timeline
	done     func(procItem)
}

// procSlot is one processing thread: the item it is working on and its
// pre-bound completion event.
type procSlot struct {
	it     procItem
	finish func()
}

// newProcPool builds a pool ordered by queue, which must wrap a fresh
// discipline instance (pools never share scheduler state). proc is the
// owning machine's scheduling handle — pool events belong to that LP.
func newProcPool(cs *clusterSim, threads int, overhead sim.Time, rate float64, queue *sched.Queue[procItem], proc sim.Proc) *procPool {
	p := &procPool{
		queue:     queue,
		chunkBusy: make([]bool, cs.plan.NumChunks()),
		waiting:   make([][]procItem, cs.plan.NumChunks()),
		idle:      make([]*procSlot, threads),
		overhead:  overhead,
		rate:      rate,
		proc:      proc,
	}
	for i := range p.idle {
		s := new(procSlot)
		s.finish = func() { p.finish(cs, s) }
		p.idle[i] = s
	}
	return p
}

// add enqueues an item and starts as many queued items as the thread,
// per-key and credit limits allow. The pool's done callback runs on the
// virtual clock when an item finishes processing.
//
//p3:noescape
func (p *procPool) add(cs *clusterSim, it procItem) {
	p.queue.Push(it)
	p.pump(cs)
}

//p3:noescape
func (p *procPool) pump(cs *clusterSim) {
	for len(p.idle) > 0 {
		it, ok := p.queue.PopReady()
		if !ok {
			return
		}
		if p.chunkBusy[it.chunk] {
			// Deferred on the per-key serialization, not processing yet:
			// refund any credit until the chunk frees up and re-queues it.
			// Cancel, not Done — an adaptive window must not read this
			// refund as a completed transfer.
			p.queue.Cancel(it)
			p.waiting[it.chunk] = append(p.waiting[it.chunk], it)
			continue
		}
		p.start(cs, it)
	}
}

//p3:noescape
func (p *procPool) start(cs *clusterSim, it procItem) {
	p.chunkBusy[it.chunk] = true
	s := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	s.it = it
	cost := p.overhead + sim.Time(float64(cs.plan.Chunks[it.chunk].Bytes())/p.rate)
	p.proc.After(cost, s.finish)
}

// finish runs when slot s's item has been processed.
//
//p3:noescape
func (p *procPool) finish(cs *clusterSim, s *procSlot) {
	it := s.it
	p.idle = append(p.idle, s)
	p.chunkBusy[it.chunk] = false
	p.queue.Done(it)
	if w := p.waiting[it.chunk]; len(w) > 0 {
		p.queue.Push(w[0])
		// Shift down instead of re-slicing from the front, so the chunk's
		// backing array is reused by every later deferral.
		p.waiting[it.chunk] = w[:copy(w, w[1:])]
	}
	p.done(it)
	p.pump(cs)
}

type serverState struct {
	proc *procPool
	agg  []chunkAgg // indexed by chunk ID (only own chunks used)
	// lastDone[c] is the newest iteration whose update completed for chunk
	// c (-1 initially). A pull for iteration <= lastDone is answerable
	// immediately with the current value, exactly as a real KVStore pull
	// returns whatever the store holds; without this, a pull tagged with an
	// older iteration could strand forever once a faster worker's next
	// push resets the aggregation slot.
	lastDone []int32
	pending  map[int32][]pendingPull // chunk ID -> pulls waiting for their iteration
	// seen[c][w] marks the workers whose contribution to chunk c's
	// in-flight barrier has been counted — the dedup that lets crash
	// recovery re-push a possibly-lost contribution without ever counting
	// a worker twice. Allocated only under a crash-scripting fault plan;
	// owned by the server's machine LP like the rest of serverState.
	seen [][]bool
}

type workerState struct {
	readyIter   []int32 // per layer: iteration whose sync delivered current params (-1 = initial)
	recvCount   []int   // per layer: data chunks received for the in-flight sync
	notifyCount []int   // per layer: notifications received (baseline)
	fwdLayer    int
	waitingFwd  bool
	waitSince   sim.Time
	curIter     int32
	bwdDone     []sim.Time // per iteration
	layerStall  []sim.Time // cumulative forward stall per layer

	// Receive-side processing: deserializing and installing an arrived
	// parameter chunk costs CPU time (the receiver-side producer/consumer
	// of Section 4.2; priority-ordered under P3).
	proc *procPool
}

type clusterSim struct {
	cfg    Config
	exec   sim.Exec
	procs  []sim.Proc // one per machine
	net    *netsim.Network
	plan   *core.Plan
	timing *model.Timing
	layers int
	total  int32 // iterations to run

	// srvMachine[s] is the machine hosting server s; machineSrv is the
	// inverse (-1 on machines without a server). Identity by default —
	// the paper's co-located deployment.
	srvMachine []int
	machineSrv []int

	// Rack-aggregation state (RackAggregation only). rackAggs[r] is owned
	// by rack r's aggregator LP: it is touched exclusively from AggDeliver
	// callbacks, which the netsim contract runs on that LP's timeline, so
	// the sharded engine never races on it. rackPop[r] is the machine
	// count of rack r (the last rack may be partial). podAggs[p] is
	// likewise owned by pod p's aggregator LP (HierAggregation only);
	// rpp is the racks-per-pod count and podPop[p] the machine count of
	// pod p.
	rackAggs []rackAggState
	rackPop  []int
	podAggs  []podAggState
	rpp      int
	podPop   []int

	workers  []workerState
	servers  []serverState
	jitter   [][]float64 // [worker][iter]
	updRate  float64     // bytes per nanosecond
	hostRate float64     // bytes per nanosecond

	// fs is the fault-injection wiring (Config.Faults); nil on fault-free
	// runs, so every fault check is a single nil test on the hot paths.
	fs *faultState
}

// RunCalibrated is the two-pass calibrated mode: the first pass runs cfg as
// given (static FLOP-derived profile unless cfg.Profile overrides it) and
// records the per-layer consumption stalls it actually observed; the second
// pass re-runs with the profile rebuilt from those measured stalls
// (strategy.CalibrateProfile), so model-aware disciplines rank against the
// iteration timeline the cluster really produces instead of the idealized
// compute-only one. Both results are returned, first the static pass.
func RunCalibrated(cfg Config) (static, calibrated Result) {
	static = Run(cfg)
	// Profile at the same wire rate the runs use: BandwidthGbps when set,
	// else the rate of an explicit Net override (mirroring newClusterSim).
	gbps := cfg.BandwidthGbps
	if gbps <= 0 && cfg.Net != nil {
		gbps = cfg.Net.BandwidthGbps
	}
	cfg.Profile = strategy.CalibrateProfile(cfg.Model, gbps, static.MeanLayerStalls())
	calibrated = Run(cfg)
	return static, calibrated
}

// Run executes one simulated training run and returns its Result.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	if err := cfg.Model.Validate(); err != nil {
		panic(fmt.Sprintf("cluster: invalid model: %v", err))
	}
	cs := newClusterSim(cfg)
	cs.start()
	cs.exec.Run()
	return cs.result()
}

func newClusterSim(cfg Config) *clusterSim {
	m := cfg.Model
	n := cfg.Machines

	var netCfg netsim.Config
	if cfg.Net != nil {
		netCfg = *cfg.Net
	} else {
		netCfg = netsim.DefaultConfig(cfg.BandwidthGbps)
	}
	if cfg.BandwidthGbps > 0 {
		netCfg.BandwidthGbps = cfg.BandwidthGbps
	}
	netCfg.Egress = cfg.Strategy.Discipline()
	if cfg.PreemptQuantum > 0 {
		netCfg.PreemptQuantum = cfg.PreemptQuantum
	}
	if cfg.Topology.RackSize > 0 {
		netCfg.Topology = cfg.Topology
	}
	if cfg.RackAggregation {
		if cfg.Topology.RackSize <= 0 {
			panic("cluster: RackAggregation needs a rack topology (Topology.RackSize > 0)")
		}
		if cfg.Strategy.Async {
			panic("cluster: RackAggregation is a synchronous-reduction optimization; ASGD has no aggregation barrier to fold into the rack")
		}
		// Set before the engine is built: the aggregator LPs change the
		// LP count and shard assignment.
		netCfg.Aggregation = true
		netCfg.AggReduceGBps = cfg.AggReduceGBps
	} else {
		if cfg.HierAggregation {
			panic("cluster: HierAggregation without RackAggregation (there are no rack aggregators to stack a pod tier on)")
		}
		if cfg.RackLocalPS {
			panic("cluster: RackLocalPS without RackAggregation (there are no rack aggregators to cache parameters on)")
		}
		if cfg.AggReduceGBps > 0 {
			panic("cluster: AggReduceGBps without RackAggregation (there are no aggregators to rate-limit)")
		}
	}
	if cfg.HierAggregation && cfg.Topology.Pods <= 0 {
		panic("cluster: HierAggregation needs a spine tier (Topology.Pods > 0)")
	}
	if cfg.Faults != nil {
		validateFaults(&cfg, n)
	}
	// Model-aware disciplines (tictac) see the same timing the simulator
	// runs on unless a calibrated profile overrides it; model-blind
	// disciplines ignore the profile entirely.
	prof := cfg.Profile
	if prof == nil {
		prof = strategy.ComputeProfile(m, netCfg.BandwidthGbps)
	}
	netCfg.Profile = prof

	// Engine selection: the exact legacy single-heap engine for Shards
	// <= 1 (optionally a caller-supplied reusable one), the
	// conservative-lookahead parallel engine above that. The lookahead is
	// the topology's minimum cross-LP latency; shard assignment is
	// rack-aligned so only the core hop crosses shards.
	shards := cfg.Shards
	if shards > n {
		shards = n
	}
	var exec sim.Exec
	if shards >= 2 {
		if cfg.Recorder != nil {
			panic("cluster: Recorder needs Shards <= 1 (shared utilization buckets)")
		}
		p, err := sim.NewParallel(shards, netCfg.LPShards(n, shards), netCfg.Lookahead())
		if err != nil {
			panic(fmt.Sprintf("cluster: %v", err))
		}
		exec = p
	} else {
		eng := cfg.Engine
		if eng != nil {
			eng.Reset()
		} else {
			eng = &sim.Engine{}
		}
		exec = sim.Single{Eng: eng}
	}

	cs := &clusterSim{
		cfg:    cfg,
		exec:   exec,
		plan:   cfg.Strategy.Partition(m, cfg.Servers),
		timing: model.NewTiming(m),
		layers: len(m.Layers),
		total:  int32(cfg.WarmupIters + cfg.MeasureIters),
	}
	cs.procs = make([]sim.Proc, n)
	for i := range cs.procs {
		cs.procs[i] = exec.Proc(i)
	}

	// Server placement: identity (server s co-located on machine s) unless
	// ServerMachines overrides it.
	cs.srvMachine = make([]int, cfg.Servers)
	cs.machineSrv = make([]int, n)
	for i := range cs.machineSrv {
		cs.machineSrv[i] = -1
	}
	if cfg.ServerMachines != nil && len(cfg.ServerMachines) != cfg.Servers {
		panic(fmt.Sprintf("cluster: %d ServerMachines for %d servers", len(cfg.ServerMachines), cfg.Servers))
	}
	for s := range cs.srvMachine {
		mach := s
		if cfg.ServerMachines != nil {
			mach = cfg.ServerMachines[s]
		}
		if mach < 0 || mach >= n {
			panic(fmt.Sprintf("cluster: server %d placed on machine %d of %d", s, mach, n))
		}
		if cs.machineSrv[mach] != -1 {
			panic(fmt.Sprintf("cluster: servers %d and %d both placed on machine %d", cs.machineSrv[mach], s, mach))
		}
		cs.srvMachine[s] = mach
		cs.machineSrv[mach] = s
	}

	if cfg.RackAggregation {
		racks := cfg.Topology.NumRacks(n)
		cs.rackPop = make([]int, racks)
		cs.rackAggs = make([]rackAggState, racks)
		for r := 0; r < racks; r++ {
			cs.rackPop[r] = cfg.Topology.RackMachines(n, r)
			agg := make([]chunkAgg, cs.plan.NumChunks())
			for c := range agg {
				agg[c].iter = -1
			}
			cs.rackAggs[r] = rackAggState{agg: agg}
			if cfg.RackLocalPS {
				cached := make([]int32, cs.plan.NumChunks())
				for c := range cached {
					cached[c] = -1
				}
				cs.rackAggs[r].cachedIter = cached
				cs.rackAggs[r].pending = make(map[int32][]pendingPull)
			}
		}
		if cfg.HierAggregation {
			cs.rpp = racks / cfg.Topology.Pods
			cs.podAggs = make([]podAggState, cfg.Topology.Pods)
			cs.podPop = make([]int, cfg.Topology.Pods)
			for p := range cs.podAggs {
				agg := make([]chunkAgg, cs.plan.NumChunks())
				for c := range agg {
					agg[c].iter = -1
				}
				cs.podAggs[p] = podAggState{agg: agg}
				for r := p * cs.rpp; r < (p+1)*cs.rpp; r++ {
					cs.podPop[p] += cs.rackPop[r]
				}
			}
		}
		netCfg.AggDeliver = cs.aggDeliver
	}
	if cfg.Faults != nil {
		// Builds cs.fs and, for crash plans, sets netCfg.AggDrop — which
		// must land before the network is constructed.
		cs.newFaultState(&netCfg)
	}
	cs.net = netsim.NewOnExec(exec, n, netCfg, cs.deliver, cfg.Recorder)
	cs.updRate = cfg.UpdateRateGBps // GB/s == bytes/ns
	cs.hostRate = cfg.HostRateGBps  // GB/s == bytes/ns

	// Every processing pool runs the strategy's discipline on a fresh
	// instance; the item view exposes the chunk's wire priority and size,
	// with the originating worker as the flow key of per-destination gates
	// (and the axis damped's epoch rank interleaves same-layer items
	// across). The owning machine's index seeds source-aware disciplines.
	itemView := func(it procItem) sched.Item {
		return sched.Item{Priority: it.priority, Bytes: cs.plan.Chunks[it.chunk].Bytes(), Dest: it.src}
	}
	newQueue := func(owner int) *sched.Queue[procItem] {
		disc := sched.ApplyProfile(sched.MustByName(cfg.Strategy.Discipline()), prof)
		sched.ApplySource(disc, int32(owner))
		return sched.NewQueue(disc, itemView)
	}
	cs.servers = make([]serverState, cfg.Servers)
	for s := range cs.servers {
		srv := s
		cs.servers[s] = serverState{
			proc:     newProcPool(cs, cfg.ServerThreads, cfg.UpdateOverhead, cfg.UpdateRateGBps, newQueue(s), cs.procs[cs.srvMachine[s]]),
			agg:      make([]chunkAgg, cs.plan.NumChunks()),
			lastDone: make([]int32, cs.plan.NumChunks()),
			pending:  make(map[int32][]pendingPull),
		}
		for c := range cs.servers[s].agg {
			cs.servers[s].agg[c].iter = -1
			cs.servers[s].lastDone[c] = -1
		}
		if cs.fs != nil && cs.fs.hasCrash {
			cs.servers[s].seen = make([][]bool, cs.plan.NumChunks())
			for c := range cs.servers[s].seen {
				cs.servers[s].seen[c] = make([]bool, n)
			}
		}
		cs.servers[s].proc.done = func(it procItem) { cs.pushProcessed(srv, it) }
	}

	cs.workers = make([]workerState, n)
	for w := range cs.workers {
		ws := &cs.workers[w]
		ws.readyIter = make([]int32, cs.layers)
		for l := range ws.readyIter {
			ws.readyIter[l] = -1
		}
		ws.recvCount = make([]int, cs.layers)
		ws.notifyCount = make([]int, cs.layers)
		ws.bwdDone = make([]sim.Time, cs.total)
		ws.layerStall = make([]sim.Time, cs.layers)
		ws.proc = newProcPool(cs, cfg.HostThreads, cfg.HostOverhead, cfg.HostRateGBps, newQueue(w), cs.procs[w])
		wk := w
		ws.proc.done = func(it procItem) { cs.installChunk(wk, it.chunk, it.iter) }
	}

	// Precompute per-(worker, iteration) compute jitter so that event
	// ordering cannot perturb the random sequence.
	cs.jitter = make([][]float64, n)
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(cfg.Seed)^0x9e3779b97f4a7c15))
	sigma := m.ComputeJitter
	for w := range cs.jitter {
		cs.jitter[w] = make([]float64, cs.total)
		for i := range cs.jitter[w] {
			if sigma == 0 {
				cs.jitter[w][i] = 1
				continue
			}
			cs.jitter[w][i] = math.Exp(rng.NormFloat64()*sigma - sigma*sigma/2)
		}
	}
	if cs.fs != nil {
		// Construction time, before the engine runs: the scripted events
		// get the earliest insertion sequence numbers on their LPs, the
		// LP-quantization rule fault determinism rests on.
		cs.scheduleFaults()
	}
	return cs
}

func (cs *clusterSim) start() {
	if cs.cfg.Recorder != nil {
		cs.cfg.Recorder.Start(0)
	}
	for w := 0; w < cs.cfg.Machines; w++ {
		cs.advanceForward(w)
	}
}

// ---- worker compute state machine ----

func (cs *clusterSim) scaled(w int, iter int32, d sim.Time) sim.Time {
	t := sim.Time(float64(d) * cs.jitter[w][iter])
	if cs.fs != nil {
		// A straggler window multiplies compute steps that start inside it
		// (read off the static plan at the worker's own clock — no events,
		// no cross-LP state).
		if f := cs.fs.plan.SlowFactor(w, int64(cs.procs[w].Now())); f != 1 {
			t = sim.Time(float64(t) * f)
		}
	}
	return t
}

func (cs *clusterSim) advanceForward(w int) {
	ws := &cs.workers[w]
	if ws.fwdLayer == cs.layers {
		cs.startBackward(w)
		return
	}
	l := ws.fwdLayer
	if ws.readyIter[l] < ws.curIter-1 {
		if !ws.waitingFwd {
			ws.waitingFwd = true
			ws.waitSince = cs.procs[w].Now()
			if cs.fs != nil && cs.fs.hasCrash {
				// A broadcast stream dropped at a down aggregator would leave
				// this wait unsatisfiable: re-pull directly after a timeout.
				cs.armStallCheck(w, l, ws.curIter, ws.waitSince)
			}
		}
		return
	}
	if ws.waitingFwd {
		ws.waitingFwd = false
		if ws.curIter >= int32(cs.cfg.WarmupIters) {
			ws.layerStall[l] += cs.procs[w].Now() - ws.waitSince
		}
	}
	cs.after(w, cs.scaled(w, ws.curIter, cs.timing.Fwd[l]), func() {
		ws.fwdLayer = l + 1
		cs.advanceForward(w)
	})
}

func (cs *clusterSim) startBackward(w int) {
	cs.stepBackward(w, cs.layers-1)
}

func (cs *clusterSim) stepBackward(w, l int) {
	ws := &cs.workers[w]
	cs.after(w, cs.scaled(w, ws.curIter, cs.timing.Bwd[l]), func() {
		cs.pushLayer(w, l)
		if l > 0 {
			cs.stepBackward(w, l-1)
			return
		}
		cs.backwardDone(w)
	})
}

func (cs *clusterSim) pushLayer(w, l int) {
	ws := &cs.workers[w]
	for _, id := range cs.plan.LayerChunks(l) {
		c := cs.plan.Chunks[id]
		m := netsim.Message{
			From: w, To: cs.srvMachine[c.Server], Bytes: c.Bytes(), Priority: int32(c.Priority),
			Kind: kPush, Chunk: int32(id), Iter: ws.curIter, Src: int32(w),
		}
		// Under rack aggregation every push that would cross the NIC routes
		// through the worker's own rack aggregator instead — including
		// pushes whose server is rack-local, which cuts the server's NIC
		// fan-in from rackPop to one. Only the co-located worker's loopback
		// (shared memory, never on the wire) stays direct. A worker that
		// has detected its rack aggregator down falls back to the direct
		// push until the restart is detected.
		if cs.rackAggs != nil && w != m.To {
			rack := cs.cfg.Topology.RackOf(w)
			if cs.fs != nil && cs.fs.hasCrash && cs.rackDownDetected(rack, cs.procs[w].Now()) {
				cs.fs.machFailovers[w]++
			} else {
				m.To = rack
				m.ToAgg = true
			}
		}
		if cs.fs != nil && cs.fs.hasCrash {
			cs.fs.pushedIter[w][id] = ws.curIter
		}
		cs.net.Send(m)
	}
}

func (cs *clusterSim) backwardDone(w int) {
	ws := &cs.workers[w]
	ws.bwdDone[ws.curIter] = cs.procs[w].Now()
	if cs.cfg.Strategy.Pull == strategy.DeferredPull {
		// TensorFlow semantics: the next graph execution begins now and
		// issues receive ops for every parameter at once.
		for id := range cs.plan.Chunks {
			cs.sendPull(w, int32(id), ws.curIter)
		}
	}
	ws.curIter++
	if ws.curIter < cs.total {
		ws.fwdLayer = 0
		cs.advanceForward(w)
	}
}

// ---- message dispatch ----

func (cs *clusterSim) deliver(m netsim.Message) {
	switch m.Kind {
	case kPush:
		cs.onPush(m)
	case kNotify:
		cs.onNotify(m)
	case kPull:
		cs.onPull(m)
	case kData:
		cs.onData(m)
	case kRepush:
		cs.onRepush(m)
	default:
		panic(fmt.Sprintf("cluster: unknown message kind %d", m.Kind))
	}
}

// ---- server side ----

func (cs *clusterSim) onPush(m netsim.Message) {
	cs.servers[cs.machineSrv[m.To]].proc.add(cs, procItem{chunk: m.Chunk, iter: m.Iter, src: m.Src, priority: m.Priority})
}

// ---- rack and pod aggregators (RackAggregation only) ----

// aggDeliver is the netsim AggDeliver handler, running on the addressed
// aggregator's LP.
//
// Rack tier: gradient pushes reduce — the rack's last contribution per
// (chunk, iteration) flushes one reduced push, same bytes, weighted as
// the whole rack, to the chunk's server (or, under HierAggregation, up to
// the pod aggregator for the second reduction stage). Broadcast traffic
// (immediate data, notifies) fans out to the rack's machines at ToR line
// rate, skipping the server's own machine (its worker got the loopback
// copy). Under RackLocalPS the rack aggregator additionally acts as the
// rack's parameter cache: kCache updates refresh it (answering any pulls
// that arrived early), and kPull requests are served rack-locally from
// it.
//
// Pod tier (HierAggregation): rack streams reduce again — each arriving
// stream counts as its rack's weight, and podExpect flushes ONE stream
// per pod to the server; broadcast traffic descends, one copy per rack of
// the pod, re-entering the rack aggregators above.
func (cs *clusterSim) aggDeliver(tier, idx int, m netsim.Message) {
	if tier == netsim.TierPod {
		cs.podAggDeliver(idx, m)
		return
	}
	rack := idx
	switch m.Kind {
	case kPush:
		a := &cs.rackAggs[rack].agg[m.Chunk]
		if a.iter != m.Iter {
			a.iter = m.Iter
			a.count = 0
		}
		a.count++
		if a.count == cs.aggExpect(rack, m.Chunk) {
			out := m
			out.Src = int32(-1 - rack)
			toPod := cs.podAggs != nil
			if toPod && cs.fs != nil && cs.fs.hasCrash &&
				cs.podDownDetected(cs.podOf(rack), cs.net.AggNow(netsim.TierRack, rack)) {
				// Hierarchical failover: re-parent the reduced rack stream
				// from the down pod aggregator straight to the server.
				toPod = false
				cs.fs.aggFailovers[rack]++
			}
			if toPod {
				out.To = cs.podOf(rack)
				out.ToAgg = true
				out.AggTier = netsim.TierPod
			} else {
				out.To = cs.srvMachine[cs.plan.Chunks[m.Chunk].Server]
				out.ToAgg = false
			}
			cs.net.AggSend(netsim.TierRack, rack, out)
			// Flushed contributions are accounted for downstream: reset the
			// slot so a later crash on this aggregator cannot count them as
			// lost (event-neutral — a completed slot never flushes again).
			a.count = 0
		}
	case kData, kNotify:
		skip := -1
		if srvM := cs.srvMachine[int(m.Src)]; cs.cfg.Topology.RackOf(srvM) == rack {
			skip = srvM
		}
		cs.net.AggFanout(netsim.TierRack, rack, m, skip)
	case kCache:
		ra := &cs.rackAggs[rack]
		if m.Iter > ra.cachedIter[m.Chunk] {
			ra.cachedIter[m.Chunk] = m.Iter
		}
		pend := ra.pending[m.Chunk]
		if len(pend) == 0 {
			return
		}
		rest := pend[:0]
		for _, p := range pend {
			if p.iter <= m.Iter {
				cs.aggServePull(rack, m.Chunk, p.iter, p.src)
			} else {
				rest = append(rest, p)
			}
		}
		if len(rest) == 0 {
			delete(ra.pending, m.Chunk)
		} else {
			ra.pending[m.Chunk] = rest
		}
	case kPull:
		ra := &cs.rackAggs[rack]
		if ra.cachedIter[m.Chunk] >= m.Iter {
			cs.aggServePull(rack, m.Chunk, m.Iter, int(m.Src))
			return
		}
		ra.pending[m.Chunk] = append(ra.pending[m.Chunk], pendingPull{iter: m.Iter, src: int(m.Src)})
	default:
		panic(fmt.Sprintf("cluster: message kind %d has no rack-aggregator semantics", m.Kind))
	}
}

// aggServePull answers a rack-local parameter pull from the rack
// aggregator's cache (RackLocalPS): the data copy pays propagation plus
// the puller's ingress, never a core port.
func (cs *clusterSim) aggServePull(rack int, chunk, iter int32, dst int) {
	c := cs.plan.Chunks[chunk]
	cs.net.AggSend(netsim.TierRack, rack, netsim.Message{
		From: cs.srvMachine[c.Server], To: dst, Bytes: c.Bytes(), Priority: int32(c.Priority),
		Kind: kData, Chunk: chunk, Iter: iter, Src: int32(c.Server),
	})
}

// podAggDeliver handles pod-tier aggregator traffic (HierAggregation).
func (cs *clusterSim) podAggDeliver(pod int, m netsim.Message) {
	switch m.Kind {
	case kPush:
		a := &cs.podAggs[pod].agg[m.Chunk]
		if a.iter != m.Iter {
			a.iter = m.Iter
			a.count = 0
		}
		a.count += cs.aggExpect(int(-1-m.Src), m.Chunk)
		if a.count == cs.podExpect(pod, m.Chunk) {
			out := m
			out.To = cs.srvMachine[cs.plan.Chunks[m.Chunk].Server]
			out.ToAgg = false
			out.AggTier = 0
			out.Src = int32(-1 - len(cs.rackPop) - pod)
			cs.net.AggSend(netsim.TierPod, pod, out)
			a.count = 0
		}
	case kData, kNotify, kCache:
		// Descend the broadcast: one copy per rack of the pod, skipping a
		// rack whose only machine is the broadcasting server (its worker
		// got the loopback copy, the rack has nobody else to fan to, and
		// nobody there will ever pull from the cache).
		skip := -1
		srvM := cs.srvMachine[int(m.Src)]
		if cs.podOf(cs.cfg.Topology.RackOf(srvM)) == pod {
			if r := cs.cfg.Topology.RackOf(srvM); cs.rackPop[r] == 1 {
				skip = r
			}
		}
		if cs.fs != nil && cs.fs.hasCrash {
			now := cs.net.AggNow(netsim.TierPod, pod)
			lo, hi := pod*cs.rpp, (pod+1)*cs.rpp
			anyDown := false
			for r := lo; r < hi; r++ {
				if r != skip && cs.rackDownDetected(r, now) {
					anyDown = true
					break
				}
			}
			if anyDown {
				// Failover fan: streams for down rack aggregators go per
				// machine instead (each copy serializes through the rack
				// downlink individually — the cost of losing the ToR fanout).
				cs.fs.aggFailovers[len(cs.rackPop)+pod]++
				for r := lo; r < hi; r++ {
					if r == skip {
						continue
					}
					if cs.rackDownDetected(r, now) {
						mlo := r * cs.cfg.Topology.RackSize
						for w := mlo; w < mlo+cs.rackPop[r]; w++ {
							if w == srvM {
								continue
							}
							c := m
							c.To = w
							c.ToAgg = false
							c.AggTier = 0
							cs.net.AggSend(netsim.TierPod, pod, c)
						}
						continue
					}
					c := m
					c.To = r
					c.ToAgg = true
					c.AggTier = netsim.TierRack
					cs.net.AggSend(netsim.TierPod, pod, c)
				}
				return
			}
		}
		cs.net.AggFanout(netsim.TierPod, pod, m, skip)
	default:
		panic(fmt.Sprintf("cluster: message kind %d has no pod-aggregator semantics", m.Kind))
	}
}

// podOf maps a rack to its pod (HierAggregation only).
func (cs *clusterSim) podOf(rack int) int { return rack / cs.rpp }

// aggExpect is the contribution count that completes rack's reduction of
// chunk — every machine of the rack, except the chunk's own server
// machine when it lives there (its co-located worker pushes through
// shared memory, counted individually by the server). It is also the
// weight the reduced push carries at the next aggregation barrier (the
// server's, or the pod aggregator's under HierAggregation).
func (cs *clusterSim) aggExpect(rack int, chunk int32) int {
	expect := cs.rackPop[rack]
	if srvM := cs.srvMachine[cs.plan.Chunks[chunk].Server]; cs.cfg.Topology.RackOf(srvM) == rack {
		expect--
	}
	return expect
}

// podExpect is the contribution weight that completes pod's reduction of
// chunk: the sum of its racks' aggExpect weights. Racks with weight 0
// (a single-machine rack hosting the chunk's server) never flush, so the
// sum counts exactly the streams that arrive.
func (cs *clusterSim) podExpect(pod int, chunk int32) int {
	expect := 0
	for r := pod * cs.rpp; r < (pod+1)*cs.rpp; r++ {
		expect += cs.aggExpect(r, chunk)
	}
	return expect
}

// pushProcessed runs when the server finishes aggregating one worker's push
// of a chunk; the Nth push completes the update. In Async (ASGD) mode every
// push is its own update, answered only to the pushing worker. A reduced
// push (Src < 0 under RackAggregation) counts as every worker whose
// gradient was folded into it: Src encodes -(1+rack) for a rack stream
// and -(1+racks+pod) for a pod stream (HierAggregation).
func (cs *clusterSim) pushProcessed(srv int, it procItem) {
	if cs.cfg.Strategy.Async {
		cs.sendData(srv, it.chunk, it.iter, int(it.src))
		return
	}
	if cs.fs != nil && cs.fs.hasCrash {
		cs.pushProcessedFaults(srv, it)
		return
	}
	s := &cs.servers[srv]
	agg := &s.agg[it.chunk]
	if agg.iter != it.iter {
		agg.iter = it.iter
		agg.count = 0
		agg.done = false
	}
	if it.src < 0 {
		if idx := int(-1 - it.src); idx >= len(cs.rackPop) {
			agg.count += cs.podExpect(idx-len(cs.rackPop), it.chunk)
		} else {
			agg.count += cs.aggExpect(idx, it.chunk)
		}
	} else {
		agg.count++
	}
	if agg.count == cs.cfg.Machines {
		agg.done = true
		if it.iter > s.lastDone[it.chunk] {
			s.lastDone[it.chunk] = it.iter
		}
		cs.onUpdated(srv, it.chunk, it.iter)
	}
}

func (cs *clusterSim) onUpdated(srv int, chunk, iter int32) {
	c := cs.plan.Chunks[chunk]
	// broadcast sends one message per worker — or, under rack aggregation,
	// one loopback to the co-located worker plus one rack-stream per rack
	// for its ToR to fan out (one pod-stream per pod under hierarchical
	// aggregation, descending the spine once and fanning at each tier), so
	// the server's egress serializes per-rack (per-pod) instead of
	// per-worker and only one copy per rack (pod) crosses the core
	// (spine). kCache streams address the rack caches only: no loopback —
	// the co-located worker never pulls over the wire.
	broadcast := func(bytes int64, kind uint8) {
		srvM := cs.srvMachine[srv]
		if cs.rackAggs == nil {
			for w := 0; w < cs.cfg.Machines; w++ {
				cs.net.Send(netsim.Message{
					From: srvM, To: w, Bytes: bytes, Priority: int32(c.Priority),
					Kind: kind, Chunk: chunk, Iter: iter, Src: int32(srv),
				})
			}
			return
		}
		if kind != kCache {
			cs.net.Send(netsim.Message{
				From: srvM, To: srvM, Bytes: bytes, Priority: int32(c.Priority),
				Kind: kind, Chunk: chunk, Iter: iter, Src: int32(srv),
			})
		}
		crash := cs.fs != nil && cs.fs.hasCrash
		var now sim.Time
		if crash {
			now = cs.procs[srvM].Now()
		}
		srvRack := cs.cfg.Topology.RackOf(srvM)
		// rackStream ships rack r's copy: one ToR stream normally, or —
		// when the rack's aggregator is down as detected now — one direct
		// copy per machine of the rack (the loopback covered srvM).
		rackStream := func(r int) {
			if crash && cs.rackDownDetected(r, now) {
				cs.fs.machFailovers[srvM]++
				lo := r * cs.cfg.Topology.RackSize
				for w := lo; w < lo+cs.rackPop[r]; w++ {
					if w == srvM {
						continue
					}
					cs.net.Send(netsim.Message{
						From: srvM, To: w, Bytes: bytes, Priority: int32(c.Priority),
						Kind: kind, Chunk: chunk, Iter: iter, Src: int32(srv),
					})
				}
				return
			}
			cs.net.Send(netsim.Message{
				From: srvM, To: r, ToAgg: true, Bytes: bytes, Priority: int32(c.Priority),
				Kind: kind, Chunk: chunk, Iter: iter, Src: int32(srv),
			})
		}
		if cs.podAggs != nil {
			srvPod := cs.podOf(srvRack)
			for p := range cs.podPop {
				if p == srvPod && cs.podPop[p] == 1 {
					continue // the loopback already reached the whole pod
				}
				if crash && cs.podDownDetected(p, now) {
					// The pod stream would die at the down pod aggregator:
					// descend one tier and ship per-rack streams instead.
					cs.fs.machFailovers[srvM]++
					for r := p * cs.rpp; r < (p+1)*cs.rpp; r++ {
						if r == srvRack && cs.rackPop[r] == 1 {
							continue
						}
						rackStream(r)
					}
					continue
				}
				cs.net.Send(netsim.Message{
					From: srvM, To: p, ToAgg: true, AggTier: netsim.TierPod,
					Bytes: bytes, Priority: int32(c.Priority),
					Kind: kind, Chunk: chunk, Iter: iter, Src: int32(srv),
				})
			}
			return
		}
		for r := range cs.rackPop {
			if r == srvRack && cs.rackPop[r] == 1 {
				continue // the loopback already reached the whole rack
			}
			rackStream(r)
		}
	}
	switch cs.cfg.Strategy.Pull {
	case strategy.Immediate:
		broadcast(c.Bytes(), kData)
	case strategy.NotifyPull:
		broadcast(ctlBytes, kNotify)
	}
	// The rack-local parameter cache refreshes on every update: one
	// data-sized stream per rack (per pod under HierAggregation) — the
	// same volume an Immediate broadcast would ship, but pull-mode
	// strategies then answer every pull inside the rack.
	if cs.cfg.RackLocalPS && cs.cfg.Strategy.Pull != strategy.Immediate {
		broadcast(c.Bytes(), kCache)
	}
	// Serve any pulls that were waiting for this (or an older) iteration,
	// regardless of pull mode: the stored value now satisfies them.
	s := &cs.servers[srv]
	pend := s.pending[chunk]
	if len(pend) == 0 {
		return
	}
	rest := pend[:0]
	for _, p := range pend {
		if p.iter <= iter {
			cs.sendData(srv, chunk, p.iter, p.src)
		} else {
			rest = append(rest, p)
		}
	}
	if len(rest) == 0 {
		delete(s.pending, chunk)
	} else {
		s.pending[chunk] = rest
	}
}

func (cs *clusterSim) sendData(srv int, chunk, iter int32, dst int) {
	c := cs.plan.Chunks[chunk]
	cs.net.Send(netsim.Message{
		From: cs.srvMachine[srv], To: dst, Bytes: c.Bytes(), Priority: int32(c.Priority),
		Kind: kData, Chunk: chunk, Iter: iter, Src: int32(srv),
	})
}

func (cs *clusterSim) onPull(m netsim.Message) {
	srv := cs.machineSrv[m.To]
	s := &cs.servers[srv]
	if s.lastDone[m.Chunk] >= m.Iter {
		// The requested (or a newer) update already landed: answer with
		// the current value, as a real key-value store does.
		cs.sendData(srv, m.Chunk, m.Iter, int(m.Src))
		return
	}
	s.pending[m.Chunk] = append(s.pending[m.Chunk], pendingPull{iter: m.Iter, src: int(m.Src)})
}

// ---- worker receive side ----

func (cs *clusterSim) onNotify(m netsim.Message) {
	w := m.To
	ws := &cs.workers[w]
	l := cs.plan.Chunks[m.Chunk].Layer
	ws.notifyCount[l]++
	if ws.notifyCount[l] < len(cs.plan.LayerChunks(l)) {
		return
	}
	// All shards of this layer updated: issue the pulls (MXNet semantics).
	ws.notifyCount[l] = 0
	for _, id := range cs.plan.LayerChunks(l) {
		cs.sendPull(w, int32(id), m.Iter)
	}
}

// sendPull issues worker w's parameter pull for a chunk: a pull to a
// co-located server stays loopback (shared memory), and under RackLocalPS
// every other pull goes to the worker's own rack aggregator, which
// answers from the rack's parameter cache — so neither the pull nor its
// data reply ever crosses the core.
func (cs *clusterSim) sendPull(w int, id, iter int32) {
	c := cs.plan.Chunks[id]
	m := netsim.Message{
		From: w, To: cs.srvMachine[c.Server], Bytes: ctlBytes, Priority: int32(c.Priority),
		Kind: kPull, Chunk: id, Iter: iter, Src: int32(w),
	}
	if cs.cfg.RackLocalPS && w != m.To {
		m.To = cs.cfg.Topology.RackOf(w)
		m.ToAgg = true
	}
	cs.net.Send(m)
}

func (cs *clusterSim) onData(m netsim.Message) {
	cs.workers[m.To].proc.add(cs, procItem{chunk: m.Chunk, iter: m.Iter, src: m.Src, priority: m.Priority})
}

// installChunk marks an updated parameter chunk as usable by the next
// forward pass and unblocks the worker if it was stalled on this layer.
func (cs *clusterSim) installChunk(w int, chunk, iter int32) {
	if fs := cs.fs; fs != nil && fs.hasCrash {
		// Crash recovery can deliver the same chunk twice (re-pull plus the
		// original broadcast): only the first installation of an iteration
		// counts, keeping recvCount consistent.
		if fs.gotIter[w][chunk] >= iter {
			return
		}
		fs.gotIter[w][chunk] = iter
	}
	ws := &cs.workers[w]
	l := cs.plan.Chunks[chunk].Layer
	ws.recvCount[l]++
	if ws.recvCount[l] < len(cs.plan.LayerChunks(l)) {
		return
	}
	ws.recvCount[l] = 0
	ws.readyIter[l] = iter
	if ws.waitingFwd && ws.fwdLayer == l {
		cs.advanceForward(w)
	}
}

// ---- results ----

func (cs *clusterSim) result() Result {
	n := cs.cfg.Machines
	// A wedged protocol leaves some worker's final iteration timestamp at
	// zero after the event queue drained: fail loudly instead of reporting
	// nonsense.
	for w := 0; w < n; w++ {
		if cs.workers[w].bwdDone[cs.total-1] == 0 {
			panic(fmt.Sprintf("cluster: worker %d never finished iteration %d (%s/%s, %d servers): protocol wedged",
				w, cs.total-1, cs.cfg.Model.Name, cs.cfg.Strategy.Name, cs.cfg.Servers))
		}
	}
	makespan := func(iter int) sim.Time {
		var t sim.Time
		for w := 0; w < n; w++ {
			if cs.workers[w].bwdDone[iter] > t {
				t = cs.workers[w].bwdDone[iter]
			}
		}
		return t
	}
	warmEnd := makespan(cs.cfg.WarmupIters - 1)
	last := makespan(int(cs.total) - 1)
	elapsed := last - warmEnd
	samples := float64(cs.cfg.MeasureIters * n * cs.cfg.Model.BatchSize)

	iterTimes := make([]sim.Time, 0, cs.cfg.MeasureIters)
	prev := warmEnd
	var sum sim.Time
	for i := cs.cfg.WarmupIters; i < int(cs.total); i++ {
		t := makespan(i)
		iterTimes = append(iterTimes, t-prev)
		sum += t - prev
		prev = t
	}

	res := Result{
		Model:           cs.cfg.Model.Name,
		Strategy:        cs.cfg.Strategy.Name,
		Machines:        n,
		BandwidthGbps:   cs.cfg.BandwidthGbps,
		Throughput:      samples / elapsed.Seconds(),
		MeanIterTime:    sum / sim.Time(len(iterTimes)),
		IterTimes:       iterTimes,
		ComputeIterTime: cs.timing.IterCompute,
		WarmupEnd:       warmEnd,
		MeasuredIters:   cs.cfg.MeasureIters,
		LayerStalls:     cs.workers[0].layerStall,
		Events:          cs.exec.Processed(),
		Msgs:            cs.net.MsgsDelivered(),
		WireBytes:       cs.net.BytesDelivered(),
		Preemptions:     cs.net.Preemptions(),
		CoreBytes:       cs.net.CoreBytes(),
		SpineBytes:      cs.net.SpineBytes(),
	}
	if cs.fs != nil {
		cs.faultCounters(&res)
	}
	return res
}
