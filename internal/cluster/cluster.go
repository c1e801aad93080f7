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

// Validate reports the first reason the configuration cannot run, with
// defaults applied: every prerequisite between fields is checked here and
// nowhere else — Run panics with this error, and a command line prints it.
func (c Config) Validate() error {
	c = c.withDefaults()
	n := c.Machines
	if c.Model == nil {
		return fmt.Errorf("cluster: no Model")
	}
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("cluster: invalid model: %w", err)
	}
	if n < 0 || c.Servers < 0 || c.Servers > n {
		return fmt.Errorf("cluster: %d servers on %d machines", c.Servers, n)
	}
	if c.BandwidthGbps <= 0 && (c.Net == nil || c.Net.BandwidthGbps <= 0) {
		return fmt.Errorf("cluster: bandwidth %g Gbps", c.BandwidthGbps)
	}
	if _, err := sched.ByName(c.Strategy.Discipline()); err != nil {
		return fmt.Errorf("cluster: strategy %s: %w", c.Strategy.Name, err)
	}
	if c.Recorder != nil && c.Shards >= 2 && n >= 2 {
		return fmt.Errorf("cluster: Recorder needs Shards <= 1 (shared utilization buckets)")
	}
	if c.ServerMachines != nil && len(c.ServerMachines) != c.Servers {
		return fmt.Errorf("cluster: %d ServerMachines for %d servers", len(c.ServerMachines), c.Servers)
	}
	for s, mach := range c.ServerMachines {
		if mach < 0 || mach >= n {
			return fmt.Errorf("cluster: server %d placed on machine %d of %d", s, mach, n)
		}
		for s2, other := range c.ServerMachines[:s] {
			if other == mach {
				return fmt.Errorf("cluster: servers %d and %d both placed on machine %d", s2, s, mach)
			}
		}
	}
	t := c.Topology
	if err := t.ValidateFor(n); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if t.RackSize > n {
		return fmt.Errorf("cluster: rack size %d exceeds the %d machines", t.RackSize, n)
	}
	switch {
	case c.AggReduceGBps < 0:
		return fmt.Errorf("cluster: negative AggReduceGBps %g (0 = free reduction)", c.AggReduceGBps)
	case !c.RackAggregation && c.HierAggregation:
		return fmt.Errorf("cluster: HierAggregation without RackAggregation (there are no rack aggregators to stack a pod tier on)")
	case !c.RackAggregation && c.RackLocalPS:
		return fmt.Errorf("cluster: RackLocalPS without RackAggregation (there are no rack aggregators to cache parameters on)")
	case !c.RackAggregation && c.AggReduceGBps > 0:
		return fmt.Errorf("cluster: AggReduceGBps without RackAggregation (there are no aggregators to rate-limit)")
	case c.RackAggregation && t.RackSize <= 0:
		return fmt.Errorf("cluster: RackAggregation needs a rack topology (Topology.RackSize > 0)")
	case c.RackAggregation && c.Strategy.Async:
		return fmt.Errorf("cluster: RackAggregation is a synchronous-reduction optimization; ASGD has no aggregation barrier to fold into the rack")
	case c.HierAggregation && t.Pods <= 0:
		return fmt.Errorf("cluster: HierAggregation needs a spine tier (Topology.Pods > 0)")
	}
	p := c.Faults
	if p == nil {
		return nil
	}
	if err := p.Validate(n, t); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	switch {
	case !p.HasAggCrash():
	case !c.RackAggregation:
		return fmt.Errorf("cluster: an agg-crash fault needs RackAggregation (there is no aggregator to crash)")
	case c.RackLocalPS:
		return fmt.Errorf("cluster: agg-crash faults are incompatible with RackLocalPS (the rack parameter cache has no failover path)")
	case c.Strategy.Pull != strategy.Immediate:
		return fmt.Errorf("cluster: agg-crash faults need an Immediate-broadcast strategy (crash recovery re-pulls against the immediate data path)")
	case p.HasTierCrash(faults.TierPod) && !c.HierAggregation:
		return fmt.Errorf("cluster: a pod-tier agg-crash needs HierAggregation (there is no pod aggregator to crash)")
	}
	return nil
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

// aggNode is one aggregator of the reduction tree (RackAggregation): a rack
// aggregator, or — under HierAggregation — a pod aggregator above its
// racks' nodes. Its place in the tree is fixed at construction and read
// from anywhere; everything that changes (agg, the counters, the cache) is
// owned by the aggregator's LP — touched exclusively from AggDeliver/
// AggDrop and outage callbacks, which the netsim contract runs on that
// LP's timeline, so the sharded engine never races on it.
//
// agg holds, per chunk, the in-flight iteration and the weight of the
// contributions reduced so far. Iterations strictly serialize per chunk at
// an aggregator (a worker cannot push iteration k before the server's k-1
// update, which needed this node's k-1 flush), so one slot per chunk
// suffices — the same invariant the server-side chunkAgg relies on.
// Under RackLocalPS a rack node is also the rack's parameter cache:
// cachedIter[c] is the newest iteration whose kCache update for chunk c
// landed (-1 initially), and pending holds the rack's pulls that arrived
// ahead of their iteration's cache update.
type aggNode struct {
	tier, idx int        // the aggregator's netsim address
	ord       int        // its ordinal (racks, then pods): a reduced stream carries Src = -1-ord
	lo, hi    int        // the machines [lo, hi) below it
	parent    *aggNode   // nil at the top of the tree
	kids      []*aggNode // the nodes one tier down (none below a rack)
	agg       []chunkAgg
	// failovers counts reroutes decided on this aggregator's LP and lost the
	// gradient contributions it swallowed while down (Config.Faults).
	failovers, lost int64

	cachedIter []int32                 // RackLocalPS rack nodes only
	pending    map[int32][]pendingPull // RackLocalPS rack nodes only: chunk -> waiting pulls
}

// only reports whether machine m is all there is below the node.
func (a *aggNode) only(m int) bool { return a.lo == m && a.hi == m+1 }

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

	// aggs is the reduction tree (RackAggregation only), in netsim's
	// aggregator ordinal order: the rack nodes, then — under
	// HierAggregation — the pod nodes. tops are the parentless nodes, the
	// ones a server addresses its broadcasts to.
	aggs []aggNode
	tops []aggNode

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
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
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
	netCfg.Topology = cfg.Topology
	// Set before the engine is built: the aggregator LPs change the LP
	// count and shard assignment.
	netCfg.Aggregation = cfg.RackAggregation
	netCfg.AggReduceGBps = cfg.AggReduceGBps
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
	for s := range cs.srvMachine {
		mach := s
		if cfg.ServerMachines != nil {
			mach = cfg.ServerMachines[s]
		}
		cs.srvMachine[s] = mach
		cs.machineSrv[mach] = s
	}

	if cfg.RackAggregation {
		cs.buildAggs()
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

// buildAggs lays out the reduction tree over the topology's groups: one
// node per rack and, under HierAggregation, one per pod above them.
func (cs *clusterSim) buildAggs() {
	n, topo := cs.cfg.Machines, cs.cfg.Topology
	spans := []int{topo.RackSize}
	if cs.cfg.HierAggregation {
		spans = append(spans, topo.RackSize*(topo.NumRacks(n)/topo.Pods))
	}
	top := 0 // ordinal of the top tier's first node
	for tier, span := range spans {
		top = len(cs.aggs)
		for lo := 0; lo < n; lo += span {
			a := aggNode{tier: tier, idx: lo / span, ord: len(cs.aggs), lo: lo, hi: min(lo+span, n),
				agg: make([]chunkAgg, cs.plan.NumChunks())}
			for c := range a.agg {
				a.agg[c].iter = -1
			}
			if cs.cfg.RackLocalPS && tier == netsim.TierRack {
				a.cachedIter = make([]int32, len(a.agg))
				for c := range a.cachedIter {
					a.cachedIter[c] = -1
				}
				a.pending = make(map[int32][]pendingPull)
			}
			cs.aggs = append(cs.aggs, a)
		}
	}
	cs.tops = cs.aggs[top:]
	for i := range cs.aggs[:top] {
		a := &cs.aggs[i]
		a.parent = &cs.tops[a.lo/spans[1]]
		a.parent.kids = append(a.parent.kids, a)
	}
}

// node is the tree node of the tier's aggregator idx.
func (cs *clusterSim) node(tier, idx int) *aggNode {
	if tier == netsim.TierRack {
		return &cs.aggs[idx]
	}
	return &cs.tops[idx]
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
		// fan-in from the rack's population to one. Only the co-located
		// worker's loopback (shared memory, never on the wire) stays direct.
		// A worker that has detected its rack aggregator down falls back to
		// the direct push until the restart is detected.
		if cs.aggs != nil && w != m.To {
			rack := cs.node(netsim.TierRack, cs.cfg.Topology.RackOf(w))
			if cs.fs != nil && cs.fs.hasCrash && cs.downDetected(rack, cs.procs[w].Now()) {
				cs.fs.machFailovers[w]++
			} else {
				m.To = rack.idx
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

// ---- aggregators (RackAggregation only) ----

// aggDeliver is the netsim AggDeliver handler, running on the addressed
// aggregator's LP.
//
// Gradient pushes reduce: each arriving contribution counts at its weight
// (a worker's push as 1, a reduced stream from a node below as that node's
// expect), and the one that completes the node's (chunk, iteration) flushes
// ONE reduced push, same bytes, weighted as everything below the node, to
// the parent node — or, at the top of the tree, to the chunk's server.
//
// Broadcast traffic (immediate data, notifies, and above the racks the
// kCache streams) descends: one copy per child, fanned at line rate — a
// rack node's children are its machines, a pod node's its rack nodes.
//
// Under RackLocalPS a rack node additionally acts as the rack's parameter
// cache: kCache updates refresh it (answering any pulls that arrived
// early), and kPull requests are served rack-locally from it.
func (cs *clusterSim) aggDeliver(tier, idx int, m netsim.Message) {
	a := cs.node(tier, idx)
	switch m.Kind {
	case kPush:
		slot := &a.agg[m.Chunk]
		if slot.iter != m.Iter {
			slot.iter = m.Iter
			slot.count = 0
		}
		slot.count += cs.weight(m.Src, m.Chunk)
		if slot.count != cs.expect(a, m.Chunk) {
			return
		}
		out := m
		out.Src = int32(-1 - a.ord)
		up := a.parent
		if up != nil && cs.fs != nil && cs.fs.hasCrash && cs.downDetected(up, cs.net.AggNow(tier, idx)) {
			// Hierarchical failover: re-parent the reduced stream from the
			// down aggregator above straight to the server.
			up = nil
			a.failovers++
		}
		if up != nil {
			out.To, out.ToAgg, out.AggTier = up.idx, true, uint8(up.tier)
		} else {
			out.To, out.ToAgg, out.AggTier = cs.srvMachine[cs.plan.Chunks[m.Chunk].Server], false, 0
		}
		cs.net.AggSend(tier, idx, out)
		// Flushed contributions are accounted for downstream: reset the
		// slot so a later crash on this aggregator cannot count them as
		// lost (event-neutral — a completed slot never flushes again).
		slot.count = 0
	case kData, kNotify, kCache:
		if m.Kind == kCache && a.kids == nil {
			cs.refreshCache(a, m)
			return
		}
		cs.descend(a, m)
	case kPull:
		if a.cachedIter[m.Chunk] >= m.Iter {
			cs.aggServePull(a, m.Chunk, m.Iter, int(m.Src))
			return
		}
		a.pending[m.Chunk] = append(a.pending[m.Chunk], pendingPull{iter: m.Iter, src: int(m.Src)})
	default:
		panic(fmt.Sprintf("cluster: message kind %d has no aggregator semantics", m.Kind))
	}
}

// descend passes a server's broadcast one level down from node a. A rack's
// ToR fans it to the rack's machines, skipping the server's own (its
// worker got the loopback copy). A node above fans one copy per child
// node, skipping a child whose only machine is the broadcasting server
// (the rack has nobody else to fan to, and nobody there will ever pull
// from the cache); a child whose aggregator is down as detected now gets
// its copies per machine instead.
func (cs *clusterSim) descend(a *aggNode, m netsim.Message) {
	srvM := cs.srvMachine[int(m.Src)]
	skip := -1
	if a.kids == nil {
		if a.lo <= srvM && srvM < a.hi {
			skip = srvM
		}
		cs.net.AggFanout(a.tier, a.idx, m, skip)
		return
	}
	crash := cs.fs != nil && cs.fs.hasCrash
	var now sim.Time
	if crash {
		now = cs.net.AggNow(a.tier, a.idx)
	}
	anyDown := false
	for _, k := range a.kids {
		if k.only(srvM) {
			skip = k.idx
		} else if crash && cs.downDetected(k, now) {
			anyDown = true
		}
	}
	if !anyDown {
		cs.net.AggFanout(a.tier, a.idx, m, skip)
		return
	}
	// Failover fan: each copy for a down child serializes through the
	// child's downlink individually — the cost of losing its fanout.
	a.failovers++
	for _, k := range a.kids {
		c := m
		switch {
		case k.idx == skip:
		case cs.downDetected(k, now):
			c.ToAgg, c.AggTier = false, 0
			for w := k.lo; w < k.hi; w++ {
				if w != srvM {
					c.To = w
					cs.net.AggSend(a.tier, a.idx, c)
				}
			}
		default:
			c.To, c.ToAgg, c.AggTier = k.idx, true, uint8(k.tier)
			cs.net.AggSend(a.tier, a.idx, c)
		}
	}
}

// refreshCache lands a kCache update on rack node a (RackLocalPS) and
// answers the pulls that were waiting for it.
func (cs *clusterSim) refreshCache(a *aggNode, m netsim.Message) {
	if m.Iter > a.cachedIter[m.Chunk] {
		a.cachedIter[m.Chunk] = m.Iter
	}
	servePending(a.pending, m.Chunk, m.Iter, func(p pendingPull) { cs.aggServePull(a, m.Chunk, p.iter, p.src) })
}

// servePending serves, in arrival order, the pulls waiting on chunk that
// iteration iter (or an older one they asked for) satisfies, and keeps the
// rest waiting.
func servePending(pending map[int32][]pendingPull, chunk, iter int32, serve func(pendingPull)) {
	pend := pending[chunk]
	if len(pend) == 0 {
		return
	}
	rest := pend[:0]
	for _, p := range pend {
		if p.iter <= iter {
			serve(p)
		} else {
			rest = append(rest, p)
		}
	}
	if len(rest) == 0 {
		delete(pending, chunk)
	} else {
		pending[chunk] = rest
	}
}

// aggServePull answers a rack-local parameter pull from rack node a's
// cache (RackLocalPS): the data copy pays propagation plus the puller's
// ingress, never a core port.
func (cs *clusterSim) aggServePull(a *aggNode, chunk, iter int32, dst int) {
	c := cs.plan.Chunks[chunk]
	cs.net.AggSend(a.tier, a.idx, netsim.Message{
		From: cs.srvMachine[c.Server], To: dst, Bytes: c.Bytes(), Priority: int32(c.Priority),
		Kind: kData, Chunk: chunk, Iter: iter, Src: int32(c.Server),
	})
}

// expect is the contribution weight that completes node a's reduction of
// chunk — every machine below it, except the chunk's own server machine
// when it lives there (its co-located worker pushes through shared
// memory, counted individually by the server). It is also the weight the
// node's reduced push carries at the next aggregation barrier.
func (cs *clusterSim) expect(a *aggNode, chunk int32) int {
	expect := a.hi - a.lo
	if srvM := cs.srvMachine[cs.plan.Chunks[chunk].Server]; a.lo <= srvM && srvM < a.hi {
		expect--
	}
	return expect
}

// weight is how many workers' gradients a push of chunk from src carries:
// one for a worker's own push, the reducing node's expect for a reduced
// stream (Src = -1-ord).
func (cs *clusterSim) weight(src, chunk int32) int {
	if src >= 0 {
		return 1
	}
	return cs.expect(&cs.aggs[-1-src], chunk)
}

// pushProcessed runs when the server finishes aggregating one worker's push
// of a chunk; the Nth push completes the update. In Async (ASGD) mode every
// push is its own update, answered only to the pushing worker. A reduced
// push (Src < 0 under RackAggregation) counts as every worker whose
// gradient was folded into it (weight).
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
	agg.count += cs.weight(it.src, it.chunk)
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
	// one loopback to the co-located worker plus one stream per top node of
	// the reduction tree, fanned out tier by tier on the way down, so the
	// server's egress serializes per-rack (per-pod under hierarchical
	// aggregation) instead of per-worker and only one copy per rack (pod)
	// crosses the core (spine). kCache streams address the rack caches
	// only: no loopback — the co-located worker never pulls over the wire.
	broadcast := func(bytes int64, kind uint8) {
		srvM := cs.srvMachine[srv]
		msg := netsim.Message{
			From: srvM, Bytes: bytes, Priority: int32(c.Priority),
			Kind: kind, Chunk: chunk, Iter: iter, Src: int32(srv),
		}
		if cs.aggs == nil {
			for w := 0; w < cs.cfg.Machines; w++ {
				msg.To = w
				cs.net.Send(msg)
			}
			return
		}
		if kind != kCache {
			msg.To = srvM
			cs.net.Send(msg)
		}
		var now sim.Time // read by stream under crash plans only
		if cs.fs != nil && cs.fs.hasCrash {
			now = cs.procs[srvM].Now()
		}
		for i := range cs.tops {
			cs.stream(&cs.tops[i], msg, now)
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
	servePending(cs.servers[srv].pending, chunk, iter, func(p pendingPull) { cs.sendData(srv, chunk, p.iter, p.src) })
}

// stream ships node a's copy of a server broadcast (msg, From the server's
// machine): one stream to a's aggregator normally, or — when that
// aggregator is down as detected at now, so the stream would die there —
// one copy per child: the nodes below it, or a rack's machines directly.
func (cs *clusterSim) stream(a *aggNode, msg netsim.Message, now sim.Time) {
	srvM := msg.From
	if a.only(srvM) {
		return // the loopback already reached all of it
	}
	if cs.fs == nil || !cs.fs.hasCrash || !cs.downDetected(a, now) {
		msg.To, msg.ToAgg, msg.AggTier = a.idx, true, uint8(a.tier)
		cs.net.Send(msg)
		return
	}
	cs.fs.machFailovers[srvM]++
	for _, k := range a.kids {
		cs.stream(k, msg, now)
	}
	if a.kids == nil {
		for w := a.lo; w < a.hi; w++ {
			if w != srvM {
				msg.To = w
				cs.net.Send(msg)
			}
		}
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
