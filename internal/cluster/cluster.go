// Package cluster simulates data-parallel synchronous-SGD training on the
// discrete-event clock. It is the substitute for the paper's physical
// testbed (four GPU machines with tc-qdisc-throttled NICs): workers
// alternate forward/backward compute phases, and gradients/parameters flow
// through the simulated network according to a strategy.Strategy, under
// one of two aggregation methods — a parameter server (the default: one
// machine hosts one worker and one co-located server, the paper's
// recommended deployment) or ring all-reduce (Config.AllReduce).
//
// The worker's compute loop — forward(l) blocks until layer l's parameters
// of the previous iteration are in, backward hands gradients over last
// layer first — and the priority-ordered endpoint consumers are package
// worker's; the aggregation method is what this package plugs into them.
// The parameter server follows Sections 2, 4.1 and 4.2 of the paper:
//
//	worker: backward(l) done (Loop.Grad) -> push gradient chunks of layer l
//	server: Nth push of a chunk processed -> parameters updated ->
//	        notify+pull (baseline), immediate broadcast (P3/slicing/WFBP),
//	        or reply-on-deferred-pull (TensorFlow style)
//	worker: chunk of layer l received and installed -> Loop.Installed
//
// Ring all-reduce substantiates the paper's claim (Sections 2 and 6) that
// P3's two principles — parameter slicing and priority-ordered transmission
// — "are general enough to be applied to any gradient aggregation method".
// Only the aggregation differs: the classic 2(N-1)-round ring
// reduce-scatter + all-gather, at either layer granularity (WFBP-style
// all-reduce, what Horovod-class systems did at the time) or P3-style
// sliced + priority-scheduled granularity. A collective can only begin once
// EVERY machine has produced that chunk's gradient, so the ordering problem
// the paper identifies is, if anything, sharper here: the first layer's
// gradients — needed first in the next forward pass — become ready last and
// at layer granularity must wait behind the whole backlog of earlier
// collectives.
//
// The files: config.go (Config, Validate, Result), cluster.go
// (construction, dispatch, result), worker.go and server.go (the two
// parameter-server protocol ends), allreduce.go (the ring), aggtree.go
// (in-network aggregation), faults.go (fault injection, and crash recovery
// behind the nil-safe recovery type).
package cluster

import (
	"fmt"

	"p3/internal/core"
	"p3/internal/netsim"
	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/worker"
)

// Message kinds on the simulated network.
const (
	kPush   uint8 = iota + 1 // worker -> server: gradient chunk
	kNotify                  // server -> worker: chunk updated (baseline)
	kPull                    // worker -> server: parameter request
	kData                    // server -> worker: updated parameter chunk
	kCache                   // server -> rack aggregator: updated parameter chunk for the rack-local cache (RackLocalPS)
	kRepush                  // server -> worker: re-push a contribution lost at a crashed aggregator (Config.Faults)
	kRing                    // machine -> ring successor: one all-reduce segment (Config.AllReduce)
)

// ctlBytes is the payload size of notify/pull control messages.
const ctlBytes = 16

// Endpoint processing model (worker.Pool): what it costs a server to
// deserialize a received gradient, accumulate it and, on the last push,
// apply the SGD update, and what it costs a worker to deserialize and
// install a received parameter chunk. Properties of the systems the paper
// modified (ps-lite, MXNet), not knobs of an experiment: nothing ever set
// them.
const (
	// ps-lite's server loop is effectively single-threaded (and pushes to
	// the same key serialize on its accumulator regardless), so at layer
	// granularity a 100 MB shard occupies the server for a long,
	// unpipelined stretch — one of the effects parameter slicing removes.
	serverThreads  = 1
	updateRateGBps = 2 // GB/s == bytes/ns
	updateOverhead = 5 * sim.Microsecond
	// MXNet's engine copies different keys in parallel on the worker's
	// receive path: two copy threads, each the same single-threaded
	// deserialize-and-copy path. Under all-reduce, summing a received ring
	// segment into the accumulator costs the same per byte, on one thread.
	hostThreads  = 2
	hostRateGBps = 3 // GB/s == bytes/ns
	hostOverhead = 5 * sim.Microsecond
)

type clusterSim struct {
	cfg   Config
	exec  sim.Exec
	procs []sim.Proc // one per machine
	net   *netsim.Network
	plan  *core.Plan
	// loop is every worker's forward/backward state machine: pushLayer and
	// the DeferredPull burst (pullAll) are its hooks, installChunk reports
	// back to it.
	loop *worker.Loop

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

	workers []workerState
	servers []serverState
	// slots[c] is chunk c's aggregation barrier at its server, owned by the
	// server's machine LP.
	slots []worker.Slot

	// rec is the crash-recovery component (faults.go): nil unless
	// Config.Faults scripts an aggregator crash, and every method the
	// protocol code calls answers the no-fault case on nil.
	rec *recovery

	// Under Config.AllReduce (allreduce.go), instead of the servers, slots
	// and worker pools: ring[c] is chunk c's collective, reduce[w] machine
	// w's segment reductions.
	ring   []chunkState
	reduce []*worker.Pool
}

// RunCalibrated is the two-pass calibrated mode: the first pass runs cfg as
// given (static FLOP-derived profile unless cfg.Profile overrides it) and
// records the per-layer consumption stalls it actually observed; the second
// pass re-runs with the profile rebuilt from those measured stalls
// (strategy.CalibrateProfile), so model-aware disciplines rank against the
// iteration timeline the cluster really produces instead of the idealized
// compute-only one. Both results are returned, first the static pass.
// Only the calibrated pass feeds cfg.Recorder: the first runs without it.
func RunCalibrated(cfg Config) (static, calibrated Result) {
	first := cfg
	first.Recorder = nil
	static = Run(first)
	cfg.Profile = strategy.CalibrateProfile(cfg.Model, cfg.BandwidthGbps, static.MeanLayerStalls())
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

	netCfg := netsim.DefaultConfig(cfg.BandwidthGbps)
	netCfg.Egress = cfg.Strategy.Discipline()
	netCfg.PreemptQuantum = cfg.PreemptQuantum
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

	// Engine selection: one sim.Engine, the one-shard Exec, for
	// Shards <= 1; above that the conservative-lookahead parallel engine,
	// whose every shard is an Engine. A one-shard Parallel would give the
	// same Result at a higher price per event (the sim package comment
	// quotes it). The lookahead is the topology's minimum cross-LP latency;
	// shard assignment is rack-aligned so only the core hop crosses shards.
	// All-reduce always runs one Engine: each collective launches only when
	// every machine has produced the gradient, a global zero-latency barrier
	// that admits no lookahead window.
	shards := min(cfg.Shards, n)
	if cfg.AllReduce {
		shards = 1
	}
	var exec sim.Exec
	if shards >= 2 {
		p, err := sim.NewParallel(shards, netCfg.LPShards(n, shards), netCfg.Lookahead())
		if err != nil {
			panic(fmt.Sprintf("cluster: %v", err))
		}
		exec = p
	} else {
		exec = &sim.Engine{}
	}

	cs := &clusterSim{
		cfg:  cfg,
		exec: exec,
		// All-reduce partitions for one "server": it has no placement,
		// only granularity.
		plan: cfg.Strategy.Partition(m, max(cfg.Servers, 1)),
	}
	cs.procs = make([]sim.Proc, n)
	for i := range cs.procs {
		cs.procs[i] = exec.Proc(i)
	}
	if cfg.AllReduce {
		cs.newRing(netCfg, prof)
		return cs
	}
	cs.loop = worker.NewLoop(m, cs.plan, cs.procs, cfg.WarmupIters, cfg.MeasureIters, cfg.Seed, 0x9e3779b97f4a7c15)
	cs.loop.Grad = cs.pushLayer
	if cfg.Strategy.Pull == strategy.DeferredPull {
		cs.loop.IterDone = cs.pullAll
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
		// Hooks the plan into cs.loop and, for crash plans, builds cs.rec
		// and sets netCfg.AggDrop — which must land before the network is
		// constructed.
		cs.injectFaults(&netCfg)
	}
	// Host egress flows are sized once per run, per class. A flat push or
	// pull sends each server's share of the chunks down one flow to its
	// machine. Under rack aggregation every push goes down the one flow to
	// the host's rack aggregator, up to every chunk per iteration; the
	// flows left (server streams, recovery re-pushes, data replies) grow
	// on demand: giving them the server's share as well measured more
	// allocation, not less.
	nc := cs.plan.NumChunks()
	perServer := (nc + cfg.Servers - 1) / cfg.Servers
	netCfg.FlowDepth = func(rackAgg bool) int {
		switch {
		case rackAgg:
			return nc
		case cfg.RackAggregation:
			return 0
		}
		return perServer
	}
	cs.net = netsim.New(exec, n, netCfg, cs.deliver, cfg.Recorder)

	// Every processing pool runs the strategy's discipline on a fresh
	// instance; the item view exposes the chunk's wire priority and size,
	// with the originating worker as the flow key of per-destination gates
	// (and the axis damped's epoch rank interleaves same-layer items
	// across). The owning machine's index seeds source-aware disciplines.
	// The view reads the item, a value, and the plan, which never changes
	// during a run, so it is stable while the item is queued.
	chunkBytes := func(c int32) int64 { return cs.plan.Chunks[c].Bytes() }
	itemView := func(it worker.Item) sched.Item {
		return sched.Item{Priority: it.Priority, Bytes: chunkBytes(it.Chunk), Dest: it.Src}
	}
	newQueue := func(owner int) *sched.Queue[worker.Item] {
		disc := sched.ApplyProfile(sched.MustByName(cfg.Strategy.Discipline()), prof)
		sched.ApplySource(disc, int32(owner))
		return sched.NewQueue(disc, itemView)
	}
	updCost := worker.Costs(nc, chunkBytes, updateOverhead, updateRateGBps)
	cs.servers = make([]serverState, cfg.Servers)
	for s := range cs.servers {
		cs.servers[s] = serverState{
			proc: worker.NewPool(cs.procs[cs.srvMachine[s]], serverThreads, updCost, newQueue(s),
				func(it worker.Item) { cs.pushProcessed(s, it) }),
		}
	}
	cs.slots = worker.NewSlots(nc, n, nil)

	hostCost := worker.Costs(nc, chunkBytes, hostOverhead, hostRateGBps)
	cs.workers = make([]workerState, n)
	for w := range cs.workers {
		cs.workers[w] = workerState{
			notifyCount: make([]int, len(m.Layers)),
			proc: worker.NewPool(cs.procs[w], hostThreads, hostCost, newQueue(w),
				func(it worker.Item) { cs.installChunk(w, it.Chunk, it.Iter) }),
		}
	}
	if cfg.Faults != nil {
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
	cs.loop.Start()
}

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
		cs.rec.repush(m)
	case kRing:
		cs.reduce[m.To].Add(worker.Item{Chunk: m.Chunk, Iter: m.Iter, Src: m.Src, Priority: m.Priority})
	default:
		panic(fmt.Sprintf("cluster: unknown message kind %d", m.Kind))
	}
}

func (cs *clusterSim) result() Result {
	sum := cs.loop.Summary(fmt.Sprintf("cluster: %s/%s, %d servers", cs.cfg.Model.Name, cs.cfg.Strategy.Name, cs.cfg.Servers))
	res := Result{
		Model:           cs.cfg.Model.Name,
		Strategy:        cs.cfg.Strategy.Name,
		Machines:        cs.cfg.Machines,
		BandwidthGbps:   cs.cfg.BandwidthGbps,
		Throughput:      sum.Throughput,
		MeanIterTime:    sum.MeanIterTime,
		IterTimes:       sum.IterTimes,
		ComputeIterTime: sum.ComputeIterTime,
		WarmupEnd:       sum.WarmupEnd,
		MeasuredIters:   len(sum.IterTimes),
		LayerStalls:     sum.LayerStalls,
		Events:          cs.exec.Processed(),
		Msgs:            cs.net.MsgsDelivered(),
		WireBytes:       cs.net.BytesDelivered(),
		Preemptions:     cs.net.Preemptions(),
		CoreBytes:       cs.net.CoreBytes(),
		SpineBytes:      cs.net.SpineBytes(),
	}
	if cs.cfg.Faults != nil {
		cs.faultCounters(&res)
	}
	return res
}
