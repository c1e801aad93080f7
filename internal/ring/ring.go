// Package ring simulates data-parallel training over ring all-reduce
// instead of a parameter server. The paper argues (Sections 2 and 6) that
// P3's two principles — parameter slicing and priority-ordered transmission
// — "are general enough to be applied to any gradient aggregation method";
// this package substantiates that claim as an extension experiment. The
// models, the network substrate, the worker's compute loop and its
// priority-ordered consumer are the ones internal/cluster runs on — the
// last two literally: package worker's Loop and Pool (this package imports
// nothing of cluster). Only the aggregation method plugged into them
// differs: the classic 2(N-1)-round ring reduce-scatter + all-gather, at
// either layer granularity (WFBP-style all-reduce, what Horovod-class
// systems did at the time) or P3-style sliced + priority-scheduled
// granularity.
//
// An all-reduce for a chunk can only begin once EVERY machine has produced
// that chunk's gradient (all ranks must enter the collective), so the
// ordering problem the paper identifies is, if anything, sharper here: the
// first layer's gradients — needed first in the next forward pass — become
// ready last and at layer granularity must wait behind the whole backlog of
// earlier collectives.
package ring

import (
	"fmt"

	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/netsim"
	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/worker"
)

// Config describes one simulated all-reduce training run. Only the
// granularity and ordering of the strategy matter here (there are no
// parameter servers, so pull modes are meaningless).
type Config struct {
	Model    *model.Model
	Machines int
	Strategy strategy.Strategy
	// BandwidthGbps is the per-direction NIC rate.
	BandwidthGbps float64
	// PreemptQuantum > 0 makes NIC egress transmission resumable in
	// segments of this many wire bytes (netsim.Config.PreemptQuantum); an
	// urgent ring segment then preempts an in-flight bulk one at the next
	// boundary. 0 keeps message-granularity preemption.
	PreemptQuantum int64
	// Profile optionally overrides the static FLOP-derived timing profile
	// handed to model-aware disciplines (tictac) — the hook behind the
	// calibrated two-pass mode (RunCalibrated), which re-runs with a
	// profile rebuilt from a prior run's measured stalls. nil selects the
	// static strategy.ComputeProfile.
	Profile      *sched.Profile
	WarmupIters  int
	MeasureIters int
	Seed         int64
	Recorder     *trace.Recorder
}

// The local cost of summing one received segment into the accumulator
// (and, on the final round, applying the update): the same single-threaded
// per-byte path as the parameter-server worker's receive side.
const (
	reduceRateGBps = 3 // GB/s == bytes/ns
	reduceOverhead = 5 * sim.Microsecond
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.Machines == 0 {
		out.Machines = 4
	}
	if out.WarmupIters == 0 {
		out.WarmupIters = 2
	}
	if out.MeasureIters == 0 {
		out.MeasureIters = 8
	}
	return out
}

// Result summarizes an all-reduce run.
type Result struct {
	Model         string
	Strategy      string
	Machines      int
	BandwidthGbps float64
	Throughput    float64 // aggregate samples/sec
	MeanIterTime  sim.Time
	ComputeIter   sim.Time
	// MeasuredIters is the measured iteration count (the divisor of
	// MeanLayerStalls).
	MeasuredIters int
	// LayerStalls[l] is machine 0's cumulative measured-window time spent
	// blocked at layer l waiting for its all-reduce to complete — the same
	// consumption-stall profile the cluster simulator reports, for feeding
	// measured timing back into a calibrated sched.Profile.
	LayerStalls []sim.Time
	Events      uint64
	// Msgs and Bytes are the ring segments handed to the network and their
	// payload volume: iterations x chunks x 2(N-1) rounds x N machines.
	Msgs  int64
	Bytes int64
}

// MeanLayerStalls returns the per-iteration mean of LayerStalls, the form
// strategy.CalibrateProfile consumes.
func (r Result) MeanLayerStalls() []sim.Time {
	return strategy.MeanStalls(r.LayerStalls, r.MeasuredIters)
}

func (r Result) String() string {
	return fmt.Sprintf("allreduce %s/%s x%d @%gGbps: %.1f samples/s (iter %.1f ms)",
		r.Model, r.Strategy, r.Machines, r.BandwidthGbps, r.Throughput, r.MeanIterTime.Millis())
}

type chunkState struct {
	gradReady  int   // machines whose backward produced this chunk
	launched   bool  // ring started
	recvRounds []int // per machine: collective rounds received
	iter       int32
}

type ringSim struct {
	cfg    Config
	eng    *sim.Engine
	net    *netsim.Network
	plan   *core.Plan
	rounds int // 2*(N-1)
	chunks []chunkState
	// loop is every machine's forward/backward state machine; a finished
	// backward layer enters its chunks into their collectives.
	loop *worker.Loop
	// reduce[w] serializes machine w's local segment reductions, priority
	// ordered under P3 — the receiver-side consumer of Section 4.2
	// transplanted onto the all-reduce. An item's Src is its round.
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

// Run executes one all-reduce training simulation.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	if err := cfg.Model.Validate(); err != nil {
		panic(fmt.Sprintf("ring: invalid model: %v", err))
	}
	if cfg.Machines < 2 {
		panic("ring: all-reduce needs at least 2 machines")
	}
	rs := newRingSim(cfg)
	rs.start()
	rs.eng.Run()
	return rs.result()
}

func newRingSim(cfg Config) *ringSim {
	n := cfg.Machines
	// Always the single-shard engine: each collective launches only when
	// every machine has produced the gradient — a global zero-latency
	// barrier that admits no conservative lookahead window (contrast
	// cluster.Config.Shards).
	eng := &sim.Engine{}
	netCfg := netsim.DefaultConfig(cfg.BandwidthGbps)
	netCfg.Egress = cfg.Strategy.Discipline()
	netCfg.PreemptQuantum = cfg.PreemptQuantum
	prof := cfg.Profile
	if prof == nil {
		prof = strategy.ComputeProfile(cfg.Model, netCfg.BandwidthGbps)
	}
	netCfg.Profile = prof

	rs := &ringSim{
		cfg: cfg, eng: eng,
		// Partition with a single "server": all-reduce has no placement,
		// only granularity.
		plan:   cfg.Strategy.Partition(cfg.Model, 1),
		rounds: 2 * (n - 1),
	}
	rs.net = netsim.New(eng, n, netCfg, rs.deliver, cfg.Recorder)

	rs.chunks = make([]chunkState, rs.plan.NumChunks())
	for i := range rs.chunks {
		rs.chunks[i] = chunkState{recvRounds: make([]int, n), iter: -1}
	}

	// Every machine computes on the engine itself (one shard, no LP tags).
	procs := make([]sim.Proc, n)
	for w := range procs {
		procs[w] = eng
	}
	rs.loop = worker.NewLoop(cfg.Model, rs.plan, procs, cfg.WarmupIters, cfg.MeasureIters, cfg.Seed, 0x51ce)
	rs.loop.Grad = rs.gradProduced

	// Each machine's reduction queue runs the strategy's discipline on a
	// fresh instance, one flow per queue (Dest stays 0).
	redView := func(it worker.Item) sched.Item {
		return sched.Item{Priority: it.Priority, Bytes: rs.segBytes(it.Chunk)}
	}
	cost := worker.Costs(len(rs.chunks), rs.segBytes, reduceOverhead, reduceRateGBps)
	rs.reduce = make([]*worker.Pool, n)
	for w := range rs.reduce {
		disc := sched.ApplyProfile(sched.MustByName(cfg.Strategy.Discipline()), prof)
		sched.ApplySource(disc, int32(w)) // owner seed for source-aware disciplines
		rs.reduce[w] = worker.NewPool(eng, 1, cost, sched.NewQueue(disc, redView),
			func(it worker.Item) { rs.roundDone(w, it) })
	}
	return rs
}

func (rs *ringSim) start() {
	if rs.cfg.Recorder != nil {
		rs.cfg.Recorder.Start(0)
	}
	rs.loop.Start()
}

// gradProduced is the loop's Grad hook: a machine's backward pass produced
// layer l's gradient.
func (rs *ringSim) gradProduced(_, l int, iter int32) {
	for _, id := range rs.plan.LayerChunks(l) {
		rs.enter(int32(id), iter)
	}
}

// enter counts backward completions of a chunk; the collective launches
// when every rank has entered it.
func (rs *ringSim) enter(chunk, iter int32) {
	cst := &rs.chunks[chunk]
	if cst.iter != iter {
		cst.iter = iter
		cst.gradReady = 0
		cst.launched = false
		for i := range cst.recvRounds {
			cst.recvRounds[i] = 0
		}
	}
	cst.gradReady++
	if cst.gradReady == rs.cfg.Machines && !cst.launched {
		cst.launched = true
		for m := 0; m < rs.cfg.Machines; m++ {
			rs.sendRound(m, chunk, iter, 0)
		}
	}
}

// segBytes is the per-round segment size: the tensor is cut into N ring
// segments.
func (rs *ringSim) segBytes(chunk int32) int64 {
	b := rs.plan.Chunks[chunk].Bytes() / int64(rs.cfg.Machines)
	if b < 1 {
		b = 1
	}
	return b
}

func (rs *ringSim) sendRound(from int, chunk, iter int32, round int) {
	to := (from + 1) % rs.cfg.Machines
	rs.net.Send(netsim.Message{
		From: from, To: to, Bytes: rs.segBytes(chunk),
		Priority: int32(rs.plan.Chunks[chunk].Priority),
		Kind:     1, Chunk: chunk, Iter: iter, Src: int32(round),
	})
}

// deliver: a ring segment arrived; queue its local reduction.
func (rs *ringSim) deliver(m netsim.Message) {
	rs.reduce[m.To].Add(worker.Item{Chunk: m.Chunk, Iter: m.Iter, Src: m.Src, Priority: m.Priority})
}

// roundDone runs when machine w has reduced a segment of round it.Src.
func (rs *ringSim) roundDone(w int, it worker.Item) {
	cst := &rs.chunks[it.Chunk]
	if cst.iter != it.Iter {
		return // stale segment from a previous iteration's tail
	}
	cst.recvRounds[w]++
	if round := int(it.Src) + 1; round < rs.rounds {
		rs.sendRound(w, it.Chunk, it.Iter, round)
	}
	if cst.recvRounds[w] == rs.rounds {
		rs.loop.Installed(w, rs.plan.Chunks[it.Chunk].Layer, it.Iter)
	}
}

func (rs *ringSim) result() Result {
	sum := rs.loop.Summary(fmt.Sprintf("ring: %s/%s", rs.cfg.Model.Name, rs.cfg.Strategy.Name))
	return Result{
		Model:         rs.cfg.Model.Name,
		Strategy:      rs.cfg.Strategy.Name,
		Machines:      rs.cfg.Machines,
		BandwidthGbps: rs.cfg.BandwidthGbps,
		Throughput:    sum.Throughput,
		MeanIterTime:  sum.MeanIterTime,
		ComputeIter:   sum.ComputeIterTime,
		MeasuredIters: len(sum.IterTimes),
		LayerStalls:   sum.LayerStalls,
		Events:        rs.eng.Processed(),
		Msgs:          rs.net.MsgsSent(),
		Bytes:         rs.net.BytesSent(),
	}
}
