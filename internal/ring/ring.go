// Package ring simulates data-parallel training over ring all-reduce
// instead of a parameter server. The paper argues (Sections 2 and 6) that
// P3's two principles — parameter slicing and priority-ordered transmission
// — "are general enough to be applied to any gradient aggregation method";
// this package substantiates that claim as an extension experiment: the
// same models, compute timing and network substrate as internal/cluster,
// but gradients are aggregated with the classic 2(N-1)-round ring
// reduce-scatter + all-gather, at either layer granularity (WFBP-style
// all-reduce, what Horovod-class systems did at the time) or P3-style
// sliced + priority-scheduled granularity.
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
	"math"
	"math/rand/v2"

	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/netsim"
	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/trace"
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
	Profile *sched.Profile
	// ReduceRateGBps is the local cost of summing one received segment into
	// the accumulator (and, on the final round, applying the update).
	ReduceRateGBps float64
	ReduceOverhead sim.Time
	WarmupIters    int
	MeasureIters   int
	Seed           int64
	Recorder       *trace.Recorder
	// Engine optionally supplies a reusable simulation engine: Run calls
	// Reset on it and reuses its event slab, so a sweep driver can run many
	// simulations without re-growing the heap each time. nil allocates a
	// fresh engine. The ring path always runs on the single-shard engine:
	// each collective launches only when every machine has produced the
	// gradient — a global zero-latency barrier that admits no conservative
	// lookahead window (contrast cluster.Config.Shards).
	Engine *sim.Engine
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Machines == 0 {
		out.Machines = 4
	}
	if out.ReduceRateGBps == 0 {
		out.ReduceRateGBps = 3
	}
	if out.ReduceOverhead == 0 {
		out.ReduceOverhead = 5 * sim.Microsecond
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

type workerState struct {
	readyIter  []int32
	chunksDone []int // per layer: chunks fully reduced this iteration
	fwdLayer   int
	waitingFwd bool
	waitSince  sim.Time
	curIter    int32
	bwdDone    []sim.Time
	layerStall []sim.Time // cumulative forward stall per layer

	reduce *sched.Queue[redItem]
	busy   bool
	// cur is the segment being reduced while busy; reduced is its
	// completion event, bound once at construction so a reduction
	// schedules without allocating.
	cur     redItem
	reduced func()
}

type redItem struct {
	chunk    int32
	iter     int32
	round    int
	priority int32
}

type ringSim struct {
	cfg     Config
	eng     *sim.Engine
	net     *netsim.Network
	plan    *core.Plan
	timing  *model.Timing
	layers  int
	total   int32
	rounds  int // 2*(N-1)
	workers []workerState
	chunks  []chunkState
	jitter  [][]float64
	redRate float64
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
	eng := cfg.Engine
	if eng != nil {
		eng.Reset()
	} else {
		eng = &sim.Engine{}
	}
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
		plan:    cfg.Strategy.Partition(cfg.Model, 1),
		timing:  model.NewTiming(cfg.Model),
		layers:  len(cfg.Model.Layers),
		total:   int32(cfg.WarmupIters + cfg.MeasureIters),
		rounds:  2 * (n - 1),
		redRate: cfg.ReduceRateGBps,
	}
	rs.net = netsim.New(eng, n, netCfg, rs.deliver, cfg.Recorder)

	rs.chunks = make([]chunkState, rs.plan.NumChunks())
	for i := range rs.chunks {
		rs.chunks[i] = chunkState{recvRounds: make([]int, n), iter: -1}
	}

	// Each machine's reduction queue runs the strategy's discipline on a
	// fresh instance, mirroring the receiver-side consumer of Section 4.2.
	redView := func(it redItem) sched.Item {
		return sched.Item{Priority: it.priority, Bytes: rs.segBytes(it.chunk)}
	}
	rs.workers = make([]workerState, n)
	for w := range rs.workers {
		ws := &rs.workers[w]
		ws.readyIter = make([]int32, rs.layers)
		for l := range ws.readyIter {
			ws.readyIter[l] = -1
		}
		ws.chunksDone = make([]int, rs.layers)
		ws.bwdDone = make([]sim.Time, rs.total)
		ws.layerStall = make([]sim.Time, rs.layers)
		disc := sched.ApplyProfile(sched.MustByName(cfg.Strategy.Discipline()), prof)
		sched.ApplySource(disc, int32(w)) // owner seed for source-aware disciplines
		ws.reduce = sched.NewQueue(disc, redView)
		w := w
		ws.reduced = func() { rs.reduceDone(w) }
	}

	rs.jitter = make([][]float64, n)
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(cfg.Seed)^0x51ce))
	sigma := cfg.Model.ComputeJitter
	for w := range rs.jitter {
		rs.jitter[w] = make([]float64, rs.total)
		for i := range rs.jitter[w] {
			if sigma == 0 {
				rs.jitter[w][i] = 1
				continue
			}
			rs.jitter[w][i] = math.Exp(rng.NormFloat64()*sigma - sigma*sigma/2)
		}
	}
	return rs
}

func (rs *ringSim) start() {
	if rs.cfg.Recorder != nil {
		rs.cfg.Recorder.Start(0)
	}
	for w := 0; w < rs.cfg.Machines; w++ {
		rs.advanceForward(w)
	}
}

func (rs *ringSim) scaled(w int, iter int32, d sim.Time) sim.Time {
	return sim.Time(float64(d) * rs.jitter[w][iter])
}

func (rs *ringSim) advanceForward(w int) {
	ws := &rs.workers[w]
	if ws.fwdLayer == rs.layers {
		rs.stepBackward(w, rs.layers-1)
		return
	}
	l := ws.fwdLayer
	if ws.readyIter[l] < ws.curIter-1 {
		if !ws.waitingFwd {
			ws.waitingFwd = true
			ws.waitSince = rs.eng.Now()
		}
		return
	}
	if ws.waitingFwd {
		ws.waitingFwd = false
		if ws.curIter >= int32(rs.cfg.WarmupIters) {
			ws.layerStall[l] += rs.eng.Now() - ws.waitSince
		}
	}
	rs.eng.After(rs.scaled(w, ws.curIter, rs.timing.Fwd[l]), func() {
		ws.fwdLayer = l + 1
		rs.advanceForward(w)
	})
}

func (rs *ringSim) stepBackward(w, l int) {
	ws := &rs.workers[w]
	rs.eng.After(rs.scaled(w, ws.curIter, rs.timing.Bwd[l]), func() {
		for _, id := range rs.plan.LayerChunks(l) {
			rs.gradProduced(int32(id), ws.curIter)
		}
		if l > 0 {
			rs.stepBackward(w, l-1)
			return
		}
		ws.bwdDone[ws.curIter] = rs.eng.Now()
		ws.curIter++
		if ws.curIter < rs.total {
			ws.fwdLayer = 0
			rs.advanceForward(w)
		}
	})
}

// gradProduced counts backward completions; the collective launches when
// every rank has entered it.
func (rs *ringSim) gradProduced(chunk, iter int32) {
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
	ws := &rs.workers[m.To]
	ws.reduce.Push(redItem{chunk: m.Chunk, iter: m.Iter, round: int(m.Src), priority: m.Priority})
	rs.pumpReduce(m.To)
}

// pumpReduce serializes local segment reductions per machine, priority
// ordered under P3 — the receiver-side consumer of Section 4.2 transplanted
// onto the all-reduce.
//
//p3:noescape
func (rs *ringSim) pumpReduce(w int) {
	ws := &rs.workers[w]
	if ws.busy {
		return
	}
	it, ok := ws.reduce.PopReady()
	if !ok {
		return
	}
	ws.busy = true
	ws.cur = it
	cost := rs.cfg.ReduceOverhead + sim.Time(float64(rs.segBytes(it.chunk))/rs.redRate)
	rs.eng.After(cost, ws.reduced)
}

//p3:noescape
func (rs *ringSim) reduceDone(w int) {
	ws := &rs.workers[w]
	it := ws.cur
	ws.busy = false
	ws.reduce.Done(it)
	rs.roundDone(w, it)
	rs.pumpReduce(w)
}

func (rs *ringSim) roundDone(w int, it redItem) {
	cst := &rs.chunks[it.chunk]
	if cst.iter != it.iter {
		return // stale segment from a previous iteration's tail
	}
	cst.recvRounds[w]++
	if it.round+1 < rs.rounds {
		rs.sendRound(w, it.chunk, it.iter, it.round+1)
	}
	if cst.recvRounds[w] == rs.rounds {
		rs.chunkComplete(w, it.chunk, it.iter)
	}
}

func (rs *ringSim) chunkComplete(w int, chunk, iter int32) {
	ws := &rs.workers[w]
	l := rs.plan.Chunks[chunk].Layer
	ws.chunksDone[l]++
	if ws.chunksDone[l] < len(rs.plan.LayerChunks(l)) {
		return
	}
	ws.chunksDone[l] = 0
	ws.readyIter[l] = iter
	if ws.waitingFwd && ws.fwdLayer == l {
		rs.advanceForward(w)
	}
}

func (rs *ringSim) result() Result {
	n := rs.cfg.Machines
	makespan := func(iter int) sim.Time {
		var t sim.Time
		for w := 0; w < n; w++ {
			if rs.workers[w].bwdDone[iter] > t {
				t = rs.workers[w].bwdDone[iter]
			}
		}
		return t
	}
	warmEnd := makespan(rs.cfg.WarmupIters - 1)
	last := makespan(int(rs.total) - 1)
	samples := float64(rs.cfg.MeasureIters * n * rs.cfg.Model.BatchSize)
	return Result{
		Model:         rs.cfg.Model.Name,
		Strategy:      rs.cfg.Strategy.Name,
		Machines:      n,
		BandwidthGbps: rs.cfg.BandwidthGbps,
		Throughput:    samples / (last - warmEnd).Seconds(),
		MeanIterTime:  (last - warmEnd) / sim.Time(rs.cfg.MeasureIters),
		ComputeIter:   rs.timing.IterCompute,
		MeasuredIters: rs.cfg.MeasureIters,
		LayerStalls:   rs.workers[0].layerStall,
		Events:        rs.eng.Processed(),
		Msgs:          rs.net.MsgsSent(),
		Bytes:         rs.net.BytesSent(),
	}
}
