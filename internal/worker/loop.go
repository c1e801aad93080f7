// Package worker is the one implementation of the mechanism the paper is
// about, shared by every gradient-aggregation method the repository
// simulates (cluster: parameter server; ring: all-reduce — Sections 2 and 6:
// "general enough to be applied to any gradient aggregation method"):
//
//   - Loop, the per-worker compute state machine of Section 4: the forward
//     pass may enter layer l only once that layer's parameters from the
//     previous iteration have landed, the backward pass hands gradients to
//     the aggregation method last layer first, and the time a forward pass
//     spends blocked is charged to the layer it waited for.
//   - Pool, the priority-ordered consumer of Section 4.2: what arrives at
//     an endpoint is drained through a sched.Queue by a fixed number of
//     processing threads, same-key items serialized.
//   - Slot, the parameter server's per-slot aggregation rule of Section
//     4.2, shared by cluster's servers and aggregators and by pstcp.
//   - Summary, the run's makespans, iteration times, throughput and stalls.
//
// The aggregation method plugs in through Loop's hooks and decides what a
// gradient turns into; it reports back with Installed when a layer's
// parameters are usable again.
//
// # Contract
//
// Worker w's state belongs to the sim.Proc handed in for w: every compute
// step is scheduled on it, every hook runs on its timeline, and Installed
// and Waiting for w must be called from events on that timeline too (an
// endpoint Pool of the same machine, a delivery to it). Under the sharded
// engine (cluster's Shards >= 2) that makes machine w's LP the owner of
// worker w, so a hook may touch only state of that LP — its own worker, the
// machine's pools and NIC (Network.Send from w) — and reaches anything else
// through the network. Start runs before the engine does. Nothing here
// reads a clock other than the Proc's or draws randomness during the run:
// the per-(worker, iteration) compute jitter is drawn at construction, so
// event order cannot perturb the sequence.
package worker

import (
	"fmt"
	"math"
	"math/rand/v2"

	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/sim"
)

// Loop runs every worker's forward/backward state machine.
type Loop struct {
	// Grad runs when worker w finishes the backward step of layer l in
	// iteration iter: the layer's gradient exists and is the aggregation
	// method's to move.
	Grad func(w, l int, iter int32)
	// IterDone, if set, runs when worker w finishes iteration iter's
	// backward pass, before the next forward pass starts.
	IterDone func(w int, iter int32)
	// StepEnd, if set, places a compute step of worker w that is ready to
	// start at now and lasts d: it returns the instant the step ends
	// (now+d when nothing interferes) — stragglers stretch d, a worker that
	// has left the cluster starts when it rejoins.
	StepEnd func(w int, now, d sim.Time) sim.Time
	// Stalled, if set, runs when worker w's forward pass of iteration iter
	// blocks at layer l (at since) because iteration iter-1's parameters
	// for it have not been installed.
	Stalled func(w, l int, iter int32, since sim.Time)

	fwd, bwd []sim.Time // per-layer compute time (model.Timing)
	compute  sim.Time   // one iteration's pure compute time
	chunks   [][]int    // per layer: the plan's chunks (only the count is used)
	warmup   int32
	total    int32 // iterations to run
	batch    int
	workers  []loopState
}

// loopState is one worker. fwdLayer == len(fwd) means the backward pass is
// running, at bwdLayer.
type loopState struct {
	proc       sim.Proc
	step       func()  // the worker's one compute continuation, bound at construction
	readyIter  []int32 // per layer: iteration whose sync delivered the current parameters (-1 = initial)
	recvCount  []int   // per layer: chunks installed for the in-flight sync
	fwdLayer   int
	bwdLayer   int
	waitingFwd bool
	waitSince  sim.Time
	curIter    int32
	bwdDone    []sim.Time // per iteration: when its backward pass finished
	layerStall []sim.Time // cumulative measured forward stall per layer
	jitter     []float64  // per iteration compute-time factor
}

// NewLoop builds the loop for one worker per proc, running warmup+measure
// iterations of m partitioned as plan. Per-(worker, iteration) compute
// jitter (m.ComputeJitter, Sockeye's variable sequence lengths) is drawn
// here from PCG(seed, seed^stream); callers keep their historical streams.
func NewLoop(m *model.Model, plan *core.Plan, procs []sim.Proc, warmup, measure int, seed int64, stream uint64) *Loop {
	t := model.NewTiming(m)
	lp := &Loop{
		fwd: t.Fwd, bwd: t.Bwd, compute: t.IterCompute, chunks: plan.ByLayer,
		warmup: int32(warmup), total: int32(warmup + measure), batch: m.BatchSize,
		workers: make([]loopState, len(procs)),
	}
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(seed)^stream))
	sigma := m.ComputeJitter
	for w := range lp.workers {
		s := &lp.workers[w]
		s.proc = procs[w]
		s.step = func() { lp.step(w) }
		s.readyIter = make([]int32, len(lp.fwd))
		for l := range s.readyIter {
			s.readyIter[l] = -1
		}
		s.recvCount = make([]int, len(lp.fwd))
		s.bwdDone = make([]sim.Time, lp.total)
		s.layerStall = make([]sim.Time, len(lp.fwd))
		s.jitter = make([]float64, lp.total)
		for i := range s.jitter {
			s.jitter[i] = 1
			if sigma != 0 {
				s.jitter[i] = math.Exp(rng.NormFloat64()*sigma - sigma*sigma/2)
			}
		}
	}
	return lp
}

// Start begins every worker's first forward pass, in worker order.
func (lp *Loop) Start() {
	for w := range lp.workers {
		lp.forward(w)
	}
}

// forward enters worker w's next forward layer if its parameters are in,
// and otherwise leaves the worker stalled until Installed wakes it; past
// the last layer it starts the backward pass.
//
//p3:noescape
func (lp *Loop) forward(w int) {
	s := &lp.workers[w]
	l := s.fwdLayer
	if l == len(lp.fwd) {
		s.bwdLayer = l - 1
		lp.run(w, lp.bwd[l-1])
		return
	}
	if s.readyIter[l] < s.curIter-1 {
		if !s.waitingFwd {
			s.waitingFwd = true
			s.waitSince = s.proc.Now()
			if lp.Stalled != nil {
				lp.Stalled(w, l, s.curIter, s.waitSince)
			}
		}
		return
	}
	if s.waitingFwd {
		s.waitingFwd = false
		if s.curIter >= lp.warmup {
			s.layerStall[l] += s.proc.Now() - s.waitSince
		}
	}
	lp.run(w, lp.fwd[l])
}

// run schedules worker w's step continuation after a compute step of
// nominal duration d.
//
//p3:noescape
func (lp *Loop) run(w int, d sim.Time) {
	s := &lp.workers[w]
	d = sim.Time(float64(d) * s.jitter[s.curIter])
	if lp.StepEnd == nil {
		s.proc.After(d, s.step)
		return
	}
	s.proc.At(lp.StepEnd(w, s.proc.Now(), d), s.step)
}

// step runs when worker w's current compute step ends.
//
//p3:noescape
func (lp *Loop) step(w int) {
	s := &lp.workers[w]
	if s.fwdLayer < len(lp.fwd) {
		s.fwdLayer++
		lp.forward(w)
		return
	}
	l := s.bwdLayer
	lp.Grad(w, l, s.curIter)
	if l > 0 {
		s.bwdLayer = l - 1
		lp.run(w, lp.bwd[l-1])
		return
	}
	s.bwdDone[s.curIter] = s.proc.Now()
	if lp.IterDone != nil {
		lp.IterDone(w, s.curIter)
	}
	s.curIter++
	if s.curIter < lp.total {
		s.fwdLayer = 0
		lp.forward(w)
	}
}

// Installed records that one chunk of layer l, updated by iteration iter's
// aggregation, is usable on worker w. The chunk that completes the layer
// marks it ready for iteration iter+1's forward pass and wakes the worker
// if that is the layer it is stalled on.
//
//p3:noescape
func (lp *Loop) Installed(w, l int, iter int32) {
	s := &lp.workers[w]
	s.recvCount[l]++
	if s.recvCount[l] < len(lp.chunks[l]) {
		return
	}
	s.recvCount[l] = 0
	s.readyIter[l] = iter
	if s.waitingFwd && s.fwdLayer == l {
		lp.forward(w)
	}
}

// Waiting reports whether worker w's forward pass of iteration iter is
// (still) stalled at layer l.
func (lp *Loop) Waiting(w, l int, iter int32) bool {
	s := &lp.workers[w]
	return s.waitingFwd && s.fwdLayer == l && s.curIter == iter
}

// Summary is what a finished run measured.
type Summary struct {
	// Throughput is the aggregate training throughput over the measured
	// iterations, samples/second summed over workers.
	Throughput float64
	// IterTimes holds each measured iteration's makespan (the latest
	// worker's backward-done, iteration over iteration); MeanIterTime is
	// their mean.
	MeanIterTime sim.Time
	IterTimes    []sim.Time
	// ComputeIterTime is the pure-compute iteration time.
	ComputeIterTime sim.Time
	// WarmupEnd is the virtual time at which measurement began.
	WarmupEnd sim.Time
	// LayerStalls[l] is worker 0's cumulative measured-window time blocked
	// at layer l.
	LayerStalls []sim.Time
}

// Summary computes the run's summary once the engine has drained. A worker
// whose last iteration never finished means the aggregation protocol lost
// a parameter update: that panics, naming run, instead of reporting
// nonsense.
func (lp *Loop) Summary(run string) Summary {
	for w := range lp.workers {
		if lp.workers[w].bwdDone[lp.total-1] == 0 {
			panic(fmt.Sprintf("%s: worker %d never finished iteration %d: protocol wedged", run, w, lp.total-1))
		}
	}
	makespan := func(iter int32) sim.Time {
		var t sim.Time
		for w := range lp.workers {
			t = max(t, lp.workers[w].bwdDone[iter])
		}
		return t
	}
	measured := int(lp.total - lp.warmup)
	sum := Summary{
		IterTimes: make([]sim.Time, 0, measured), ComputeIterTime: lp.compute,
		WarmupEnd: makespan(lp.warmup - 1), LayerStalls: lp.workers[0].layerStall,
	}
	prev := sum.WarmupEnd
	for i := lp.warmup; i < lp.total; i++ {
		t := makespan(i)
		sum.IterTimes = append(sum.IterTimes, t-prev)
		prev = t
	}
	elapsed := prev - sum.WarmupEnd
	sum.Throughput = float64(measured*len(lp.workers)*lp.batch) / elapsed.Seconds()
	sum.MeanIterTime = elapsed / sim.Time(measured)
	return sum
}
