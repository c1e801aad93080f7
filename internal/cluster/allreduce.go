package cluster

// Ring all-reduce (Config.AllReduce): the aggregation method the paper's
// Sections 2 and 6 say P3's slicing and priority ordering generalize to,
// plugged into the same engine, network, worker.Loop and Result as the
// parameter server. There are no servers: every chunk is all-reduced by
// the classic 2(N-1)-round ring reduce-scatter + all-gather, each round one
// 1/N-sized segment per machine to its ring successor.

import (
	"p3/internal/netsim"
	"p3/internal/sched"
	"p3/internal/worker"
)

// chunkState is one chunk's collective in its current iteration.
type chunkState struct {
	gradReady  int   // machines whose backward produced this chunk
	launched   bool  // ring started
	recvRounds []int // per machine: collective rounds received
	iter       int32
}

// newRing builds the all-reduce half of newClusterSim: the loop enters each
// produced layer's chunks into their collectives, and each machine's
// segment reductions run on one pool — the receiver-side consumer of
// Section 4.2 transplanted onto the all-reduce, priority ordered under P3,
// with the worker receive path's per-byte cost on a single thread.
func (cs *clusterSim) newRing(netCfg netsim.Config, prof *sched.Profile) {
	cfg := cs.cfg
	n := cfg.Machines
	cs.loop = worker.NewLoop(cfg.Model, cs.plan, cs.procs, cfg.WarmupIters, cfg.MeasureIters, cfg.Seed, 0x51ce)
	cs.loop.Grad = cs.enterLayer
	cs.net = netsim.New(cs.exec, n, netCfg, cs.deliver, cfg.Recorder)

	cs.ring = make([]chunkState, cs.plan.NumChunks())
	for i := range cs.ring {
		cs.ring[i] = chunkState{recvRounds: make([]int, n), iter: -1}
	}
	// One flow per queue: Dest stays 0. An item's Src is its round. The
	// view reads the item, a value, and the plan, so it is stable while
	// the item is queued.
	view := func(it worker.Item) sched.Item {
		return sched.Item{Priority: it.Priority, Bytes: cs.segBytes(it.Chunk)}
	}
	cost := worker.Costs(len(cs.ring), cs.segBytes, hostOverhead, hostRateGBps)
	cs.reduce = make([]*worker.Pool, n)
	for w := range cs.reduce {
		disc := sched.ApplyProfile(sched.MustByName(cfg.Strategy.Discipline()), prof)
		sched.ApplySource(disc, int32(w))
		cs.reduce[w] = worker.NewPool(cs.procs[w], 1, cost, sched.NewQueue(disc, view),
			func(it worker.Item) { cs.roundDone(w, it) })
	}
}

// enterLayer is the loop's Grad hook under all-reduce: machine w's backward
// pass produced layer l's gradient.
func (cs *clusterSim) enterLayer(_, l int, iter int32) {
	for _, id := range cs.plan.LayerChunks(l) {
		cs.enter(int32(id), iter)
	}
}

// enter counts backward completions of a chunk; the collective launches
// when every rank has entered it.
func (cs *clusterSim) enter(chunk, iter int32) {
	cst := &cs.ring[chunk]
	if cst.iter != iter {
		cst.iter = iter
		cst.gradReady = 0
		cst.launched = false
		clear(cst.recvRounds)
	}
	cst.gradReady++
	if cst.gradReady == cs.cfg.Machines && !cst.launched {
		cst.launched = true
		for m := 0; m < cs.cfg.Machines; m++ {
			cs.sendRound(m, chunk, iter, 0)
		}
	}
}

// segBytes is the per-round segment size: the tensor is cut into N ring
// segments.
func (cs *clusterSim) segBytes(chunk int32) int64 {
	return max(cs.plan.Chunks[chunk].Bytes()/int64(cs.cfg.Machines), 1)
}

func (cs *clusterSim) sendRound(from int, chunk, iter int32, round int) {
	cs.net.Send(netsim.Message{
		From: from, To: (from + 1) % cs.cfg.Machines, Bytes: cs.segBytes(chunk),
		Priority: int32(cs.plan.Chunks[chunk].Priority),
		Kind:     kRing, Chunk: chunk, Iter: iter, Src: int32(round),
	})
}

// roundDone runs when machine w has reduced a segment of round it.Src.
func (cs *clusterSim) roundDone(w int, it worker.Item) {
	cst := &cs.ring[it.Chunk]
	if cst.iter != it.Iter {
		return // stale segment from a previous iteration's tail
	}
	cst.recvRounds[w]++
	rounds := 2 * (cs.cfg.Machines - 1)
	if round := int(it.Src) + 1; round < rounds {
		cs.sendRound(w, it.Chunk, it.Iter, round)
	}
	if cst.recvRounds[w] == rounds {
		cs.loop.Installed(w, cs.plan.Chunks[it.Chunk].Layer, it.Iter)
	}
}
