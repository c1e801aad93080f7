package cluster

// Server side: the aggregation barrier per chunk, the update broadcast,
// and pull serving.

import (
	"p3/internal/netsim"
	"p3/internal/strategy"
	"p3/internal/worker"
)

type chunkAgg struct {
	iter  int32
	count int
	done  bool
}

type pendingPull struct {
	iter int32
	src  int
}

type serverState struct {
	proc *worker.Pool
	agg  []chunkAgg // indexed by chunk ID (only own chunks used)
	// lastDone[c] is the newest iteration whose update completed for chunk
	// c (-1 initially). A pull for iteration <= lastDone is answerable
	// immediately with the current value, exactly as a real KVStore pull
	// returns whatever the store holds; without this, a pull tagged with an
	// older iteration could strand forever once a faster worker's next
	// push resets the aggregation slot.
	lastDone []int32
	pending  map[int32][]pendingPull // chunk ID -> pulls waiting for their iteration
}

func (cs *clusterSim) onPush(m netsim.Message) {
	cs.servers[cs.machineSrv[m.To]].proc.Add(worker.Item{Chunk: m.Chunk, Iter: m.Iter, Src: m.Src, Priority: m.Priority})
}

// pushProcessed runs when the server finishes aggregating one worker's push
// of a chunk; the Nth push completes the update. In Async (ASGD) mode every
// push is its own update, answered only to the pushing worker. A reduced
// push (Src < 0 under RackAggregation) counts as every worker whose
// gradient was folded into it (weight) — less, under a crash plan, whatever
// recovery has already counted (recovery.counted).
func (cs *clusterSim) pushProcessed(srv int, it worker.Item) {
	if cs.cfg.Strategy.Async {
		cs.sendData(srv, it.Chunk, it.Iter, int(it.Src))
		return
	}
	s := &cs.servers[srv]
	agg := &s.agg[it.Chunk]
	fresh := agg.iter != it.Iter
	add := cs.rec.counted(srv, it, fresh, cs.weight(it.Src, it.Chunk))
	if add == 0 {
		return // a recovery duplicate: nothing new to count
	}
	if fresh {
		*agg = chunkAgg{iter: it.Iter}
	}
	agg.count += add
	if agg.count == cs.cfg.Machines {
		agg.done = true
		if it.Iter > s.lastDone[it.Chunk] {
			s.lastDone[it.Chunk] = it.Iter
		}
		cs.onUpdated(srv, it.Chunk, it.Iter)
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
		for i := range cs.tops {
			cs.stream(&cs.tops[i], msg)
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
