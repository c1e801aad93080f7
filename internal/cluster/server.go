package cluster

// Server side: the aggregation barrier per chunk, the update broadcast,
// and pull serving.

import (
	"p3/internal/netsim"
	"p3/internal/strategy"
	"p3/internal/worker"
)

type serverState struct {
	proc   *worker.Pool
	parked worker.Parked // by chunk ID: pulls waiting for their iteration
}

func (cs *clusterSim) onPush(m netsim.Message) {
	cs.servers[cs.machineSrv[m.To]].proc.Add(worker.Item{Chunk: m.Chunk, Iter: m.Iter, Src: m.Src, Priority: m.Priority})
}

// pushProcessed runs when the server finishes aggregating one worker's push
// of a chunk into the chunk's slot (clusterSim.slots); the push that
// completes it completes the update. In Async (ASGD) mode every push is its
// own update, answered only to the pushing worker. A reduced push (Src < 0
// under RackAggregation) counts as every worker whose gradient was folded
// into it (span), less whatever a re-push already counted under a crash
// plan. A worker's push for an already-completed iteration (a crash
// recovery re-push) counts zero and is answered as a pull, so the pusher
// also recovers any broadcast it missed.
func (cs *clusterSim) pushProcessed(srv int, it worker.Item) {
	if cs.cfg.Strategy.Async {
		cs.sendData(srv, it.Chunk, it.Iter, int(it.Src))
		return
	}
	slot := &cs.slots[it.Chunk]
	if slot.Answerable(it.Iter) {
		if it.Src >= 0 {
			cs.sendData(srv, it.Chunk, it.Iter, int(it.Src))
		}
		return
	}
	cs.rec.arrived(srv, it, slot)
	lo, hi, skip := cs.span(it.Src, it.Chunk)
	if _, complete := slot.Add(it.Iter, lo, hi, skip); complete {
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
	cs.servers[srv].parked.Release(uint64(chunk), iter, func(p worker.Pull) { cs.sendData(srv, chunk, p.Iter, int(p.Src)) })
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
	if cs.slots[m.Chunk].Answerable(m.Iter) {
		// The requested (or a newer) update already landed: answer with
		// the current value, as a real key-value store does. Any other pull
		// parks until its update (onUpdated).
		cs.sendData(srv, m.Chunk, m.Iter, int(m.Src))
		return
	}
	cs.servers[srv].parked.Park(uint64(m.Chunk), worker.Pull{Iter: m.Iter, Src: m.Src})
}
