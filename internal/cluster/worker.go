package cluster

// Worker glue: what the compute loop (worker.Loop) and the receive-side
// pool (worker.Pool) turn into on the wire. Stragglers, leave/join and stall
// checks hook into the loop once, in injectFaults.

import (
	"p3/internal/netsim"
	"p3/internal/worker"
)

// workerState is what a worker keeps beyond its compute loop (worker.Loop).
type workerState struct {
	notifyCount []int // per layer: notifications received (baseline)

	// Receive-side processing: deserializing and installing an arrived
	// parameter chunk costs CPU time (the receiver-side producer/consumer
	// of Section 4.2; priority-ordered under P3).
	proc *worker.Pool
}

// pushLayer is the loop's Grad hook: worker w's backward pass has produced
// layer l's gradient; push its chunks to their servers.
func (cs *clusterSim) pushLayer(w, l int, iter int32) {
	for _, id := range cs.plan.LayerChunks(l) {
		c := cs.plan.Chunks[id]
		m := netsim.Message{
			From: w, To: cs.srvMachine[c.Server], Bytes: c.Bytes(), Priority: int32(c.Priority),
			Kind: kPush, Chunk: int32(id), Iter: iter, Src: int32(w),
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
			if cs.rec.down(rack, w) {
				cs.rec.failover(w)
			} else {
				m.To = rack.idx
				m.ToAgg = true
			}
		}
		cs.rec.pushed(w, m.Chunk, iter)
		cs.net.Send(m)
	}
}

// pullAll is the loop's IterDone hook under DeferredPull (TensorFlow
// semantics): the next graph execution begins when the backward pass ends
// and issues receive ops for every parameter at once.
func (cs *clusterSim) pullAll(w int, iter int32) {
	for id := range cs.plan.Chunks {
		cs.sendPull(w, int32(id), iter)
	}
}

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
	cs.workers[m.To].proc.Add(worker.Item{Chunk: m.Chunk, Iter: m.Iter, Src: m.Src, Priority: m.Priority})
}

// installChunk marks an updated parameter chunk as usable by the next
// forward pass and unblocks the worker if it was stalled on this layer.
func (cs *clusterSim) installChunk(w int, chunk, iter int32) {
	if cs.rec.firstInstall(w, chunk, iter) {
		cs.loop.Installed(w, cs.plan.Chunks[chunk].Layer, iter)
	}
}
