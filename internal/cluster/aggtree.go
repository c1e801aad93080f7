package cluster

// The aggregator tree (RackAggregation only): rack nodes, pod nodes above
// them under HierAggregation, the rack-local parameter cache.

import (
	"fmt"

	"p3/internal/netsim"
	"p3/internal/worker"
)

// aggNode is one aggregator of the reduction tree (RackAggregation): a rack
// aggregator, or — under HierAggregation — a pod aggregator above its
// racks' nodes. Its place in the tree is fixed at construction and read
// from anywhere; everything that changes (agg, the counters, the cache) is
// owned by the aggregator's LP — touched exclusively from AggDeliver/
// AggDrop and outage callbacks, which the netsim contract runs on that
// LP's timeline, so the sharded engine never races on it.
//
// slots holds, per chunk, the reduction in flight: the same rule as the
// server's barrier (worker.Slot), over the machines below the node.
// Iterations strictly serialize per chunk at an aggregator (a worker
// cannot push iteration k before the server's k-1 update), so one slot
// per chunk suffices, as it does at the server.
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
	slots     []worker.Slot

	cachedIter []int32                 // RackLocalPS rack nodes only
	pending    map[int32][]pendingPull // RackLocalPS rack nodes only: chunk -> waiting pulls
}

// only reports whether machine m is all there is below the node.
func (a *aggNode) only(m int) bool { return a.lo == m && a.hi == m+1 }

// lp names the aggregator's LP the way its reduced streams name their
// source (Src = -1-ord): what recovery takes as the observing LP.
func (a *aggNode) lp() int { return -1 - a.ord }

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
			a := aggNode{tier: tier, idx: lo / span, ord: len(cs.aggs), lo: lo, hi: min(lo+span, n)}
			a.slots = worker.NewSlots(cs.plan.NumChunks(), n, func(c int) int { return cs.expect(&a, int32(c)) })
			if cs.cfg.RackLocalPS && tier == netsim.TierRack {
				a.cachedIter = make([]int32, len(a.slots))
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

// aggDeliver is the netsim AggDeliver handler, running on the addressed
// aggregator's LP.
//
// Gradient pushes reduce: each arriving contribution counts the machines
// it carries (span), and the one that completes the node's (chunk,
// iteration) flushes ONE reduced push, same bytes, carrying everything
// below the node, to the parent node — or, at the top of the tree, to the
// chunk's server.
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
		lo, hi, skip := cs.span(m.Src, m.Chunk)
		if _, complete := a.slots[m.Chunk].Add(m.Iter, lo, hi, skip); !complete {
			return
		}
		out := m
		out.Src = int32(a.lp())
		up := a.parent
		if up != nil && cs.rec.down(up, a.lp()) {
			// Hierarchical failover: re-parent the reduced stream from the
			// down aggregator above straight to the server.
			up = nil
			cs.rec.failover(a.lp())
		}
		if up != nil {
			out.To, out.ToAgg, out.AggTier = up.idx, true, uint8(up.tier)
		} else {
			out.To, out.ToAgg, out.AggTier = cs.srvMachine[cs.plan.Chunks[m.Chunk].Server], false, 0
		}
		cs.net.AggSend(tier, idx, out)
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
	anyDown := false
	for _, k := range a.kids {
		if k.only(srvM) {
			skip = k.idx
		} else if cs.rec.down(k, a.lp()) {
			anyDown = true
		}
	}
	if !anyDown {
		cs.net.AggFanout(a.tier, a.idx, m, skip)
		return
	}
	// Failover fan: each copy for a down child serializes through the
	// child's downlink individually — the cost of losing its fanout.
	cs.rec.failover(a.lp())
	for _, k := range a.kids {
		c := m
		switch {
		case k.idx == skip:
		case cs.rec.down(k, a.lp()):
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

// span is the machines whose gradients a push of chunk from src carries:
// [lo, hi) except skip. A worker's own push carries the worker; a reduced
// stream (Src = -1-ord) the machines below the reducing node except the
// chunk's server machine, which it does not reduce (expect).
func (cs *clusterSim) span(src, chunk int32) (lo, hi, skip int) {
	if src >= 0 {
		return int(src), int(src) + 1, -1
	}
	a := &cs.aggs[-1-src]
	return a.lo, a.hi, cs.srvMachine[cs.plan.Chunks[chunk].Server]
}

// stream ships node a's copy of a server broadcast (msg, From the server's
// machine): one stream to a's aggregator normally, or — when the server has
// detected that aggregator down, so the stream would die there — one copy
// per child: the nodes below it, or a rack's machines directly.
func (cs *clusterSim) stream(a *aggNode, msg netsim.Message) {
	srvM := msg.From
	if a.only(srvM) {
		return // the loopback already reached all of it
	}
	if !cs.rec.down(a, srvM) {
		msg.To, msg.ToAgg, msg.AggTier = a.idx, true, uint8(a.tier)
		cs.net.Send(msg)
		return
	}
	cs.rec.failover(srvM)
	for _, k := range a.kids {
		cs.stream(k, msg)
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
