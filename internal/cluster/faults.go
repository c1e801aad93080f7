package cluster

// Fault injection and recovery (Config.Faults). A faults.Plan is wired in
// as construction-time discrete events on the affected LPs (netsim's
// Schedule* methods) plus read-side lookups against the static plan, so a
// zero-event plan schedules nothing and stays byte-identical to no plan
// at every shard count. Recovery from aggregator crashes is driven from
// both ends on top of the same dedup invariant:
//
//   - every contribution the server counts is tracked in a per-chunk seen
//     bitmap, so a direct re-push and a late rack/pod stream for the same
//     worker can never double-count;
//   - the server re-arms a timeout on every aggregation barrier born while
//     a crash window could overlap it, and asks still-unseen machines of
//     crash-affected racks/pods for a direct re-push (kRepush);
//   - a worker stalled on parameters a lost broadcast should have carried
//     re-pulls them directly after the same timeout, and installChunk
//     dedups whatever arrives twice.
//
// All recovery state is partitioned by the LP that owns it (per-machine
// counters on the machine's LP, per-aggregator counters on the aggregator
// LP, seen bitmaps on the server's machine LP), so the sharded engine
// never races on it and fault runs are bit-identical across shard counts.

import (
	"p3/internal/faults"
	"p3/internal/netsim"
	"p3/internal/sim"
	"p3/internal/worker"
)

// faultState is the per-run fault wiring. Nil on fault-free runs; the
// crash-recovery arrays (pushedIter, gotIter, affected) are allocated only
// when the plan scripts an aggregator crash.
type faultState struct {
	plan    *faults.Plan
	timeout sim.Time
	// hasCrash gates every crash-recovery code path; stragglers, link
	// degradation and worker churn need none of it.
	hasCrash bool
	// affected[w] marks machines whose contributions or broadcasts can
	// route through a crash-scripted aggregator — the only machines the
	// server's barrier timer ever asks for re-pushes, so slow-but-healthy
	// racks are never spammed. Under HierAggregation a rack-tier crash
	// marks its whole parent pod: the pod reduction cannot complete without
	// the crashed rack's stream, so the sibling racks' contributions stall
	// inside the pod aggregator and need direct re-pushes too.
	affected []bool
	// pushedIter[w][chunk] is the newest iteration worker w pushed for the
	// chunk; gotIter[w][chunk] the newest iteration installed. Both are
	// owned by machine w's LP. gotIter doubles as the dedup line for
	// recovery duplicates. repushedIter[w][chunk] is the newest iteration
	// the worker answered a kRepush for: the direct re-push rides a
	// lossless network, so answering the same barrier's request twice only
	// feeds the congestion that delayed the first copy — the retry storm
	// that turns one crashed aggregator into a network collapse.
	// repulledIter[w][chunk] is the same line for stallCheck's recovery
	// pulls: a pull the server cannot answer yet parks in its pending list
	// and is answered when the update lands, so one pull per iteration is
	// guaranteed a reply and every further round would duplicate the
	// full-chunk data answer into the already-congested failover path.
	pushedIter   [][]int32
	repushedIter [][]int32
	repulledIter [][]int32
	gotIter      [][]int32
	// machFailovers[w] counts failover actions taken on machine w's LP
	// (detected reroutes, re-pushes, recovery pulls, repush rounds); the
	// ones decided on an aggregator's LP, and the contributions a down
	// aggregator swallowed, are counted on its aggNode.
	machFailovers []int64
}

// tierOf maps a plan's aggregator tier or switch-link name to its netsim
// tier.
var tierOf = map[string]int{
	faults.TierRack: netsim.TierRack, faults.LinkToR: netsim.TierRack,
	faults.TierPod: netsim.TierPod, faults.LinkSpine: netsim.TierPod,
}

// newFaultState builds the run's fault wiring. Called after the reduction
// tree exists and before the network is constructed (netCfg.AggDrop must
// be set before NewOnExec).
func (cs *clusterSim) newFaultState(netCfg *netsim.Config) {
	p := cs.cfg.Faults
	n := cs.cfg.Machines
	fs := &faultState{
		plan:          p,
		timeout:       sim.Time(p.Timeout()),
		hasCrash:      p.HasAggCrash(),
		machFailovers: make([]int64, n),
	}
	cs.fs = fs
	// Stragglers and worker-leave windows are read off the static plan at
	// the worker's own clock (no events, no cross-LP state): a straggler
	// window multiplies the compute steps that start inside it, and a step
	// that would start inside a leave window instead runs its full
	// duration from the rejoin instant.
	cs.loop.StepEnd = func(w int, now, d sim.Time) sim.Time {
		if f := p.SlowFactor(w, int64(now)); f != 1 {
			d = sim.Time(float64(d) * f)
		}
		if rejoin, ok := p.PausedAt(w, int64(now)); ok {
			return sim.Time(rejoin) + d
		}
		return now + d
	}
	if !fs.hasCrash {
		return
	}
	// A broadcast stream dropped at a down aggregator would leave a forward
	// stall unsatisfiable: re-pull directly after a timeout.
	cs.loop.Stalled = cs.armStallCheck
	fs.affected = make([]bool, n)
	for _, e := range p.Events {
		if e.Kind != faults.KindAggCrash {
			continue
		}
		// Everything below the crashed node's topmost ancestor: that
		// ancestor's reduction cannot complete without the crashed stream.
		a := cs.node(tierOf[e.Tier], e.Index)
		for a.parent != nil {
			a = a.parent
		}
		for w := a.lo; w < a.hi; w++ {
			fs.affected[w] = true
		}
	}
	fs.pushedIter = make([][]int32, n)
	fs.gotIter = make([][]int32, n)
	fs.repushedIter = make([][]int32, n)
	fs.repulledIter = make([][]int32, n)
	for w := 0; w < n; w++ {
		fs.pushedIter[w] = make([]int32, cs.plan.NumChunks())
		fs.gotIter[w] = make([]int32, cs.plan.NumChunks())
		fs.repushedIter[w] = make([]int32, cs.plan.NumChunks())
		fs.repulledIter[w] = make([]int32, cs.plan.NumChunks())
		for c := range fs.pushedIter[w] {
			fs.pushedIter[w][c] = -1
			fs.gotIter[w][c] = -1
			fs.repushedIter[w][c] = -1
			fs.repulledIter[w][c] = -1
		}
	}
	netCfg.AggDrop = cs.aggDrop
}

// scheduleFaults installs the plan's scripted netsim events — link
// degradations and aggregator outages — as construction-time events on
// the affected LPs. Stragglers and worker-leave windows need no events:
// they are read back from the static plan at compute-scheduling time.
func (cs *clusterSim) scheduleFaults() {
	for _, e := range cs.fs.plan.Events {
		at, until := sim.Time(e.At), sim.Time(e.Until)
		switch {
		case e.Kind == faults.KindLinkDegrade && e.Link == faults.LinkHost:
			cs.net.ScheduleHostDegrade(e.Index, at, until, e.Factor)
		case e.Kind == faults.KindLinkDegrade:
			cs.net.ScheduleTierDegrade(tierOf[e.Link], e.Index, at, until, e.Factor)
		case e.Kind == faults.KindAggCrash:
			a := cs.node(tierOf[e.Tier], e.Index)
			cs.net.ScheduleAggOutage(a.tier, a.idx, at, until, func() { cs.onAggCrash(a) }, nil)
		}
	}
}

// onAggCrash runs on the crashed aggregator's LP at the crash instant:
// whatever partial reductions the aggregator held are lost with it.
func (cs *clusterSim) onAggCrash(a *aggNode) {
	for c := range a.agg {
		if a.agg[c].count > 0 {
			a.lost += int64(a.agg[c].count)
			a.agg[c].iter = -1
			a.agg[c].count = 0
		}
	}
}

// aggDrop is the netsim AggDrop handler (crash plans only): it counts the
// gradient contributions a down aggregator swallowed, on that
// aggregator's own LP — reduced streams at their weight; broadcast traffic
// carries no contributions.
func (cs *clusterSim) aggDrop(tier, idx int, m netsim.Message) {
	if m.Kind == kPush {
		cs.node(tier, idx).lost += int64(cs.weight(m.Src, m.Chunk))
	}
}

// downDetected reports whether node a's aggregator is down as detected at
// virtual time now (the reading LP's own clock).
func (cs *clusterSim) downDetected(a *aggNode, now sim.Time) bool {
	return cs.fs.plan.AggDownDetected(a.tier, a.idx, int64(now))
}

// pushProcessedFaults replaces the synchronous pushProcessed barrier under
// crash plans: contributions are counted through a per-chunk seen bitmap
// (dedup against re-pushes), barriers born inside a possible crash window
// arm a re-push timer, and stale re-pushes of an already-completed
// iteration are answered with the current value so the re-pusher also
// recovers any broadcast it missed.
func (cs *clusterSim) pushProcessedFaults(srv int, it worker.Item) {
	s := &cs.servers[srv]
	if it.Iter <= s.lastDone[it.Chunk] {
		if it.Src >= 0 {
			cs.sendData(srv, it.Chunk, it.Iter, int(it.Src))
		}
		return
	}
	agg := &s.agg[it.Chunk]
	if agg.iter != it.Iter {
		agg.iter = it.Iter
		agg.count = 0
		agg.done = false
		seen := s.seen[it.Chunk]
		for i := range seen {
			seen[i] = false
		}
		now := cs.procs[cs.srvMachine[srv]].Now()
		if _, pending := cs.fs.plan.CrashOverlap(int64(now), int64(now)); pending {
			cs.armBarrierCheck(srv, it.Chunk, it.Iter, now)
		}
	}
	agg.count += cs.markSeen(srv, it.Chunk, int(it.Src))
	if agg.count == cs.cfg.Machines && !agg.done {
		agg.done = true
		if it.Iter > s.lastDone[it.Chunk] {
			s.lastDone[it.Chunk] = it.Iter
		}
		cs.onUpdated(srv, it.Chunk, it.Iter)
	}
}

// markSeen marks the workers a contribution covers in the chunk's seen
// bitmap and returns how many were newly marked — 0 for every worker a
// re-push or late stream already counted. A reduced stream covers the
// machines below its node except the chunk's server machine, mirroring
// expect.
func (cs *clusterSim) markSeen(srv int, chunk int32, src int) int {
	seen := cs.servers[srv].seen[chunk]
	lo, hi := src, src+1
	if src < 0 {
		a := &cs.aggs[-1-src]
		lo, hi = a.lo, a.hi
	}
	n := 0
	for w := lo; w < hi; w++ {
		if !seen[w] && (src >= 0 || w != cs.srvMachine[srv]) {
			seen[w] = true
			n++
		}
	}
	return n
}

// recoveryBackoff doubles a retry timer up to 32x the configured timeout:
// re-pushed gradients and re-pulled parameters are megabytes crossing an
// oversubscribed uplink, so they routinely outlive one timeout in flight —
// retrying on a fixed period re-requests data that is already coming and
// melts the network under its own recovery traffic.
func (cs *clusterSim) recoveryBackoff(delay sim.Time) sim.Time {
	if max := cs.fs.timeout * 32; delay*2 > max {
		return max
	}
	return delay * 2
}

// armBarrierCheck re-arms a timeout on the server's machine LP for an
// aggregation barrier born at `since` while a crash window could overlap
// it. Each firing asks every still-unseen machine of a crash-affected
// rack/pod for a direct re-push (kRepush); the timer stops once the
// barrier completes, the slot moves to a newer iteration, or no scripted
// crash can reach it anymore, and backs off exponentially in between.
func (cs *clusterSim) armBarrierCheck(srv int, chunk, iter int32, since sim.Time) {
	cs.barrierCheck(srv, chunk, iter, since, cs.fs.timeout)
}

func (cs *clusterSim) barrierCheck(srv int, chunk, iter int32, since sim.Time, delay sim.Time) {
	srvM := cs.srvMachine[srv]
	cs.procs[srvM].After(delay, func() {
		s := &cs.servers[srv]
		agg := &s.agg[chunk]
		if agg.iter != iter || agg.done {
			return
		}
		now := cs.procs[srvM].Now()
		fire, pending := cs.fs.plan.CrashOverlap(int64(since), int64(now))
		if fire {
			sent := false
			seen := s.seen[chunk]
			c := cs.plan.Chunks[chunk]
			for w := range seen {
				if seen[w] || !cs.fs.affected[w] || w == srvM {
					continue
				}
				sent = true
				cs.net.Send(netsim.Message{
					From: srvM, To: w, Bytes: ctlBytes, Priority: int32(c.Priority),
					Kind: kRepush, Chunk: chunk, Iter: iter, Src: int32(srv),
				})
			}
			if sent {
				cs.fs.machFailovers[srvM]++
			}
		}
		if pending {
			cs.barrierCheck(srv, chunk, iter, since, cs.recoveryBackoff(delay))
		}
	})
}

// onRepush answers a server's re-push request on the worker's LP: if the
// worker already pushed this iteration (so its contribution may have died
// with an aggregator) and has not yet seen the iteration's update, it
// re-pushes the gradient chunk directly to the server — once per
// iteration: the direct path is lossless, so a second copy can only add
// congestion behind the first.
func (cs *clusterSim) onRepush(m netsim.Message) {
	w := m.To
	fs := cs.fs
	if fs.pushedIter[w][m.Chunk] < m.Iter || fs.gotIter[w][m.Chunk] >= m.Iter ||
		fs.repushedIter[w][m.Chunk] >= m.Iter {
		return
	}
	fs.repushedIter[w][m.Chunk] = m.Iter
	fs.machFailovers[w]++
	c := cs.plan.Chunks[m.Chunk]
	cs.net.Send(netsim.Message{
		From: w, To: cs.srvMachine[c.Server], Bytes: c.Bytes(), Priority: int32(c.Priority),
		Kind: kPush, Chunk: m.Chunk, Iter: m.Iter, Src: int32(w),
	})
}

// armStallCheck re-arms a timeout on worker w's LP while it is stalled in
// forward waiting for layer l's parameters of iteration iter-1 and a
// scripted crash could explain the gap (a broadcast stream dropped at a
// down aggregator). Each firing re-pulls the still-missing chunks
// directly from their servers — once per iteration (repulledIter): an
// unanswerable pull parks in the server's pending list and is answered
// when the update lands, so a second pull can only duplicate the data
// answer behind the first — backing off exponentially between rounds;
// stragglers of the dedup line are still dedup'd at install (gotIter).
func (cs *clusterSim) armStallCheck(w, l int, iter int32, since sim.Time) {
	if _, pending := cs.fs.plan.CrashOverlap(int64(since), int64(since)); !pending {
		return
	}
	cs.stallCheck(w, l, iter, since, cs.fs.timeout)
}

func (cs *clusterSim) stallCheck(w, l int, iter int32, since sim.Time, delay sim.Time) {
	cs.procs[w].After(delay, func() {
		if !cs.loop.Waiting(w, l, iter) {
			return
		}
		now := cs.procs[w].Now()
		fire, pending := cs.fs.plan.CrashOverlap(int64(since), int64(now))
		if fire {
			pulled := false
			for _, id := range cs.plan.LayerChunks(l) {
				if cs.fs.gotIter[w][id] >= iter-1 || cs.fs.repulledIter[w][id] >= iter-1 {
					continue
				}
				cs.fs.repulledIter[w][id] = iter - 1
				pulled = true
				c := cs.plan.Chunks[id]
				cs.net.Send(netsim.Message{
					From: w, To: cs.srvMachine[c.Server], Bytes: ctlBytes, Priority: int32(c.Priority),
					Kind: kPull, Chunk: int32(id), Iter: iter - 1, Src: int32(w),
				})
			}
			if pulled {
				cs.fs.machFailovers[w]++
			}
		}
		if pending {
			cs.stallCheck(w, l, iter, since, cs.recoveryBackoff(delay))
		}
	})
}

// faultCounters sums the per-LP fault counters into the Result fields
// (safe once the run is over, like the netsim stat accessors).
func (cs *clusterSim) faultCounters(r *Result) {
	fs := cs.fs
	r.FaultsInjected = len(fs.plan.Events)
	r.DegradedNs = fs.plan.DegradedNs()
	for _, v := range fs.machFailovers {
		r.AggFailovers += v
	}
	for i := range cs.aggs {
		r.AggFailovers += cs.aggs[i].failovers
		r.LostReductions += cs.aggs[i].lost
	}
}
