package cluster

// Fault injection and recovery (Config.Faults). A faults.Plan is wired in
// as construction-time discrete events on the affected LPs (netsim's
// Schedule* methods) plus read-side lookups against the static plan, so a
// zero-event plan schedules nothing and stays byte-identical to no plan
// at every shard count. Stragglers, leave/join and link degradation need
// nothing else (injectFaults, scheduleFaults). Everything an aggregator
// crash needs — detecting it, routing around it, and recovering what it
// swallowed — is the recovery type below; the protocol code in worker.go,
// server.go and aggtree.go reaches it only through the five methods that
// answer the no-fault case on a nil receiver. Recovery is driven from both
// ends on top of one dedup invariant:
//
//   - the server counts every contribution once per machine, in the
//     chunk's slot (worker.Slot, the rule of every run, crash or not), so a
//     direct re-push and a late rack/pod stream for the same worker can
//     never double-count;
//   - the server re-arms a timeout on every aggregation barrier born while
//     a crash window could overlap it, and asks still-unseen machines of
//     crash-affected racks/pods for a direct re-push (kRepush);
//   - a worker stalled on parameters a lost broadcast should have carried
//     re-pulls them directly after the same timeout, and firstInstall
//     dedups whatever arrives twice.
//
// All recovery state is partitioned by the LP that owns it (a machine's
// lines and counter on the machine's LP, an aggregator's counters on the
// aggregator's LP), as the slots are (a chunk's on its server's machine
// LP), so the sharded engine never races on it and fault runs are
// bit-identical across shard counts.

import (
	"p3/internal/faults"
	"p3/internal/netsim"
	"p3/internal/sim"
	"p3/internal/worker"
)

// recovery is the crash-recovery component of a run: nil unless the plan
// scripts an aggregator crash. down, failover, pushed, firstInstall and
// arrived are what the protocol code calls, and on a nil receiver they
// answer as a run without crashes does; the rest runs only under a crash
// plan (the kRepush handler, netsim's AggDrop and outage callbacks, the
// two retry timers).
//
// An observing LP is named the way a message names its source: machine w
// as w, the aggregator of ordinal ord as -1-ord (aggNode.lp).
type recovery struct {
	cs      *clusterSim
	plan    *faults.Plan
	timeout sim.Time
	// affected[w] marks machines whose contributions or broadcasts can
	// route through a crash-scripted aggregator — the only machines the
	// server's barrier timer ever asks for re-pushes, so slow-but-healthy
	// racks are never spammed. Under HierAggregation a rack-tier crash
	// marks its whole parent pod: the pod reduction cannot complete without
	// the crashed rack's stream, so the sibling racks' contributions stall
	// inside the pod aggregator and need direct re-pushes too.
	affected []bool
	// lines[w*chunks+c] is machine w's record for chunk c, owned by w's LP.
	lines []line
	// failovers[lp] counts the failover actions taken on an LP (detected
	// reroutes, re-pushes, recovery pulls, repush rounds): machines first,
	// then aggregators by ordinal. lost[ord] counts the gradient
	// contributions aggregator ord swallowed while down or held when it
	// crashed.
	failovers []int64
	lost      []int64
}

// line holds the newest iteration (-1 initially) a machine pushed for a
// chunk, answered a kRepush for, re-pulled, and installed. The direct
// re-push rides a lossless network, so answering the same barrier's request
// twice only feeds the congestion that delayed the first copy — the retry
// storm that turns one crashed aggregator into a network collapse. The same
// goes for stallCheck's recovery pulls: a pull the server cannot answer yet
// parks (worker.Parked) and is answered when the update lands, so one
// pull per iteration is guaranteed a reply and every further round would
// duplicate the full-chunk data answer into the already-congested failover
// path. got doubles as the dedup line for whatever recovery delivers twice.
type line struct{ pushed, repushed, repulled, got int32 }

func (r *recovery) line(w int, chunk int32) *line {
	return &r.lines[w*r.cs.plan.NumChunks()+int(chunk)]
}

// tierOf maps a plan's aggregator tier or switch-link name to its netsim
// tier.
var tierOf = map[string]int{
	faults.TierRack: netsim.TierRack, faults.LinkToR: netsim.TierRack,
	faults.TierPod: netsim.TierPod, faults.LinkSpine: netsim.TierPod,
}

// injectFaults hooks the plan into the run under construction. Called
// after the reduction tree exists and before the network is constructed
// (netCfg.AggDrop must be set before netsim.New).
func (cs *clusterSim) injectFaults(netCfg *netsim.Config) {
	p := cs.cfg.Faults
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
	if !p.HasAggCrash() {
		return
	}
	n, nc := cs.cfg.Machines, cs.plan.NumChunks()
	r := &recovery{
		cs: cs, plan: p, timeout: sim.Time(p.Timeout()),
		affected:  make([]bool, n),
		lines:     make([]line, n*nc),
		failovers: make([]int64, n+len(cs.aggs)),
		lost:      make([]int64, len(cs.aggs)),
	}
	cs.rec = r
	for i := range r.lines {
		r.lines[i] = line{-1, -1, -1, -1}
	}
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
			r.affected[w] = true
		}
	}
	// A broadcast stream dropped at a down aggregator would leave a forward
	// stall unsatisfiable: re-pull directly after a timeout.
	cs.loop.Stalled = r.armStallCheck
	netCfg.AggDrop = r.aggDrop
}

// scheduleFaults installs the plan's scripted netsim events — link
// degradations and aggregator outages — as construction-time events on
// the affected LPs. Stragglers and worker-leave windows need no events:
// they are read back from the static plan at compute-scheduling time.
func (cs *clusterSim) scheduleFaults() {
	for _, e := range cs.cfg.Faults.Events {
		at, until := sim.Time(e.At), sim.Time(e.Until)
		switch {
		case e.Kind == faults.KindLinkDegrade && e.Link == faults.LinkHost:
			cs.net.ScheduleHostDegrade(e.Index, at, until, e.Factor)
		case e.Kind == faults.KindLinkDegrade:
			cs.net.ScheduleTierDegrade(tierOf[e.Link], e.Index, at, until, e.Factor)
		case e.Kind == faults.KindAggCrash:
			a := cs.node(tierOf[e.Tier], e.Index)
			cs.net.ScheduleAggOutage(a.tier, a.idx, at, until, func() { cs.rec.crashed(a) })
		}
	}
}

// faultCounters fills the Result's fault fields, summing the per-LP
// counters (safe once the run is over, like the netsim stat accessors).
func (cs *clusterSim) faultCounters(res *Result) {
	res.FaultsInjected = len(cs.cfg.Faults.Events)
	res.DegradedNs = cs.cfg.Faults.DegradedNs()
	if cs.rec == nil {
		return
	}
	for _, v := range cs.rec.failovers {
		res.AggFailovers += v
	}
	for _, v := range cs.rec.lost {
		res.LostReductions += v
	}
}

// down reports whether node a's aggregator is down as detected on the
// observing LP's own clock. A worker that has detected its rack aggregator
// down pushes directly, an aggregator re-parents past a down parent and
// fans per machine below a down child, a server streams per child.
func (r *recovery) down(a *aggNode, lp int) bool {
	if r == nil {
		return false
	}
	var now sim.Time
	if lp >= 0 {
		now = r.cs.procs[lp].Now()
	} else {
		at := &r.cs.aggs[-1-lp]
		now = r.cs.net.AggNow(at.tier, at.idx)
	}
	return r.plan.AggDownDetected(a.tier, a.idx, int64(now))
}

// failover counts one failover action taken on the LP.
func (r *recovery) failover(lp int) {
	if r == nil {
		return
	}
	if lp < 0 {
		lp = len(r.cs.procs) - 1 - lp
	}
	r.failovers[lp]++
}

// pushed records that worker w has pushed the chunk's gradient of
// iteration iter, so a later kRepush for it can be answered.
func (r *recovery) pushed(w int, chunk, iter int32) {
	if r != nil {
		r.line(w, chunk).pushed = iter
	}
}

// firstInstall reports whether this is worker w's first installation of
// the chunk's iteration. Crash recovery can deliver the same chunk twice
// (a re-pull or a stale re-push's answer, plus the original broadcast):
// only the first counts, keeping the loop's receive count consistent.
func (r *recovery) firstInstall(w int, chunk, iter int32) bool {
	if r == nil {
		return true
	}
	l := r.line(w, chunk)
	if l.got >= iter {
		return false
	}
	l.got = iter
	return true
}

// arrived runs before server srv counts a processed push for an iteration
// not yet completed into the chunk's slot: a push that opens the barrier
// inside a possible crash window arms the re-push timer.
func (r *recovery) arrived(srv int, it worker.Item, slot *worker.Slot) {
	if r == nil || slot.Open(it.Iter) {
		return
	}
	now := r.cs.procs[r.cs.srvMachine[srv]].Now()
	if _, pending := r.plan.CrashOverlap(int64(now), int64(now)); pending {
		r.barrierCheck(srv, it.Chunk, it.Iter, now, r.timeout)
	}
}

// crashed runs on the crashed aggregator's LP at the crash instant:
// whatever partial reductions the aggregator held are lost with it.
func (r *recovery) crashed(a *aggNode) {
	for c := range a.slots {
		r.lost[a.ord] += int64(a.slots[c].Abandon())
	}
}

// aggDrop is the netsim AggDrop handler: it counts the gradient
// contributions a down aggregator swallowed, on that aggregator's own LP —
// a reduced stream as every machine it carries (expect); broadcast traffic
// carries no contributions.
func (r *recovery) aggDrop(tier, idx int, m netsim.Message) {
	if m.Kind != kPush {
		return
	}
	n := 1
	if m.Src < 0 {
		n = r.cs.expect(&r.cs.aggs[-1-m.Src], m.Chunk)
	}
	r.lost[r.cs.node(tier, idx).ord] += int64(n)
}

// backoff doubles a retry timer up to 32x the configured timeout:
// re-pushed gradients and re-pulled parameters are megabytes crossing an
// oversubscribed uplink, so they routinely outlive one timeout in flight —
// retrying on a fixed period re-requests data that is already coming and
// melts the network under its own recovery traffic.
func (r *recovery) backoff(delay sim.Time) sim.Time {
	return min(delay*2, r.timeout*32)
}

// barrierCheck re-arms a timeout on the server's machine LP for an
// aggregation barrier born at `since` while a crash window could overlap
// it. Each firing asks every still-unseen machine of a crash-affected
// rack/pod for a direct re-push (kRepush); the timer stops once the
// barrier completes, the slot moves to a newer iteration, or no scripted
// crash can reach it anymore, and backs off exponentially in between.
func (r *recovery) barrierCheck(srv int, chunk, iter int32, since, delay sim.Time) {
	cs := r.cs
	srvM := cs.srvMachine[srv]
	cs.procs[srvM].After(delay, func() {
		slot := &cs.slots[chunk]
		if !slot.Open(iter) {
			return
		}
		now := cs.procs[srvM].Now()
		fire, pending := r.plan.CrashOverlap(int64(since), int64(now))
		if fire {
			sent := false
			c := cs.plan.Chunks[chunk]
			for w, affected := range r.affected {
				if !affected || w == srvM || slot.Seen(w) {
					continue
				}
				sent = true
				cs.net.Send(netsim.Message{
					From: srvM, To: w, Bytes: ctlBytes, Priority: int32(c.Priority),
					Kind: kRepush, Chunk: chunk, Iter: iter, Src: int32(srv),
				})
			}
			if sent {
				r.failover(srvM)
			}
		}
		if pending {
			r.barrierCheck(srv, chunk, iter, since, r.backoff(delay))
		}
	})
}

// repush answers a server's re-push request (kRepush) on the worker's LP:
// if the worker already pushed this iteration (so its contribution may have
// died with an aggregator) and has not yet seen the iteration's update, it
// re-pushes the gradient chunk directly to the server — once per
// iteration: the direct path is lossless, so a second copy can only add
// congestion behind the first.
func (r *recovery) repush(m netsim.Message) {
	w := m.To
	l := r.line(w, m.Chunk)
	if l.pushed < m.Iter || l.got >= m.Iter || l.repushed >= m.Iter {
		return
	}
	l.repushed = m.Iter
	r.failover(w)
	c := r.cs.plan.Chunks[m.Chunk]
	r.cs.net.Send(netsim.Message{
		From: w, To: r.cs.srvMachine[c.Server], Bytes: c.Bytes(), Priority: int32(c.Priority),
		Kind: kPush, Chunk: m.Chunk, Iter: m.Iter, Src: int32(w),
	})
}

// armStallCheck is the loop's Stalled hook: it re-arms a timeout on worker
// w's LP while it is stalled in forward waiting for layer l's parameters
// of iteration iter-1 and a scripted crash could explain the gap (a
// broadcast stream dropped at a down aggregator). Each firing re-pulls the
// still-missing chunks directly from their servers — once per iteration
// (line.repulled): an unanswerable pull parks at the server (worker.Parked)
// and is answered when the update lands, so a second pull can only
// duplicate the data answer behind the first — backing off exponentially
// between rounds; stragglers of the dedup line are still dedup'd at
// install (firstInstall).
func (r *recovery) armStallCheck(w, l int, iter int32, since sim.Time) {
	if _, pending := r.plan.CrashOverlap(int64(since), int64(since)); pending {
		r.stallCheck(w, l, iter, since, r.timeout)
	}
}

func (r *recovery) stallCheck(w, l int, iter int32, since, delay sim.Time) {
	cs := r.cs
	cs.procs[w].After(delay, func() {
		if !cs.loop.Waiting(w, l, iter) {
			return
		}
		now := cs.procs[w].Now()
		fire, pending := r.plan.CrashOverlap(int64(since), int64(now))
		if fire {
			pulled := false
			for _, id := range cs.plan.LayerChunks(l) {
				ln := r.line(w, int32(id))
				if ln.got >= iter-1 || ln.repulled >= iter-1 {
					continue
				}
				ln.repulled = iter - 1
				pulled = true
				c := cs.plan.Chunks[id]
				cs.net.Send(netsim.Message{
					From: w, To: cs.srvMachine[c.Server], Bytes: ctlBytes, Priority: int32(c.Priority),
					Kind: kPull, Chunk: int32(id), Iter: iter - 1, Src: int32(w),
				})
			}
			if pulled {
				r.failover(w)
			}
		}
		if pending {
			r.stallCheck(w, l, iter, since, r.backoff(delay))
		}
	})
}
