package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// pshard is one shard of a Parallel run: the Engine that runs the shard's
// LPs, per-destination outboxes for its cross-shard sends, and the channel
// its window horizons arrive on. Every event writes the engine header and
// every cross send an outbox header, so no two shards may share a cache
// line. Unpadded, a shard takes 160 bytes, a size class whose objects
// straddle lines, and NewParallel allocates the shards back to back. 256
// bytes is the smallest size class above that whose objects are 128-byte
// aligned, the alignment a bare Engine gets for the same reason: the
// embedded Engine owns its two lines, and the outboxes and work channel a
// third.
//
//p3:sizebudget 256
type pshard struct {
	Engine
	outbox [][]event // indexed by destination shard; owned by this shard's goroutine during a window
	work   chan Time // window horizons from the coordinator
	_      [96]byte
}

// active reports whether the shard has an event before horizon.
func (s *pshard) active(horizon Time) bool {
	t, ok := s.q.earliest()
	return ok && t < horizon
}

// Parallel is a conservative-lookahead parallel discrete-event executor:
// LPs are partitioned over shards, each shard is an Engine that runs its
// events on its own goroutine within barrier-synchronous windows of width lookahead, and
// cross-shard sends are buffered and injected at the barrier carrying the
// canonical key stamped at the send. See the package comment for the
// determinism contract.
type Parallel struct {
	shards  []*pshard
	lpShard []int32 // LP -> shard
	look    Time
	stopped atomic.Bool
	windowW sync.WaitGroup // open window dispatches
}

// NewParallel builds a Parallel executor over len(lpShard) logical
// processes: lpShard[lp] names the shard (in [0, shards)) that owns LP lp.
// lookahead must be positive — it is the minimum latency of every Cross
// send, and the width of the safe execution window; a zero-lookahead
// topology admits no safe window and is rejected rather than left to
// deadlock.
func NewParallel(shards int, lpShard []int, lookahead Time) (*Parallel, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sim: %d shards", shards)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: conservative parallel execution needs a positive lookahead, got %v (a zero-lookahead topology has no safe window and would deadlock)", lookahead)
	}
	if len(lpShard) >= 1<<16 {
		return nil, fmt.Errorf("sim: %d LPs exceed the canonical tie key's LP field (max %d)", len(lpShard), 1<<16-2)
	}
	p := &Parallel{
		shards:  make([]*pshard, shards),
		lpShard: make([]int32, len(lpShard)),
		look:    lookahead,
	}
	for lp, s := range lpShard {
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("sim: LP %d assigned to shard %d of %d", lp, s, shards)
		}
		p.lpShard[lp] = int32(s)
	}
	for i := range p.shards {
		// Every LP's schedule counter, in whole cache lines, so no two
		// shards' counters share one; a shard touches only its own LPs'.
		seq := make([]uint64, len(lpShard), (len(lpShard)+7)&^7)
		p.shards[i] = &pshard{Engine: Engine{lpSeq: seq}, outbox: make([][]event, shards)}
	}
	return p, nil
}

// Proc returns the scheduling handle of LP lp on its shard's Engine.
func (p *Parallel) Proc(lp int) Proc {
	return lpProc{e: &p.shards[p.lpShard[lp]].Engine, lp: int32(lp)}
}

// Shards reports the shard count.
func (p *Parallel) Shards() int { return len(p.shards) }

// ShardOf reports the shard that owns LP lp.
func (p *Parallel) ShardOf(lp int) int { return int(p.lpShard[lp]) }

// Cross buffers fn for injection into dst's shard at time at, stamped with
// the canonical key of the sending LP. It must be called from an event
// executing on src's shard (that shard's outbox row and src's schedule
// counter are written without synchronization) and at must respect the
// lookahead.
func (p *Parallel) Cross(src, dst int, at Time, fn func()) {
	ss := p.shards[p.lpShard[src]]
	if at < ss.now+p.look {
		panic(fmt.Sprintf("sim: cross-shard send at %v from now %v violates lookahead %v", at, ss.now, p.look))
	}
	ds := p.lpShard[dst]
	ss.outbox[ds] = append(ss.outbox[ds], event{at: at, sched: ss.now, ord: ss.stamp(int32(src)), fn: fn})
}

// Stop makes Run return at the next window barrier: every shard finishes
// the window under way, so no shard polls a shared flag per event. Stop is
// a shutdown hatch, not a measurement point.
func (p *Parallel) Stop() { p.stopped.Store(true) }

// Processed reports how many events have fired across all shards. Only
// meaningful once Run has returned.
func (p *Parallel) Processed() uint64 {
	var n uint64
	for _, s := range p.shards {
		n += s.nRun
	}
	return n
}

// Run processes events until every queue drains or Stop is called, and
// returns the final virtual time (the maximum over shards). Worker
// goroutines live only for the duration of the call.
func (p *Parallel) Run() Time {
	p.stopped.Store(false)
	var workers sync.WaitGroup
	workers.Add(len(p.shards))
	for _, s := range p.shards {
		s.work = make(chan Time, 1)
		go func(s *pshard) {
			defer workers.Done()
			for horizon := range s.work {
				s.run(horizon - 1)
				p.windowW.Done()
			}
		}(s)
	}

	for !p.stopped.Load() {
		tmin := maxTime
		for _, s := range p.shards {
			if t, ok := s.q.earliest(); ok && t < tmin {
				tmin = t
			}
		}
		if tmin == maxTime {
			break
		}
		// A window runs events strictly before its horizon: an event at the
		// horizon itself may need to be ordered against cross messages
		// injected at this window's barrier, so it belongs to a later
		// window.
		horizon := tmin + p.look
		nActive := 0
		var only *pshard
		for _, s := range p.shards {
			if s.active(horizon) {
				nActive++
				only = s
			}
		}
		if nActive == 1 {
			// A one-shard window needs no handoff; running it inline keeps
			// sparse phases (one machine computing while the rest wait) at
			// sequential-engine cost.
			only.run(horizon - 1)
		} else {
			p.windowW.Add(nActive)
			for _, s := range p.shards {
				if s.active(horizon) {
					s.work <- horizon
				}
			}
			p.windowW.Wait()
		}
		p.inject()
	}
	for _, s := range p.shards {
		close(s.work)
	}
	workers.Wait()

	var end Time
	for _, s := range p.shards {
		if s.now > end {
			end = s.now
		}
	}
	return end
}

// inject drains every outbox into the destination queues. Each message
// keeps the canonical key stamped at its send, and the queue orders events
// by that key, so injection order — which depends on barrier boundaries —
// carries no semantic weight: two messages arriving at one LP at the same
// instant, or a message tying with a locally scheduled event there, fire
// in (scheduling time, scheduling LP, per-LP order) exactly as one Engine
// fires them. That is what makes an N-shard run reproduce the 1-shard
// Result.
func (p *Parallel) inject() {
	for ds, dst := range p.shards {
		for _, src := range p.shards {
			box := src.outbox[ds]
			for _, ev := range box {
				dst.q.push(ev)
			}
			clear(box) // release the buffered closures
			src.outbox[ds] = box[:0]
		}
	}
}
