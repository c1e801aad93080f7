package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Proc is the scheduling handle of one logical process: a local clock and
// the ability to schedule events on it. *Engine satisfies Proc, so
// single-engine code and LP-aware code share one vocabulary.
type Proc interface {
	Now() Time
	At(t Time, fn func())
	After(d Time, fn func())
}

// Exec abstracts the execution engine behind logical processes. Single is
// the single-queue engine; Parallel shards LPs over goroutines under
// conservative lookahead (see the package comment for the contract).
type Exec interface {
	// Proc returns the scheduling handle of LP lp. Handles carry the LP
	// identity for the canonical tie key; callers should cache them.
	Proc(lp int) Proc
	// Cross schedules fn on dst's timeline at absolute time at, from an
	// event currently executing on src's timeline. On a Parallel exec, at
	// must be at least src's clock plus the lookahead.
	Cross(src, dst int, at Time, fn func())
	// Shards reports the parallelism: 1 for Single. Models use it to pick
	// per-LP over shared bookkeeping (netsim pools flight records per LP
	// above one shard).
	Shards() int
	Run() Time
	Stop()
	Processed() uint64
}

// Single adapts one Engine to the Exec interface: every LP shares the
// engine's queue and clock, Proc(lp) tags scheduled events with lp's
// canonical key, and Cross tags with the sending LP's — so same-instant
// ties fire in exactly the order a Parallel run computes (see the package
// comment). Events scheduled directly on the Engine stay untagged and
// fire in call order.
type Single struct{ Eng *Engine }

// singleProc is Single's per-LP scheduling handle: Engine scheduling
// stamped with the LP's canonical key.
type singleProc struct {
	eng *Engine
	lp  int32
}

func (p singleProc) Now() Time               { return p.eng.now }
func (p singleProc) At(t Time, fn func())    { p.eng.atFrom(p.lp, t, fn) }
func (p singleProc) After(d Time, fn func()) { p.eng.atFrom(p.lp, p.eng.now+d, fn) }

func (s Single) Proc(lp int) Proc { return singleProc{eng: s.Eng, lp: int32(lp)} }

func (s Single) Cross(src, _ int, at Time, fn func()) { s.Eng.atFrom(int32(src), at, fn) }

func (s Single) Shards() int       { return 1 }
func (s Single) Run() Time         { return s.Eng.Run() }
func (s Single) Stop()             { s.Eng.Stop() }
func (s Single) Processed() uint64 { return s.Eng.Processed() }

// xmsg is one buffered cross-shard message awaiting barrier injection. It
// carries the canonical key stamped at the send — the sender's virtual
// clock, the sending LP, and the per-LP schedule order — so after
// injection it sorts against the destination's local events exactly as it
// would have on a single queue.
type xmsg struct {
	at    Time
	sched Time
	ord   uint64 // ordKey(src, seq), stamped at the send
	fn    func()
}

// pshard is one shard: an event queue, a local clock, the schedule counters
// of the LPs it owns, and per-destination outboxes for cross-shard sends.
// Every event writes the queue, now and nRun, and every scheduling call an
// lpSeq entry, so no two shards may share a cache line: shards are
// allocated individually, each padded to 128 bytes, a size class whose
// objects are 128-byte aligned (the sim.Engine layout, for the same
// reason). Before the padding a shard took 72 bytes, in the 80-byte class
// that NewParallel filled back to back, so one shard's outbox header
// shared a line with the queue its neighbour writes on every event. The
// budget keeps it at 128: one more word would move it to the 144-byte
// class, whose objects straddle lines.
//
//p3:sizebudget 128
type pshard struct {
	q      queue
	now    Time
	nRun   uint64
	lpSeq  []uint64  // schedule counters of this shard's LPs, indexed by shardProc.idx
	outbox [][]xmsg  // indexed by destination shard; owned by this shard's goroutine during a window
	work   chan Time // window horizons from the coordinator
	_      [8]byte
}

func (s *pshard) runWindow(horizon Time, stopped *atomic.Bool) {
	// Strictly before the horizon: an event at the horizon itself may need
	// to be ordered against cross messages injected at this window's
	// barrier, so it belongs to a later window.
	for !stopped.Load() {
		ev, ok := s.q.popUntil(horizon - 1)
		if !ok {
			break
		}
		s.now = ev.at
		s.nRun++
		ev.fn()
	}
}

// active reports whether the shard has an event before horizon.
func (s *pshard) active(horizon Time) bool {
	t, ok := s.q.earliest()
	return ok && t < horizon
}

// shardProc is the per-LP scheduling handle of a Parallel executor. Local
// scheduling stamps the canonical key from the owning shard's clock and
// the LP's schedule counter — the same key a Single run stamps, which is
// what keeps same-instant ties engine-independent.
type shardProc struct {
	s   *pshard
	lp  int32
	idx int32 // the LP's entry in s.lpSeq
}

// stamp advances the LP's schedule counter and returns its canonical ord.
func (p shardProc) stamp() uint64 {
	p.s.lpSeq[p.idx]++
	return ordKey(p.lp, p.s.lpSeq[p.idx])
}

func (p shardProc) Now() Time { return p.s.now }

func (p shardProc) At(t Time, fn func()) {
	if t < p.s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, p.s.now))
	}
	p.s.q.push(event{at: t, sched: p.s.now, ord: p.stamp(), fn: fn})
}

func (p shardProc) After(d Time, fn func()) { p.At(p.s.now+d, fn) }

// Parallel is a conservative-lookahead parallel discrete-event executor:
// LPs are partitioned over shards, each shard runs its events on its own
// goroutine within barrier-synchronous windows of width lookahead, and
// cross-shard sends are buffered and injected at the barrier carrying the
// canonical key stamped at the send. See the package comment for the
// determinism contract.
type Parallel struct {
	shards  []*pshard
	procs   []shardProc // per LP
	lpShard []int32     // LP -> shard
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
		procs:   make([]shardProc, len(lpShard)),
		lpShard: make([]int32, len(lpShard)),
		look:    lookahead,
	}
	owned := make([]int, shards)
	for lp, s := range lpShard {
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("sim: LP %d assigned to shard %d of %d", lp, s, shards)
		}
		owned[s]++
	}
	for i := range p.shards {
		// Counters in whole cache lines, so no two shards' share one.
		p.shards[i] = &pshard{lpSeq: make([]uint64, 0, (owned[i]+7)&^7), outbox: make([][]xmsg, shards)}
	}
	for lp, s := range lpShard {
		p.lpShard[lp] = int32(s)
		sh := p.shards[s]
		p.procs[lp] = shardProc{s: sh, lp: int32(lp), idx: int32(len(sh.lpSeq))}
		sh.lpSeq = append(sh.lpSeq, 0)
	}
	return p, nil
}

// Proc returns the scheduling handle of LP lp.
func (p *Parallel) Proc(lp int) Proc { return p.procs[lp] }

// Shards reports the shard count.
func (p *Parallel) Shards() int { return len(p.shards) }

// Cross buffers fn for injection into dst's shard at time at, stamped with
// the canonical key of the sending LP. It must be called from an event
// executing on src's shard (that shard's outbox row and src's schedule
// counter are written without synchronization) and at must respect the
// lookahead.
func (p *Parallel) Cross(src, dst int, at Time, fn func()) {
	sp := p.procs[src]
	ss := sp.s
	if at < ss.now+p.look {
		panic(fmt.Sprintf("sim: cross-shard send at %v from now %v violates lookahead %v", at, ss.now, p.look))
	}
	ds := p.lpShard[dst]
	ss.outbox[ds] = append(ss.outbox[ds], xmsg{at: at, sched: ss.now, ord: sp.stamp(), fn: fn})
}

// Stop makes Run return once every shard finishes its current event. Which
// pending events have fired when a Stop lands mid-window depends on the
// goroutine interleaving — Stop is a shutdown hatch, not a measurement
// point.
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
				s.runWindow(horizon, &p.stopped)
				p.windowW.Done()
			}
		}(s)
	}

	const inf = Time(math.MaxInt64)
	for !p.stopped.Load() {
		tmin := inf
		for _, s := range p.shards {
			if t, ok := s.q.earliest(); ok && t < tmin {
				tmin = t
			}
		}
		if tmin == inf {
			break
		}
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
			only.runWindow(horizon, &p.stopped)
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
// in (scheduling time, scheduling LP, per-LP order) exactly as a Single
// run fires them. That is what makes an N-shard run reproduce the 1-shard
// Result.
func (p *Parallel) inject() {
	for ds, dst := range p.shards {
		for _, src := range p.shards {
			box := src.outbox[ds]
			for i := range box {
				dst.q.push(event{at: box[i].at, sched: box[i].sched, ord: box[i].ord, fn: box[i].fn})
			}
			clear(box) // release the buffered closures
			src.outbox[ds] = box[:0]
		}
	}
}
