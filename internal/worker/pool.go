package worker

import (
	"p3/internal/sched"
	"p3/internal/sim"
)

// Item is one unit of endpoint work: an arrived chunk (or ring segment) of
// an iteration. Src is the caller's — the originating worker or server, a
// collective's round — and Priority the chunk's wire priority.
type Item struct {
	Chunk    int32
	Iter     int32
	Src      int32
	Priority int32
}

// Pool serializes per-byte endpoint processing. It models MXNet's engine
// semantics: up to `threads` items process concurrently, but items for the
// same chunk (key) always serialize because they share an accumulator. The
// queue discipline is the caller's (a sched.Discipline resolved from the
// strategy's Sched name): fifo for baseline strategies, p3 priority ordering
// for the server- and worker-side producer/consumer loops of Section 4.2,
// or any other discipline.
//
// An item popped while its chunk is busy is deferred: refunded to the
// queue's credit window and kept on one list, in deferral order, until the
// chunk frees up. Deferrals are rare (a clean parameter-server run has
// none), so one short list per pool, scanned on each finish, costs less
// than a per-chunk table whose empty headers alone outweighed every
// deferral of a run.
type Pool struct {
	queue *sched.Queue[Item]
	// chunkBusy and cost are indexed by chunk id (dense).
	chunkBusy []bool
	cost      []sim.Time
	// deferred holds the items popped while their chunk was busy, oldest
	// first: a chunk's first entry is its oldest, so re-queueing it keeps
	// each chunk's deferrals in FIFO order.
	deferred []Item
	// idle holds the free processing threads. Each slot's completion
	// continuation is bound once at construction, so starting an item
	// allocates nothing; len(idle) == 0 means every thread is busy.
	idle []*poolSlot
	proc sim.Proc // the owning machine's timeline
	done func(Item)
}

// poolSlot is one processing thread: the item it is working on and its
// pre-bound completion event.
type poolSlot struct {
	it     Item
	finish func()
}

// Costs prices n chunks for a Pool: overhead plus bytes(c) at rate bytes
// per nanosecond (= GB/s). Pools of one kind share one table.
func Costs(n int, bytes func(c int32) int64, overhead sim.Time, rate float64) []sim.Time {
	cost := make([]sim.Time, n)
	for c := range cost {
		cost[c] = overhead + sim.Time(float64(bytes(int32(c)))/rate)
	}
	return cost
}

// NewPool builds a pool of `threads` threads on proc — the owning machine's
// scheduling handle; pool events belong to that LP — processing chunk c in
// cost[c] and ordered by queue, which must wrap a fresh discipline instance
// (pools never share scheduler state). done runs on the virtual clock when
// an item finishes processing.
func NewPool(proc sim.Proc, threads int, cost []sim.Time, queue *sched.Queue[Item], done func(Item)) *Pool {
	p := &Pool{
		queue:     queue,
		chunkBusy: make([]bool, len(cost)),
		cost:      cost,
		idle:      make([]*poolSlot, threads),
		proc:      proc,
		done:      done,
	}
	for i := range p.idle {
		s := new(poolSlot)
		s.finish = func() { p.finish(s) }
		p.idle[i] = s
	}
	return p
}

// Add enqueues an item and starts as many queued items as the thread,
// per-key and credit limits allow.
//
//p3:noescape
func (p *Pool) Add(it Item) {
	p.queue.Push(it)
	p.pump()
}

//p3:noescape
func (p *Pool) pump() {
	for len(p.idle) > 0 {
		it, ok := p.queue.PopReady()
		if !ok {
			return
		}
		if p.chunkBusy[it.Chunk] {
			// Deferred on the per-key serialization, not processing yet:
			// refund any credit until the chunk frees up and re-queues it.
			// Cancel, not Done — an adaptive window must not read this
			// refund as a completed transfer.
			p.queue.Cancel(it)
			p.deferred = append(p.deferred, it)
			continue
		}
		p.start(it)
	}
}

//p3:noescape
func (p *Pool) start(it Item) {
	p.chunkBusy[it.Chunk] = true
	s := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	s.it = it
	p.proc.After(p.cost[it.Chunk], s.finish)
}

// finish runs when slot s's item has been processed.
//
//p3:noescape
func (p *Pool) finish(s *poolSlot) {
	it := s.it
	p.idle = append(p.idle, s)
	p.chunkBusy[it.Chunk] = false
	p.queue.Done(it)
	for i, d := range p.deferred {
		if d.Chunk == it.Chunk {
			p.queue.Push(d)
			// Shift down instead of re-slicing from the front, so the
			// list's backing array is reused by every later deferral.
			p.deferred = p.deferred[:i+copy(p.deferred[i:], p.deferred[i+1:])]
			break
		}
	}
	p.done(it)
	p.pump()
}
