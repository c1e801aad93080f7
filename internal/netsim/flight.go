package netsim

import "p3/internal/sim"

// flight is the one record an in-flight message owns from Send (or
// AggSend/AggFanout) until its delivery — or, under a gated egress
// discipline, its credit refund — completes. It carries the message, the
// resumable-egress progress, the serialization interval of the hop in
// progress, the switch port it is queued on or headed for, and the
// continuation of its pending event. Records are pooled per LP (see the
// package comment's "Message records" section), so steady state schedules
// every hop without allocating.
type flight struct {
	msg Message
	// pri is the effective urgency class at host egress: it starts at
	// msg.Priority and is raised to the displacing class each time the
	// transmission is parked or passed over (priority inheritance). The
	// inherited class is what the resume rule compares against, so a parked
	// tail yields only to traffic strictly more urgent than what last
	// displaced it — without inheritance it would defer behind every future
	// more-urgent arrival (backward passes generate ever more urgent
	// classes), and under a comm-bound backlog that starves exactly the
	// late-layer bulk tails whose stalls already bind the iteration,
	// inverting the "preemption as upper bound" claim this models.
	pri  int32
	wire int64 // total egress wire bytes: payload + header
	sent int64 // wire bytes already serialized at egress

	start sim.Time // start of the egress segment in progress
	dur   sim.Time // service time of the segment or stage hop in progress
	port  *port    // switch port the record is queued on or headed for

	// fire is bound once, when the record is first created, and is the only
	// func() a hop ever hands the engine; then — a method expression, so
	// setting it allocates nothing — names what fire runs next.
	then func(*Network, *flight)
	fire func()

	next *flight // intrusive link: a flightQ or an LP's free list
}

// flightQ is an intrusive FIFO of records: the arrival-order queue of a
// stage without a port discipline (every ingress and reduce engine, and a
// blind switch port).
type flightQ struct{ head, tail *flight }

func (q *flightQ) push(f *flight) {
	if q.tail == nil {
		q.head = f
	} else {
		q.tail.next = f
	}
	q.tail = f
}

// pop removes the oldest record, or returns nil when the queue is empty.
func (q *flightQ) pop() *flight {
	f := q.head
	if f == nil {
		return nil
	}
	if q.head = f.next; q.head == nil {
		q.tail = nil
	}
	f.next = nil
	return f
}

// pool is the free list an event running on lp's timeline may touch: lp's
// own under the sharded engine — LP-owned lists need no lock, and a record
// changes owner only with the Cross hand-off that carries it — and one
// list shared by every LP on the single-threaded engine, where the record
// freed last (still in cache) serves the very next send wherever it starts.
func (nw *Network) pool(lp int) **flight {
	if !nw.sharded {
		lp = 0
	}
	return &nw.free[lp]
}

// acquire takes a record for m; it must run on lp's timeline.
//
//p3:noescape
func (nw *Network) acquire(lp int, m Message) *flight {
	free := nw.pool(lp)
	f := *free
	if f == nil {
		f = nw.newFlight()
	} else {
		*free = f.next
		f.next = nil
	}
	f.msg = m
	return f
}

// newFlight is the pool miss: the only place a record, or a continuation,
// is ever allocated. Kept out of line so the compiler charges the two
// allocations here and not to every inlined acquire.
//
//p3:noescape
//go:noinline
func (nw *Network) newFlight() *flight {
	f := new(flight)                  //p3:alloc-ok pool miss; recycled through nw.free thereafter
	f.fire = func() { f.then(nw, f) } //p3:alloc-ok bound once per record, reused by every hop
	return f
}

// release returns f to the free list of lp, the LP whose event is running.
//
//p3:noescape
func (nw *Network) release(lp int, f *flight) {
	free := nw.pool(lp)
	f.next = *free
	*free = f
}

// after schedules then(nw, f) on lp's own timeline d from now.
//
//p3:noescape
func (nw *Network) after(lp int, d sim.Time, f *flight, then func(*Network, *flight)) {
	f.then = then
	nw.procs[lp].After(d, f.fire)
}

// xfer carries one hop handoff from LP src to LP dst, running then(nw, f)
// on dst's timeline at the absolute time at, through the engine's Cross
// path. Cross stamps the canonical tie key (virtual send time, source LP,
// per-source send order) on every Exec, so a handoff colliding with
// another arrival — or with a local timer — at one (LP, instant) fires in
// the same order on any shard count. Every hop goes through here — even
// same-shard and same-machine pairs — precisely to keep that tie order
// engine-independent. Ownership of f moves to dst with the call.
//
//p3:noescape
func (nw *Network) xfer(src, dst int, at sim.Time, f *flight, then func(*Network, *flight)) {
	f.then = then
	nw.exec.Cross(src, dst, at, f.fire)
}
