package netsim

import "p3/internal/sim"

// flight is the one record an in-flight message owns from Send (or
// AggSend/AggFanout) until its delivery — or, under a gated egress
// discipline, its credit refund — completes. It carries the message, the
// resumable-egress progress, the service time of the hop in progress, the
// switch port it is queued on or headed for, and the continuation of its
// pending event. Records are pooled per shard (see the package comment's
// "Message records" section), so steady state schedules every hop without
// allocating.
//
// A cell keeps tens of thousands of records live at its peak, and every
// one is made afresh per run, so the record's size class is what a run
// pays per record: 96 bytes (plus the 24-byte fire closure) is a size
// class of its own. The wire size is derived (msg.Bytes plus the stage's
// framing), the serialization interval is read back from the clock at its
// end (segmentDone), and the port is an index that packs beside pri. At
// 128 bytes, with those three as fields, a rack256_hier pass (about 110
// thousand records) allocated 36.6 MB against 33.1 at 96 (seed 1,
// runtime.MemStats.TotalAlloc).
//
//p3:sizebudget 96
type flight struct {
	msg Message
	// pri is the urgency class every scheduler view reads (item). acquire
	// sets it to msg.Priority. At host egress it is raised to the
	// displacing class each time the transmission is parked or passed over
	// (priority inheritance), and reset to msg.Priority once the last
	// segment is sent, so a switch port queues the message by its own
	// class. The inherited class is what the resume rule compares against,
	// so a parked tail yields only to traffic strictly more urgent than
	// what last displaced it — without inheritance it would defer behind
	// every future more-urgent arrival (backward passes generate ever more
	// urgent classes), and under a comm-bound backlog that starves exactly
	// the late-layer bulk tails whose stalls already bind the iteration,
	// inverting the "preemption as upper bound" claim this models.
	pri  int32
	port int32    // switch port the record is queued on or headed for: an index into Network.ports
	sent int64    // wire bytes already served at the current stage: nonzero only mid-egress, between segments
	dur  sim.Time // service time of the segment in progress (serve): a stage's whole hop when unsegmented

	// fire is bound once, when the record is first created, and is the only
	// func() a hop ever hands the engine; then — a method expression, so
	// setting it allocates nothing — names what fire runs next.
	then func(*Network, *flight)
	fire func()

	next *flight // intrusive link: a flightQ or a shard's free list
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

// freeList is one shard's released records. Every acquire and release
// writes head, so each shard's list is padded to 128 bytes — two cache
// lines of its own, as sim pads each shard's engine — and shards never
// false-share one. made counts the records the list's pool misses have
// allocated (cold path; see newFlight).
type freeList struct {
	head *flight
	made int
	_    [112]byte
}

// pool is the free list an event running on lp's timeline may touch: the
// list of lp's shard. A shard's LPs all run on one goroutine, so its list
// needs no lock, and a record released on any of them — an aggregator, a
// port, a destination NIC — serves the shard's very next send. On the
// single engine every LP is shard 0: one list, where the record freed last
// (still in cache) serves the next send wherever it starts.
func (nw *Network) pool(lp int) *freeList {
	return &nw.free[nw.shard[lp]]
}

// acquire takes a record for m; it must run on lp's timeline.
//
//p3:noescape
func (nw *Network) acquire(lp int, m Message) *flight {
	l := nw.pool(lp)
	f := l.head
	if f == nil {
		f = nw.newFlight(l)
	} else {
		l.head = f.next
		f.next = nil
	}
	f.msg, f.pri = m, m.Priority
	return f
}

// newFlight is the pool miss: the only place a record, or a continuation,
// is ever allocated, counted on the list l that will recycle it. Kept out
// of line so the compiler charges the two allocations here and not to
// every inlined acquire.
//
//p3:noescape
//go:noinline
func (nw *Network) newFlight(l *freeList) *flight {
	l.made++
	f := new(flight)                  //p3:alloc-ok pool miss; recycled through nw.free thereafter
	f.fire = func() { f.then(nw, f) } //p3:alloc-ok bound once per record, reused by every hop
	return f
}

// release returns f to the free list of lp's shard; lp is the LP whose
// event is running.
//
//p3:noescape
func (nw *Network) release(lp int, f *flight) {
	l := nw.pool(lp)
	f.next = l.head
	l.head = f
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
