package sim

import "math"

// event is one scheduled callback. Beyond the firing time, it carries the
// canonical tie key: the virtual instant it was scheduled at, and the
// packed (scheduling LP, per-LP schedule order) word. The key comes from
// the simulation alone, which is what lets same-instant ties resolve
// identically on any shard count (see the package comment).
//
// The struct is kept at 32 bytes deliberately: the heap moves events by
// value, and one more word pushes the copies off the compiler's
// register-move path and triples the per-event cost — which is why lp and
// seq share a word instead of having fields of their own.
//
//p3:sizebudget 32
type event struct {
	at    Time
	sched Time   // virtual time of the scheduling call
	ord   uint64 // ordKey(lp, seq): scheduling LP and per-LP schedule order
	fn    func()
}

// ordKey packs the last two canonical tie components into one word:
// scheduling LP plus one in the high 16 bits — zero marks raw Engine
// scheduling, which therefore sorts before any tagged LP scheduling at the
// same instant — and the per-LP schedule order in the low 48. The packing
// compares exactly like (lp, seq) lexicographically, and its limits
// (65534 LPs, 2^48 events scheduled per LP) sit orders of magnitude above
// any simulation this repository can hold in memory; NewParallel rejects
// LP counts beyond the field width.
func ordKey(lp int32, seq uint64) uint64 { return uint64(lp+1)<<48 | seq }

// before reports whether a fires before b: the canonical key (at, sched,
// ord), a strict total order over the events of one run.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	return a.ord < b.ord
}

// queue is the pending-event set of an Engine, and so of each shard of a
// Parallel run. It fires events in canonical key order, like the binary
// heap it is built on, but keeps same-instant events apart from that heap.
//
// Symmetric machines finish identical work together, so most events of a
// run fire at the same virtual instant as the event before them: 95 % on
// ring16, 94 % per shard on rack256_hier, 31 % on faults64_credit, 23 % on
// ps64_flat and 10 % on paper4 (the bench workloads). The heap stays
// shallow (32–127 pending on ring16); what it pays for ties is a sift per
// push and per pop whose every level compares at, then sched, then ord, on
// keys whose first word is equal. The queue therefore sends an instant's
// first event into the heap, and later events for a recently pushed
// instant into that instant's batch: one append each. When the instant
// becomes the earliest, its batch is sorted once and fires from a slice,
// merged with whatever the heap holds for the same instant (usually its
// first event). Insertion sort suits a batch: pushes arrive in
// nondecreasing sched, so it is nearly sorted already. The firing order is
// the canonical key order by construction, whichever structure an event
// sat in.
//
// The heap is a slab-backed binary min-heap: all its events live by value
// in one contiguous slice reused across the run, and the sift code is
// monomorphic — container/heap, which this replaced, boxed every scheduled
// event into an `any` and so cost one heap allocation per event on top of
// the caller's closure. The sifts sit in push and popUntil themselves, so a
// push for a fresh instant and a pop from the heap cost one call each, as
// on a bare heap; batch storage is allocated when the first batch opens.
// Every slot an event leaves is cleared, so no slab pins a fired event's
// closure (and the object graph it captures) for the garbage collector.
type queue struct {
	heap []event
	last Time     // instant of the latest push, until b exists
	gap  Time     // maxTime minus the earliest instant held outside the heap; 0: none
	b    *batches // nil until an instant is pushed twice in a row
}

const maxBatches = 8 // open batches, and remembered instants

// batches holds the events the queue keeps apart from its heap.
type batches struct {
	// cur is the instant being fired, sorted; cur[next:] are pending. While
	// any are, every other pending event at that instant is in the heap.
	cur  []event
	next int

	n   int // open batches: at[:n] and evs[:n]
	at  [maxBatches]Time
	evs [maxBatches][]event

	// recent remembers recently pushed instants, direct-mapped by slotOf. A
	// push at a remembered instant appends to its batch, opening one if it
	// has none. An instant has at most one batch.
	recent [maxBatches]recent
}

type recent struct {
	at    Time
	batch int // 1 + index of the instant's batch in at/evs; 0: none
}

// slotOf maps an instant to its entry in batches.recent.
func slotOf(t Time) int { return int(uint64(t) * 0x9e3779b97f4a7c15 >> 61) }

// maxTime is the latest representable instant: popUntil(maxTime) pops any
// pending event.
const maxTime = Time(math.MaxInt64)

// tie returns the earliest instant held outside the heap, maxTime if none.
func (q *queue) tie() Time { return maxTime - q.gap }

func (q *queue) setTie(t Time) { q.gap = maxTime - t }

// push adds ev to the queue: to a batch or the current instant if hold
// takes it, else to the heap, sifting it up.
//
//p3:noescape
func (q *queue) push(ev event) {
	if b := q.b; b != nil {
		// An instant not remembered goes to the heap, and is remembered.
		// (If it is the firing one, popHeld merges it from there.)
		if r := &b.recent[slotOf(ev.at)]; r.at != ev.at {
			r.at, r.batch = ev.at, 0
		} else if q.hold(ev) {
			return
		}
	} else if ev.at != q.last {
		q.last = ev.at
	} else if q.hold(ev) {
		return
	}
	q.heap = append(q.heap, ev)
	s := q.heap
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// hold stores ev outside the heap if it ties with a recently pushed
// instant or with the firing one, and reports whether it did. push calls it
// only for a push that may tie: a repeat of the latest instant before
// batch storage exists, a remembered instant after.
//
//p3:noescape
func (q *queue) hold(ev event) bool {
	b := q.b
	if b == nil {
		b = new(batches) //p3:alloc-ok once per queue, at its first tie
		b.recent[slotOf(q.last)].at = q.last
		q.b = b
	}
	// A push into the firing instant (a zero-delay At) joins it, in key
	// order among the pending part.
	if ev.at == ev.sched && b.next < len(b.cur) && ev.at == b.cur[b.next].at {
		cur := append(b.cur, ev)
		i := len(cur) - 1
		for i > b.next && before(&ev, &cur[i-1]) {
			cur[i] = cur[i-1]
			i--
		}
		cur[i] = ev
		b.cur = cur
		return true
	}
	r := &b.recent[slotOf(ev.at)] // r.at == ev.at: push checked, or b is new
	if r.batch == 0 {
		if !b.open(r, ev.at) {
			return false
		}
		if ev.at < q.tie() {
			q.setTie(ev.at)
		}
	}
	i := r.batch - 1
	if len(b.evs[i]) == cap(b.evs[i]) {
		b.regrow(i)
	}
	b.evs[i] = append(b.evs[i], ev)
	return true
}

// open points r at the batch for instant t, opening one if t has none (r
// may have been overwritten since t's batch opened). It fails when every
// batch is in use.
func (b *batches) open(r *recent, t Time) bool {
	for i, at := range b.at[:b.n] {
		if at == t {
			r.batch = i + 1
			return true
		}
	}
	if b.n == maxBatches {
		return false
	}
	b.at[b.n] = t
	b.n++
	r.batch = b.n
	return true
}

// regrow moves full batch i onto the largest spare slab, if that has more
// room: the spent current instant's or a closed batch's. Slabs pass between
// batches and the current instant, so without this a large instant could
// regrow a small slab while a larger one sits idle.
func (b *batches) regrow(i int) {
	var spare *[]event
	if b.next == len(b.cur) {
		spare = &b.cur
	}
	for j := b.n; j < maxBatches; j++ {
		if spare == nil || cap(b.evs[j]) > cap(*spare) {
			spare = &b.evs[j]
		}
	}
	s := b.evs[i]
	if spare == nil || cap(*spare) <= len(s) {
		return
	}
	big := append((*spare)[:0], s...)
	clear(s)
	b.evs[i], *spare = big, s[:0]
	if spare == &b.cur {
		b.next = 0
	}
}

// popUntil removes and returns the earliest event if it fires at or before
// deadline.
//
//p3:noescape
func (q *queue) popUntil(deadline Time) (event, bool) {
	if len(q.heap) == 0 || q.heap[0].at >= q.tie() {
		if ev, ok, done := q.popHeld(deadline); done {
			return ev, ok
		}
	}
	s := q.heap
	if s[0].at > deadline {
		return event{}, false
	}
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	q.heap = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && before(&s[right], &s[left]) {
			min = right
		}
		if !before(&s[min], &s[i]) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top, true
}

// popHeld is popUntil when the heap's top is not alone at the earliest
// instant: it pops from the current instant, making the earliest batch
// current first if need be. It reports done = false when the heap's top is
// next after all (nothing is held, or the top precedes the current
// instant's next event).
//
//p3:noescape
func (q *queue) popHeld(deadline Time) (ev event, ok, done bool) {
	if q.gap == 0 {
		return event{}, false, len(q.heap) == 0
	}
	t, b := q.tie(), q.b
	if t > deadline {
		return event{}, false, true
	}
	if b.next == len(b.cur) {
		b.gather(t)
	}
	if len(q.heap) > 0 && q.heap[0].at == t && before(&q.heap[0], &b.cur[b.next]) {
		return event{}, false, false
	}
	ev = b.cur[b.next]
	b.cur[b.next] = event{}
	b.next++
	if b.next == len(b.cur) {
		q.gap = 0
		for _, at := range b.at[:b.n] {
			if at < q.tie() {
				q.setTie(at)
			}
		}
	}
	return ev, true, true
}

// gather makes instant t, the earliest held outside the heap, the current
// one: its batch, sorted. The batch's slab becomes cur and the spent cur
// slab takes its place, so no event is copied. The instant's heap events
// stay in the heap; popHeld merges them.
//
//p3:noescape
func (b *batches) gather(t Time) {
	i := 0
	for b.at[i] != t {
		i++
	}
	cur := b.evs[i]
	b.evs[i] = b.cur[:0]
	b.close(i)
	for i := 1; i < len(cur); i++ {
		if !before(&cur[i], &cur[i-1]) {
			continue
		}
		ev, j := cur[i], i
		for ; j > 0 && before(&ev, &cur[j-1]); j-- {
			cur[j] = cur[j-1]
		}
		cur[j] = ev
	}
	b.cur, b.next = cur, 0
}

// close removes batch i, whose slab is empty, keeping the open batches
// dense and the recent entries pointing at them.
func (b *batches) close(i int) {
	if r := &b.recent[slotOf(b.at[i])]; r.batch == i+1 {
		r.batch = 0
	}
	b.n--
	if i == b.n {
		return
	}
	b.at[i] = b.at[b.n]
	b.evs[i], b.evs[b.n] = b.evs[b.n], b.evs[i]
	if r := &b.recent[slotOf(b.at[i])]; r.batch == b.n+1 {
		r.batch = i + 1
	}
}

// earliest returns the instant of the earliest pending event.
func (q *queue) earliest() (Time, bool) {
	t := q.tie()
	if len(q.heap) > 0 && q.heap[0].at < t {
		t = q.heap[0].at
	}
	return t, len(q.heap) > 0 || q.gap != 0
}

// len reports the number of pending events.
func (q *queue) len() int {
	n := len(q.heap)
	if b := q.b; b != nil {
		n += len(b.cur) - b.next
		for _, evs := range b.evs[:b.n] {
			n += len(evs)
		}
	}
	return n
}
