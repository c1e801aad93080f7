package sched

import "sort"

// Queue is a deterministic, non-thread-safe queue of T ordered by a
// Discipline. It is the building block behind every scheduling site: the
// discrete-event simulator uses it directly (single-threaded on the virtual
// clock), and transport.SendQueue wraps it with a mutex/condvar for the real
// concurrent transport.
//
// Internally the queue is per-flow: elements are bucketed into subqueues
// keyed by their Item.Dest, each subqueue ordered by the discipline, and the
// dispatcher (Pop/PopReady) selects among the flow heads — discipline order
// first, global insertion order on ties. For plain disciplines this is
// indistinguishable from one priority heap (the most urgent flow head IS the
// global minimum), so fifo, p3, rr, smallest and tictac dequeue bit-identically
// to a single queue. The structure pays off under an Admitter: when a flow's
// head is refused by its credit window, PopReady skips to the most urgent
// admissible head of another flow instead of blocking every destination
// behind one starved one (flow-aware head skipping).
//
// An element's place in the order is fixed when it is pushed: Push asks the
// discipline for the item's Key once, puts the global insertion count
// behind it, and stores the three words in the element's entry. Everything
// after that compares stored integers — no Discipline call, no view call —
// in two binary heaps written out for this one order rather than driven
// through a comparator. One per flow holds its entries. The other holds the
// non-empty flows, ordered by a copy of each flow's head key kept in the
// flow itself (a head compare reads two flow structs and nothing behind
// them); every flow records its own slot there (flow.idx), so re-ranking or
// evicting a flow costs O(log F) in the flow count F — never a linear scan.
// A push can only make a flow more urgent and a take only less, so the
// former sifts the flow up and the latter down. The admission walk visits
// heads in urgency order by moving refused ones off the heap, restoring them
// afterwards. A flow whose subqueue drains is evicted immediately and its
// storage recycled through a free list, so a long-running queue (the pstcp
// server's send queues live for the process lifetime) holds memory
// proportional to its current, not historical, flow set, and steady-state
// operation allocates nothing. A full flow first swaps in a roomier idle
// slab from the free list (reslab) and grows only when there is none; a
// new shell starts with room for SizeFlows entries (0: grow on demand).
// See doc.go for the per-operation complexity contract.
//
// The view function projects an element into the scheduler-visible Item;
// it must be pure (the queue may call it more than once per element).
type Queue[T any] struct {
	d    Discipline
	rank Ranker     // non-nil iff d ranks at enqueue
	disp Dispatcher // non-nil iff d tracks dispatches
	adm  Admitter   // non-nil iff d gates with a credit window
	view func(T) Item

	flows map[int32]*flow[T] // non-empty flows only, keyed by Item.Dest
	heads []*flow[T]         // the same flows as a min-heap by flow.head
	walk  []*flow[T]         // reusable admission-walk buffer (skipped prefix)
	free  []*flow[T]         // drained flow shells kept for reuse
	seq   uint64             // global insertion counter (cross-flow tie-break)
	depth int                // entries a new flow shell has room for (SizeFlows)
	n     int
}

// ordKey is an element's place in the queue's strict total order: the
// discipline's key, then the global insertion count. Sequence numbers are
// unique, so the order is total and both heaps and the dispatcher are
// deterministic regardless of internal layout.
type ordKey struct{ hi, lo, seq uint64 }

// before is the order itself: the one comparison both heaps, the
// preemption primitives and Less are built on.
//
//p3:noescape
func (a *ordKey) before(b *ordKey) bool {
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	if a.lo != b.lo {
		return a.lo < b.lo
	}
	return a.seq < b.seq
}

// keyOf returns the item's place in d's order with sequence number 0, below
// every queued element's. Push overwrites the sequence number; Preempts and
// Less compare the key as it is, which is what makes ties never preempt: an
// in-flight element was dispatched before anything now queued was compared
// with it, so a head with an equal discipline key is not before it.
//
//p3:noescape
func keyOf(d Discipline, it Item) ordKey {
	hi, lo := d.Key(it)
	return ordKey{hi: hi, lo: lo}
}

// entry is one queued element. Its size is what a queued element costs; see
// Item for the budget.
type entry[T any] struct {
	v  T
	it Item
	ordKey
}

// flow is one destination's subqueue — a min-heap of entries — plus what
// the head heap needs of it: head, a copy of ents[0]'s key (synced by Push
// and take, the only places the head changes), and idx, its slot in
// Queue.heads (-1 while it is out of the heap: on the walk buffer or the
// free list).
type flow[T any] struct {
	dest int32
	idx  int
	head ordKey
	ents []entry[T]
}

// push adds e to the flow's entry heap.
//
//p3:noescape
func (f *flow[T]) push(e entry[T]) {
	ents := append(f.ents, e)
	f.ents = ents
	i := len(ents) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&ents[p].ordKey) {
			break
		}
		ents[i] = ents[p]
		i = p
	}
	ents[i] = e
}

// pop removes and returns the flow's head entry. The flow must be non-empty.
//
//p3:noescape
func (f *flow[T]) pop() entry[T] {
	ents := f.ents
	top := ents[0]
	n := len(ents) - 1
	last := ents[n]
	ents[n] = entry[T]{} // clear the vacated slot: the slab must not pin dead values
	f.ents = ents[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && ents[r].before(&ents[c].ordKey) {
			c = r
		}
		if !ents[c].before(&last.ordKey) {
			break
		}
		ents[i] = ents[c]
		i = c
	}
	ents[i] = last
	return top
}

// NewQueue builds a queue ordered by d. d must be a fresh instance not
// shared with any other queue (stateful disciplines carry per-queue state).
func NewQueue[T any](d Discipline, view func(T) Item) *Queue[T] {
	q := &Queue[T]{d: d, view: view, flows: make(map[int32]*flow[T])}
	q.rank, _ = d.(Ranker)
	q.disp, _ = d.(Dispatcher)
	q.adm, _ = d.(Admitter)
	return q
}

// Discipline returns the queue's discipline.
func (q *Queue[T]) Discipline() Discipline { return q.d }

// Gated reports whether the discipline gates dispatch with a credit window
// (implements Admitter, possibly under wrappers). Gated queues need
// completion feedback (Done) from the consumer; netsim uses this to
// schedule its window-relaxed credit refunds — which deliver that feedback
// one lookahead after delivery, at any shard count — for gated egress
// disciplines only.
func (q *Queue[T]) Gated() bool { return q.adm != nil }

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// headUp sifts the flow in slot i toward the root after its head key
// decreased (or it was just appended).
//
//p3:noescape
func (q *Queue[T]) headUp(i int) {
	h := q.heads
	f := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !f.head.before(&h[p].head) {
			break
		}
		h[i] = h[p]
		h[i].idx = i
		i = p
	}
	h[i] = f
	f.idx = i
}

// headDown sifts the flow in slot i toward the leaves after its head key
// increased.
//
//p3:noescape
func (q *Queue[T]) headDown(i int) {
	h := q.heads
	f := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].head.before(&h[c].head) {
			c = r
		}
		if !h[c].head.before(&f.head) {
			break
		}
		h[i] = h[c]
		h[i].idx = i
		i = c
	}
	h[i] = f
	f.idx = i
}

// headPush adds f, whose head key is current, to the head heap.
//
//p3:noescape
func (q *Queue[T]) headPush(f *flow[T]) {
	q.heads = append(q.heads, f)
	q.headUp(len(q.heads) - 1)
}

// headRemove takes the flow in slot i out of the head heap.
//
//p3:noescape
func (q *Queue[T]) headRemove(i int) {
	h := q.heads
	n := len(h) - 1
	h[i].idx = -1
	last := h[n]
	h[n] = nil // clear the vacated slot: the slab must not pin evicted flows
	q.heads = h[:n]
	if i == n {
		return
	}
	h[i] = last
	last.idx = i
	q.headDown(i)
	if last.idx == i {
		q.headUp(i)
	}
}

// Push enqueues v into its flow's subqueue in O(log F) (plus O(log n_f) in
// the flow's own depth), allocating only when a slab must grow. It is the
// one place the discipline's order is evaluated for v.
//
//p3:noescape
func (q *Queue[T]) Push(v T) {
	it := q.view(v)
	if q.rank != nil {
		it = q.rank.Rank(it)
	}
	q.seq++
	e := entry[T]{v: v, it: it, ordKey: keyOf(q.d, it)}
	e.seq = q.seq
	f := q.flows[it.Dest]
	if f == nil {
		if k := len(q.free); k > 0 {
			f = q.free[k-1]
			q.free[k-1] = nil
			q.free = q.free[:k-1]
			f.dest = it.Dest
		} else {
			//p3:alloc-ok first flow per destination, sized once (SizeFlows); recycled via q.free thereafter
			f = &flow[T]{dest: it.Dest, ents: make([]entry[T], 0, q.depth)}
		}
		q.flows[it.Dest] = f
		f.push(e)
		f.head = e.ordKey
		q.headPush(f)
	} else {
		if len(f.ents) == cap(f.ents) {
			q.reslab(f)
		}
		f.push(e)
		if e.before(&f.head) { // v is the flow's new head
			f.head = e.ordKey
			q.headUp(f.idx)
		}
	}
	q.n++
}

// reslab runs before a full flow would grow its slab: it swaps in the
// largest idle slab on the free list with more room, copying f's entries
// over and handing f's cleared slab to the idle shell. A shell popped off
// the free list is whichever drained last, often a shallow one, while
// deeper slabs sit idle; the swap lets a deep flow reuse them instead of
// growing its own. The order is ordKey's total order, not the slab
// layout, so the swap cannot move dispatch. It allocates nothing.
//
//p3:noescape
func (q *Queue[T]) reslab(f *flow[T]) {
	var idle *flow[T]
	for _, g := range q.free {
		if cap(g.ents) > cap(f.ents) && (idle == nil || cap(g.ents) > cap(idle.ents)) {
			idle = g
		}
	}
	if idle == nil {
		return
	}
	ents := idle.ents[:copy(idle.ents[:cap(idle.ents)], f.ents)]
	clear(f.ents) // the slab must not pin dead values
	idle.ents, f.ents = f.ents[:0], ents
}

// SizeFlows gives every flow shell the queue creates from now on room for
// depth entries, so a caller that knows how deep its flows get (netsim's
// host egress, from the plan) pays for each slab once instead of growing
// it. It is a capacity, never a bound: a deeper flow grows as usual.
func (q *Queue[T]) SizeFlows(depth int) { q.depth = depth }

// take pops f's head, evicts f if that drained it, and runs the dispatch
// bookkeeping. f must currently be in the head heap.
//
//p3:noescape
func (q *Queue[T]) take(f *flow[T]) T {
	e := f.pop()
	q.n--
	if len(f.ents) == 0 {
		// Evict immediately: an empty flow must not linger in the map (that
		// leak grew without bound on long-running transport queues) nor in
		// the heap (it has no head key to order by). The shell is recycled
		// so a flow that reappears costs no allocation.
		q.headRemove(f.idx)
		delete(q.flows, f.dest)
		q.free = append(q.free, f)
	} else {
		f.head = f.ents[0].ordKey
		q.headDown(f.idx)
	}
	if q.adm != nil {
		q.adm.OnStart(e.it)
	}
	if q.disp != nil {
		q.disp.OnDispatch(e.it)
	}
	return e.v
}

// admitted is the admission walk behind PopReady, Preempts and PopReadyIf:
// it consults flow heads in urgency order and returns the first the
// discipline admits (any head, ungated), or nil once it reaches a head
// not before limit (nil: no limit) or runs out of heads. A refused head
// moves from the head heap to the walk buffer, exposing the next most
// urgent one at heads[0]; the skipped prefix goes back before the walk
// returns. Heap layout after restoration may differ, but dispatch order
// cannot: the order is ordKey's strict total order, not the layout.
//
//p3:noescape
func (q *Queue[T]) admitted(limit *ordKey) *flow[T] {
	var chosen *flow[T]
	for len(q.heads) > 0 {
		f := q.heads[0]
		if limit != nil && !f.head.before(limit) {
			break // heads are urgency-ordered: no candidate remains
		}
		if q.adm == nil || q.adm.Admit(f.ents[0].it) {
			chosen = f
			break
		}
		q.walk = append(q.walk, f)
		q.headRemove(0)
	}
	for i, f := range q.walk {
		q.headPush(f)
		q.walk[i] = nil
	}
	q.walk = q.walk[:0]
	return chosen
}

// Peek returns the most urgent element without removing it, ignoring any
// credit gate.
//
//p3:noescape
func (q *Queue[T]) Peek() (T, bool) {
	if len(q.heads) == 0 {
		var zero T
		return zero, false
	}
	return q.heads[0].ents[0].v, true
}

// Pop removes and returns the most urgent element, bypassing the Admit
// check of any credit gate (used when draining a closed queue). It still
// charges the element in flight (OnStart), so the caller's usual Done call
// stays balanced whether the element came from Pop or PopReady. The second
// result is false when the queue is empty.
//
//p3:noescape
func (q *Queue[T]) Pop() (T, bool) {
	if len(q.heads) == 0 {
		var zero T
		return zero, false
	}
	return q.take(q.heads[0]), true
}

// PopReady removes and returns the most urgent admissible element: flow
// heads are consulted in urgency order and the first one the discipline
// admits dispatches, so a credit-blocked flow never delays an admissible
// item bound for another destination. Disciplines without an Admitter
// always admit their global head, making PopReady identical to Pop. The
// second result is false when the queue is empty or every flow head is
// refused by the credit window. An admitted element is charged in-flight
// (OnStart); release it with Done once it completes.
//
//p3:noescape
func (q *Queue[T]) PopReady() (T, bool) {
	if q.adm == nil {
		return q.Pop()
	}
	if f := q.admitted(nil); f != nil {
		return q.take(f), true
	}
	var zero T
	return zero, false
}

// Preempts reports whether PopReady would dispatch an element strictly more
// urgent than hold (discipline order; ties never preempt, preserving the
// insertion-order guarantee within a priority class). It is the
// segment-boundary check of preemptive transmitters: hold is the in-flight
// element, and a true result means the caller should park it (Cancel +
// Push, progress retained) and re-dispatch. Like PopReady, it consults the
// discipline's Admit and so belongs inside the dispatch loop's cadence.
//
// hold is keyed through the raw view, without a Ranker pass: under a
// rank-at-enqueue discipline (rr) an in-flight element holds its dispatch
// position in virtual time and nothing queued ever outranks it, so Ranker
// disciplines never preempt — stride scheduling expresses fairness, not
// urgency, and there is no "more urgent" to preempt for.
//
//p3:noescape
func (q *Queue[T]) Preempts(hold T) bool {
	if q.n == 0 {
		return false
	}
	hk := keyOf(q.d, q.view(hold))
	return q.admitted(&hk) != nil
}

// PopReadyIf is PopReady with a caller veto: it selects the element
// PopReady would dispatch — the most urgent admissible flow head — but
// pops it only when keep approves it, leaving the queue untouched (and
// returning false) otherwise. It is the single-walk primitive behind
// conditional dispatch such as netsim's preemption rule, where the
// candidate must beat the in-flight transmission on more than urgency;
// skipping a vetoed candidate for a less urgent one would reorder the
// discipline, so the veto ends the walk.
//
// keep must not touch the queue (no Push/Pop/Done/Cancel). It should be a
// pure predicate of the candidate.
//
//p3:noescape
func (q *Queue[T]) PopReadyIf(keep func(T) bool) (T, bool) {
	if f := q.admitted(nil); f != nil && keep(f.ents[0].v) {
		return q.take(f), true
	}
	var zero T
	return zero, false
}

// Done releases v's in-flight charge (a no-op for disciplines without a
// credit window). Call it exactly once per successful PopReady.
//
//p3:noescape
func (q *Queue[T]) Done(v T) {
	if q.adm != nil {
		q.adm.OnDone(q.view(v))
	}
}

// Cancel releases v's in-flight charge without signalling a completion:
// use it when the caller backs out of work it popped (e.g. re-queueing an
// item deferred on a serialization constraint), so adaptive disciplines do
// not tune their windows on bytes that were never actually processed. The
// refund is routed by v's own Item view — v carries its destination, so a
// flow skipped at dispatch can never absorb another flow's refund. A no-op
// for disciplines without a credit window.
//
//p3:noescape
func (q *Queue[T]) Cancel(v T) {
	if q.adm != nil {
		q.adm.OnCancel(q.view(v))
	}
}

// SetProfile applies a (re)calibrated timing profile to the queue's
// discipline (ApplyProfile) and, when elements are queued, rebuilds the
// queue under the new order: a profiled discipline (tictac) derives its
// keys from the profile, so the keys stored at enqueue are stale — left
// alone, what is queued would sort by the old profile among arrivals keyed
// by the new one, an order that is neither. Queued elements are
// re-enqueued in their original insertion order — every one
// is re-keyed, Ranker disciplines re-rank them, and in-flight credit
// charges are untouched (they belong to popped elements). O(n log n);
// intended for the rare recalibration point, not a hot path. A no-op
// profile-wise for profile-blind disciplines, but the rebuild still runs so
// a Ranker wrapper over a profiled base (damped:tictac) re-ranks
// consistently.
func (q *Queue[T]) SetProfile(p *Profile) {
	ApplyProfile(q.d, p)
	if q.n == 0 {
		return
	}
	ents := make([]entry[T], 0, q.n)
	for i, f := range q.heads {
		ents = append(ents, f.ents...)
		clear(f.ents)
		f.ents = f.ents[:0]
		f.idx = -1
		delete(q.flows, f.dest)
		q.free = append(q.free, f) // drained shell, reusable
		q.heads[i] = nil
	}
	q.heads = q.heads[:0]
	q.n = 0
	sort.Slice(ents, func(i, j int) bool { return ents[i].seq < ents[j].seq })
	for _, e := range ents {
		q.Push(e.v)
	}
}

// Park tells the credit window that v — popped earlier and still
// unfinished — has been preempted and parked outside the queue, without
// feeding the discipline's adaptation. Whether the parked remainder stops
// counting against its flow's window is the discipline's choice
// (credit-adaptive releases it, credit keeps it charged); a no-op for
// disciplines without a credit window. Balance every Park with a Resume
// before the element's Done.
//
//p3:noescape
func (q *Queue[T]) Park(v T) {
	if q.adm != nil {
		q.adm.OnPark(q.view(v))
	}
}

// Resume tells the credit window that a parked element's transmission
// continues; the caller's eventual Done then balances as usual. A no-op
// for disciplines without a credit window, mirroring Park.
//
//p3:noescape
func (q *Queue[T]) Resume(v T) {
	if q.adm != nil {
		q.adm.OnResume(q.view(v))
	}
}
