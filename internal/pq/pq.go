// Package pq provides the deterministic general-purpose priority queue of
// the library: a min-queue ordered by a caller-supplied comparator.
//
// Lower Less() values are dequeued first, and Queue breaks ties in insertion
// order (FIFO), which both matches the behaviour of the paper's
// implementation (slices of the same layer are sent in order) and keeps the
// discrete-event simulation deterministic. The scheduling queues themselves
// no longer sit on it: sched.Queue orders by integer keys fixed at enqueue
// and carries its own heaps written for that one order. What still uses
// Queue is code that wants an arbitrary comparator and is not on a hot
// path — sched's linear-scan reference dispatcher (the executable
// specification sched.Queue is tested against) and the bench/ probe that
// prices a comparator-driven push/pop for comparison.
//
// Queue stores elements by value in one contiguous backing slice (a slab)
// and sifts with monomorphic code rather than container/heap, whose
// interface methods box every pushed element into an `any` — one heap
// allocation per Push. Steady-state Push/Pop cycles here allocate nothing
// once the slab has grown to the working-set size, and popped slots are
// cleared so the slab never pins dead elements (closures, frames) for the
// garbage collector.
package pq

// Queue is a min-queue over T ordered by the less function supplied at
// construction, with FIFO tie-breaking. The zero value is not usable; call
// New.
type Queue[T any] struct {
	items []item[T]
	less  func(a, b T) bool
	seq   uint64
}

type item[T any] struct {
	value T
	seq   uint64
}

// New returns an empty queue ordered by less (true means a dequeues before b).
func New[T any](less func(a, b T) bool) *Queue[T] {
	return &Queue[T]{less: less}
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.items) }

// before is the heap order: less first, insertion order on ties.
//
//p3:noescape
func (q *Queue[T]) before(a, b item[T]) bool {
	if q.less(a.value, b.value) {
		return true
	}
	if q.less(b.value, a.value) {
		return false
	}
	return a.seq < b.seq
}

// Push adds v to the queue in O(log n), allocating only when the backing
// slab must grow.
//
//p3:noescape
func (q *Queue[T]) Push(v T) {
	q.seq++
	q.items = append(q.items, item[T]{value: v, seq: q.seq})
	q.siftUp(len(q.items) - 1)
}

// Pop removes and returns the minimum element. It panics on an empty queue.
//
//p3:noescape
func (q *Queue[T]) Pop() T {
	top := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items[n] = item[T]{} // clear the vacated slot: the slab must not pin dead values
	q.items = q.items[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return top.value
}

// Peek returns the minimum element without removing it. The second result is
// false if the queue is empty.
//
//p3:noescape
func (q *Queue[T]) Peek() (T, bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	return q.items[0].value, true
}

// Drain removes all elements in priority order and returns them.
func (q *Queue[T]) Drain() []T {
	out := make([]T, 0, q.Len())
	for q.Len() > 0 {
		out = append(out, q.Pop())
	}
	return out
}

//p3:noescape
func (q *Queue[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(q.items[i], q.items[parent]) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

//p3:noescape
func (q *Queue[T]) siftDown(i int) {
	n := len(q.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && q.before(q.items[right], q.items[left]) {
			min = right
		}
		if !q.before(q.items[min], q.items[i]) {
			return
		}
		q.items[i], q.items[min] = q.items[min], q.items[i]
		i = min
	}
}
