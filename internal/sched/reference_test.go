package sched

import (
	"sort"

	"p3/internal/pq"
)

// specLess is the executable specification of every built-in discipline's
// order: the pairwise comparators the disciplines carried before they
// stated their order as an integer Key, kept verbatim. Neither it nor
// refQueue below touches Key, ord32/ord64 or sched.Less, so a key that
// misorders anything — a sign boundary, a clamped class, a lost tie-break —
// disagrees with it (TestDispatchMatchesLinearScanReference, FuzzByName).
func specLess(d Discipline, a, b Item) bool {
	switch t := d.(type) {
	case *FIFO:
		return false
	case *P3Priority:
		return a.Priority < b.Priority
	case *RoundRobinLayer:
		return a.rank < b.rank
	case *SmallestFirst:
		if a.Bytes != b.Bytes {
			return a.Bytes < b.Bytes
		}
		return a.Priority < b.Priority
	case *CreditGated:
		return a.Priority < b.Priority
	case *TicTac:
		if len(t.slack) == 0 {
			return a.Priority < b.Priority
		}
		sa, sb := t.Slack(a.Priority), t.Slack(b.Priority)
		if sa != sb {
			return sa < sb
		}
		return a.Priority < b.Priority
	case *AdaptiveCredit:
		return a.Priority < b.Priority
	case *Damped, *gatedDamped:
		return a.rank < b.rank
	}
	panic("specLess: no specification for discipline " + d.Name())
}

// refQueue retains the pre-PR-4 linear-scan dispatcher verbatim as the
// executable specification of dispatch order: flows are selected with an
// O(F) scan over every subqueue head (best) and the admission walk sorts
// all heads on every pop (heads), both by specLess. Queue must be
// bit-identical to this reference on every primitive — the property test in
// queue_property_test.go drives both through random interleavings. The
// reference also retains the old no-eviction behaviour (drained flows stay
// in the map forever), which dispatch order must not observe.
type refQueue[T any] struct {
	d    Discipline
	rank Ranker
	disp Dispatcher
	adm  Admitter
	view func(T) Item

	flows   map[int32]*refFlow[T]
	order   []*refFlow[T]
	scratch []*refFlow[T]
	seq     uint64
	n       int
}

type refFlow[T any] struct {
	key int32
	q   *pq.Queue[refEntry[T]]
}

type refEntry[T any] struct {
	v   T
	it  Item
	seq uint64
}

func newRefQueue[T any](d Discipline, view func(T) Item) *refQueue[T] {
	q := &refQueue[T]{d: d, view: view, flows: make(map[int32]*refFlow[T])}
	q.rank, _ = d.(Ranker)
	q.disp, _ = d.(Dispatcher)
	q.adm, _ = d.(Admitter)
	return q
}

func (q *refQueue[T]) Len() int { return q.n }

func (q *refQueue[T]) Push(v T) {
	it := q.view(v)
	if q.rank != nil {
		it = q.rank.Rank(it)
	}
	q.seq++
	f := q.flows[it.Dest]
	if f == nil {
		f = &refFlow[T]{key: it.Dest}
		f.q = pq.New(func(a, b refEntry[T]) bool { return specLess(q.d, a.it, b.it) })
		q.flows[it.Dest] = f
		q.order = append(q.order, f)
	}
	f.q.Push(refEntry[T]{v: v, it: it, seq: q.seq})
	q.n++
}

func (q *refQueue[T]) before(a, b refEntry[T]) bool {
	if specLess(q.d, a.it, b.it) {
		return true
	}
	if specLess(q.d, b.it, a.it) {
		return false
	}
	return a.seq < b.seq
}

// best: the O(F) linear scan over all flow heads.
func (q *refQueue[T]) best() *refFlow[T] {
	var bf *refFlow[T]
	var bh refEntry[T]
	for _, f := range q.order {
		h, ok := f.q.Peek()
		if !ok {
			continue
		}
		if bf == nil || q.before(h, bh) {
			bf, bh = f, h
		}
	}
	return bf
}

// heads: the O(F log F) full sort on every admission walk.
func (q *refQueue[T]) heads() []*refFlow[T] {
	hs := q.scratch[:0]
	for _, f := range q.order {
		if f.q.Len() > 0 {
			hs = append(hs, f)
		}
	}
	sort.Slice(hs, func(i, j int) bool {
		a, _ := hs[i].q.Peek()
		b, _ := hs[j].q.Peek()
		return q.before(a, b)
	})
	q.scratch = hs
	return hs
}

func (q *refQueue[T]) take(f *refFlow[T]) T {
	e := f.q.Pop()
	q.n--
	if q.adm != nil {
		q.adm.OnStart(e.it)
	}
	if q.disp != nil {
		q.disp.OnDispatch(e.it)
	}
	return e.v
}

func (q *refQueue[T]) Peek() (T, bool) {
	f := q.best()
	if f == nil {
		var zero T
		return zero, false
	}
	e, _ := f.q.Peek()
	return e.v, true
}

func (q *refQueue[T]) Pop() (T, bool) {
	f := q.best()
	if f == nil {
		var zero T
		return zero, false
	}
	return q.take(f), true
}

func (q *refQueue[T]) PopReady() (T, bool) {
	if q.adm == nil {
		return q.Pop()
	}
	for _, f := range q.heads() {
		e, _ := f.q.Peek()
		if !q.adm.Admit(e.it) {
			continue
		}
		return q.take(f), true
	}
	var zero T
	return zero, false
}

func (q *refQueue[T]) Preempts(hold T) bool {
	if q.n == 0 {
		return false
	}
	ht := q.view(hold)
	if q.adm == nil {
		f := q.best()
		e, _ := f.q.Peek()
		return specLess(q.d, e.it, ht)
	}
	for _, f := range q.heads() {
		e, _ := f.q.Peek()
		if !specLess(q.d, e.it, ht) {
			return false
		}
		if q.adm.Admit(e.it) {
			return true
		}
	}
	return false
}

func (q *refQueue[T]) PopReadyIf(keep func(T) bool) (T, bool) {
	var zero T
	if q.adm == nil {
		f := q.best()
		if f == nil {
			return zero, false
		}
		e, _ := f.q.Peek()
		if !keep(e.v) {
			return zero, false
		}
		return q.take(f), true
	}
	for _, f := range q.heads() {
		e, _ := f.q.Peek()
		if !q.adm.Admit(e.it) {
			continue
		}
		if !keep(e.v) {
			return zero, false
		}
		return q.take(f), true
	}
	return zero, false
}

func (q *refQueue[T]) Done(v T) {
	if q.adm != nil {
		q.adm.OnDone(q.view(v))
	}
}

func (q *refQueue[T]) Cancel(v T) {
	if q.adm != nil {
		q.adm.OnCancel(q.view(v))
	}
}

// SetProfile mirrors Queue.SetProfile's rule: apply the profile, then
// re-enqueue everything queued in its original insertion order (re-ranked,
// with fresh sequence numbers).
func (q *refQueue[T]) SetProfile(p *Profile) {
	ApplyProfile(q.d, p)
	var ents []refEntry[T]
	for _, f := range q.order {
		ents = append(ents, f.q.Drain()...)
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].seq < ents[j].seq })
	q.n = 0
	for _, e := range ents {
		q.Push(e.v)
	}
}
