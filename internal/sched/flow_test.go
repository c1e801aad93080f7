package sched

import (
	"math/rand/v2"
	"testing"
)

// flowItem builds a view function over parallel priority/bytes/dest slices.
func flowView(pri []int32, bytes []int64, dest []int32) func(int) Item {
	return func(i int) Item {
		it := Item{Priority: pri[i]}
		if bytes != nil {
			it.Bytes = bytes[i]
		}
		if dest != nil {
			it.Dest = dest[i]
		}
		return it
	}
}

// TestFlowAwareHeadSkipping is the dispatch contract of the per-flow queue:
// when the most urgent flow head is refused by its credit window, PopReady
// dispatches the most urgent admissible head of another flow instead of
// wedging every destination behind the starved one.
func TestFlowAwareHeadSkipping(t *testing.T) {
	a := NewAdaptiveCredit(1000)
	pri := []int32{0, 5, 9}
	bytes := []int64{900, 900, 100}
	dest := []int32{1, 1, 2}
	q := NewQueue[int](a, flowView(pri, bytes, dest))
	q.Push(0) // dest 1, most urgent
	q.Push(1) // dest 1, queued behind 0
	q.Push(2) // dest 2, least urgent but independently admissible

	v, ok := q.PopReady()
	if !ok || v != 0 {
		t.Fatalf("first PopReady = (%d,%v), want the urgent head of flow 1", v, ok)
	}
	// Flow 1's window is now full (900/1000): its next head is refused, but
	// flow 2's item must dispatch instead of waiting behind it.
	v, ok = q.PopReady()
	if !ok {
		t.Fatal("credit-blocked flow 1 wedged admissible flow 2 (head-of-line coupling)")
	}
	if v != 2 {
		t.Fatalf("head-skip popped %d, want flow 2's item", v)
	}
	// Nothing else is admissible: flow 1 still blocked, flow 2 drained.
	if _, ok := q.PopReady(); ok {
		t.Fatal("blocked flow dispatched beyond its window")
	}
	if q.Len() == 0 {
		t.Fatal("queue must still hold flow 1's refused head: work queued, nothing admissible")
	}
	q.Done(0)
	if v, ok := q.PopReady(); !ok || v != 1 {
		t.Fatalf("after credit returned, PopReady = (%d,%v), want flow 1's second item", v, ok)
	}
}

// TestCancelAfterHeadSkip is the regression test for Queue.Cancel with
// per-flow subqueues: an item popped via head skipping (its own flow
// admitted it while another flow's head was blocked) and then cancelled —
// the cluster pool's per-key deferral path — must refund its own flow's
// window, not the blocked flow that was skipped over.
func TestCancelAfterHeadSkip(t *testing.T) {
	a := NewAdaptiveCredit(1000)
	pri := []int32{0, 9}
	bytes := []int64{900, 300}
	dest := []int32{1, 2}
	q := NewQueue[int](a, flowView(pri, bytes, dest))
	q.Push(0)
	q.Push(1)
	if v, ok := q.PopReady(); !ok || v != 0 {
		t.Fatalf("setup pop = (%d,%v)", v, ok)
	}
	// Head skip: flow 1 blocked, flow 2's item dispatches.
	v, ok := q.PopReady()
	if !ok || v != 1 {
		t.Fatalf("head-skip pop = (%d,%v), want flow 2's item", v, ok)
	}
	q.Cancel(v)
	if got := a.InFlight(2); got != 0 {
		t.Fatalf("flow 2 in-flight after cancel = %d, want 0 (refund missed its flow)", got)
	}
	if got := a.InFlight(1); got != 900 {
		t.Fatalf("flow 1 in-flight = %d, want 900 untouched by flow 2's refund", got)
	}
	if got := a.Window(2); got != 1000 {
		t.Fatalf("flow 2 window = %d, want 1000 (cancel must not feed AIMD)", got)
	}
	// The cancelled item re-queues and dispatches again once re-pushed.
	q.Push(1)
	if v, ok := q.PopReady(); !ok || v != 1 {
		t.Fatalf("re-queued item did not dispatch: (%d,%v)", v, ok)
	}
}

// TestPerFlowMatchesSingleQueue is the bit-parity property behind the
// refactor: for every discipline without an admission gate, the per-flow
// queue must dequeue in exactly the order a single queue would — flow
// structure is invisible until a credit window refuses a head. Randomized
// over priorities, sizes, destinations and pop/push interleavings, checked
// against the pre-refactor reference semantics (discipline order, global
// insertion order on ties).
func TestPerFlowMatchesSingleQueue(t *testing.T) {
	for _, name := range []string{"fifo", "p3", "rr", "smallest", "tictac"} {
		rng := rand.New(rand.NewPCG(3, uint64(len(name))))
		for trial := 0; trial < 20; trial++ {
			var pri []int32
			var bytes []int64
			var dest []int32
			view := func(i int) Item { return Item{Priority: pri[i], Bytes: bytes[i], Dest: dest[i]} }
			q := NewQueue(MustByName(name), view)

			// Reference: a single slice re-sorted stably by the same
			// discipline instance's comparator at every pop.
			ref := NewQueue(MustByName(name), func(i int) Item {
				it := view(i)
				it.Dest = 0 // everything in one flow == one queue
				return it
			})

			for step := 0; step < 300; step++ {
				if rng.IntN(2) == 0 || q.Len() == 0 {
					pri = append(pri, int32(rng.IntN(6)))
					bytes = append(bytes, int64(rng.IntN(1000)))
					dest = append(dest, int32(rng.IntN(4)))
					q.Push(len(pri) - 1)
					ref.Push(len(pri) - 1)
					continue
				}
				got, _ := q.Pop()
				want, _ := ref.Pop()
				if got != want {
					t.Fatalf("%s trial %d: per-flow popped %d, single queue popped %d", name, trial, got, want)
				}
			}
		}
	}
}

// TestPreemptsStrictness: Preempts reports only strictly more urgent
// admissible work, regardless of flow.
func TestPreemptsStrictness(t *testing.T) {
	pri := []int32{5, 5, 1}
	dest := []int32{1, 2, 1}
	q := NewQueue(NewP3Priority(), flowView(pri, nil, dest))
	q.Push(1) // tie with hold: no preemption
	if q.Preempts(0) {
		t.Fatal("tie reported as preempting")
	}
	q.Push(2) // strictly more urgent, same flow as hold: preempts (netsim semantics)
	if !q.Preempts(0) {
		t.Fatal("strictly more urgent queued item not reported")
	}
}

// TestPopReadyIf: the veto leaves the queue untouched and never skips to a
// less urgent candidate.
func TestPopReadyIf(t *testing.T) {
	pri := []int32{3, 1}
	q := NewQueue(NewP3Priority(), flowView(pri, nil, nil))
	q.Push(0)
	q.Push(1)
	if v, ok := q.PopReadyIf(func(int) bool { return false }); ok {
		t.Fatalf("vetoed candidate %d popped", v)
	}
	if q.Len() != 2 {
		t.Fatalf("veto mutated the queue: len %d", q.Len())
	}
	seen := -1
	if v, ok := q.PopReadyIf(func(c int) bool { seen = c; return true }); !ok || v != 1 {
		t.Fatalf("PopReadyIf = (%d,%v), want the most urgent item", v, ok)
	}
	if seen != 1 {
		t.Fatalf("predicate consulted %d, want the most urgent candidate only", seen)
	}
}
