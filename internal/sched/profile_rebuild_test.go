package sched

import "testing"

// TestQueueSetProfileRebuildsOrder pins the live-recalibration contract: a
// populated tictac queue re-orders its QUEUED elements when a new profile
// arrives — the keys stored at enqueue were derived from the old profile,
// so leaving them would keep dispatching in the old order, and SetProfile
// re-keys and rebuilds the heaps.
func TestQueueSetProfileRebuildsOrder(t *testing.T) {
	q := NewQueue(MustByName("tictac"), ident)
	// Profile-less tictac ranks by raw priority: class 0 would pop first.
	q.Push(Item{Priority: 0, Bytes: 1, Dest: 0})
	q.Push(Item{Priority: 1, Bytes: 1, Dest: 1})
	q.Push(Item{Priority: 2, Bytes: 1, Dest: 2})
	// The new profile makes class 2 the most urgent (huge transfer against
	// an early deadline) and must reorder the already-queued items.
	q.SetProfile(&Profile{
		NeedAtNs:     []int64{5000, 6000, 7000},
		LayerBytes:   []int64{100, 100, 1_000_000},
		GbpsEstimate: 1,
	})
	var got []int32
	for q.Len() > 0 {
		v, _ := q.Pop()
		got = append(got, v.Priority)
	}
	want := []int32{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-recalibration pop order %v, want %v", got, want)
		}
	}
	// A nil-profile rebuild on an empty queue must not wedge anything, and
	// insertion order must survive a rebuild that does not change ranks.
	q.SetProfile(nil)
	q.Push(Item{Priority: 3, Bytes: 1, Dest: 0})
	q.Push(Item{Priority: 3, Bytes: 1, Dest: 0})
	q.SetProfile(&Profile{NeedAtNs: []int64{1, 1, 1, 1}, GbpsEstimate: 1})
	a, _ := q.Pop()
	b, _ := q.Pop()
	_ = a
	_ = b
	if q.Len() != 0 {
		t.Fatal("rebuild lost or duplicated elements")
	}
}

// TestQueueSetProfileKeepsCreditCharges: rebuilding must not disturb
// in-flight credit accounting — charges belong to popped elements, which
// are outside the queue.
func TestQueueSetProfileKeepsCreditCharges(t *testing.T) {
	q := NewQueue(MustByName("damped:credit-adaptive:1000"), ident)
	q.Push(Item{Priority: 0, Bytes: 900, Dest: 1})
	q.Push(Item{Priority: 1, Bytes: 900, Dest: 1})
	v, ok := q.PopReady()
	if !ok {
		t.Fatal("nothing admitted")
	}
	q.SetProfile(&Profile{NeedAtNs: []int64{10, 20}, GbpsEstimate: 1})
	// The window still holds v's 900 bytes: the queued 900-byte item for
	// the same flow must stay refused until Done.
	if _, ok := q.PopReady(); ok {
		t.Fatal("rebuild leaked the in-flight credit charge")
	}
	q.Done(v)
	if w, ok := q.PopReady(); !ok || w.Bytes != 900 {
		t.Fatal("queued item lost across the rebuild")
	}
}
