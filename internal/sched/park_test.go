package sched

import "testing"

// TestAdaptiveCreditParkAccounting pins the preemption-aware credit fix: a
// parked (preempted) transmission's remaining bytes must stop counting
// against its flow's admission window, and the park/resume transitions must
// not feed the AIMD — before credit-adaptive released parked bytes, a long-parked tail kept
// its flow's window spuriously bound and every refusal it caused was
// recorded as credit-starvation evidence.
func TestAdaptiveCreditParkAccounting(t *testing.T) {
	a := NewAdaptiveCredit(1000)
	bulk := Item{Priority: 5, Bytes: 900, Dest: 1}
	urgent := Item{Priority: 0, Bytes: 800, Dest: 1}

	if !a.Admit(bulk) {
		t.Fatal("empty window refused the bulk item")
	}
	a.OnStart(bulk)
	// Parked: the 900 in-flight bytes move out of the window...
	a.OnPark(bulk)
	if got := a.InFlight(1); got != 0 {
		t.Fatalf("in-flight after park = %d, want 0", got)
	}
	if got := a.Parked(1); got != 900 {
		t.Fatalf("parked after park = %d, want 900", got)
	}
	// ...so the urgent preemptor is admissible where the old accounting
	// (900 + 800 > 1000) would have refused it and logged a stall.
	if !a.Admit(urgent) {
		t.Fatal("urgent preemptor refused against a parked-only window")
	}
	a.OnStart(urgent)
	a.OnDone(urgent)
	if got := a.Window(1); got != 1000 {
		t.Fatalf("window tuned to %d by a park/preempt cycle, want untouched 1000", got)
	}
	// Resume re-charges, Done balances.
	a.OnResume(bulk)
	if got, parked := a.InFlight(1), a.Parked(1); got != 900 || parked != 0 {
		t.Fatalf("after resume: in-flight %d parked %d, want 900/0", got, parked)
	}
	a.OnDone(bulk)
	if got := a.InFlight(1); got != 0 {
		t.Fatalf("in-flight after done = %d, want 0", got)
	}
	if got := a.Window(1); got != 1000 {
		t.Fatalf("window %d after balanced park cycle, want 1000", got)
	}
}

// TestAdaptiveCreditParkDiscardsRefusalEvidence: a refusal caused while the
// window later drains BY PARKING (not by completions) must not grow the
// window — the drain says nothing about credit starvation, exactly like the
// OnCancel path.
func TestAdaptiveCreditParkDiscardsRefusalEvidence(t *testing.T) {
	a := NewAdaptiveCredit(1000)
	bulk := Item{Priority: 5, Bytes: 900, Dest: 1}
	big := Item{Priority: 1, Bytes: 500, Dest: 1}
	a.OnStart(bulk)
	if a.Admit(big) {
		t.Fatal("900+500 admitted into a 1000-byte window")
	}
	// The transmission parks; the refusal evidence must be discarded, not
	// interpreted as a stall on the next drain.
	a.OnPark(bulk)
	if !a.Admit(big) {
		t.Fatal("big item still refused after the blocking bytes parked")
	}
	a.OnStart(big)
	a.OnDone(big)
	if got := a.Window(1); got != 1000 {
		t.Fatalf("window grew to %d on park-discarded refusal evidence, want 1000", got)
	}
}

// TestQueueParkResume drives the Park/Resume plumbing through the queue
// (and through damped's embedded window): the element's own view routes
// the park, a fixed window keeps the parked bytes charged, and the walk
// stays balanced.
func TestQueueParkResume(t *testing.T) {
	bulk := Item{Priority: 5, Bytes: 900, Dest: 1}
	for _, name := range []string{"credit-adaptive:1000", "damped:credit-adaptive:1000"} {
		q := NewQueue(MustByName(name), ident)
		q.Push(bulk)
		v, ok := q.PopReady()
		if !ok {
			t.Fatalf("%s: nothing admitted", name)
		}
		q.Park(v)
		// With 900 bytes parked the window is free: another 900-byte item
		// for the same flow must be admissible.
		q.Push(Item{Priority: 0, Bytes: 900, Dest: 1})
		w, ok := q.PopReady()
		if !ok {
			t.Fatalf("%s: admissible item refused against a parked window", name)
		}
		q.Done(w)
		q.Resume(v)
		q.Done(v)
	}
	// Fixed windows keep parked bytes charged: Park must be a safe no-op,
	// not an underflow.
	for _, name := range []string{"credit:1000", "damped:credit:1000"} {
		q := NewQueue(MustByName(name), ident)
		q.Push(bulk)
		v, _ := q.PopReady()
		q.Park(v)
		q.Push(Item{Priority: 0, Bytes: 900, Dest: 1})
		if _, ok := q.PopReady(); ok {
			t.Fatalf("%s admitted past bytes that stay charged while parked", name)
		}
		q.Resume(v)
		q.Done(v)
		if _, ok := q.PopReady(); !ok {
			t.Fatalf("%s: Done after Resume left the window charged", name)
		}
	}
	// Ungated disciplines: Park/Resume are no-ops.
	p := NewQueue(MustByName("p3"), ident)
	p.Push(bulk)
	v, _ := p.Pop()
	p.Park(v)
	p.Resume(v)
}

// TestQueueCancelRefundsFixedWindow: Cancel through a fixed window, bare
// or under damped's embedding, refunds the charge exactly as Done would —
// the next item is admissible, and a second refund of the same bytes
// underflows.
func TestQueueCancelRefundsFixedWindow(t *testing.T) {
	bulk := Item{Priority: 5, Bytes: 900, Dest: 1}
	for _, name := range []string{"credit:1000", "damped:credit:1000"} {
		q := NewQueue(MustByName(name), ident)
		q.Push(bulk)
		q.Push(Item{Priority: 6, Bytes: 900, Dest: 1})
		v, _ := q.PopReady()
		if _, ok := q.PopReady(); ok {
			t.Fatalf("%s: 900+900 admitted into a 1000-byte window", name)
		}
		q.Cancel(v)
		w, ok := q.PopReady()
		if !ok {
			t.Fatalf("%s: Cancel did not refund the window", name)
		}
		q.Done(w)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: cancelling bytes already refunded did not underflow", name)
				}
			}()
			q.Cancel(v)
		}()
	}
}
