package sched

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"
)

// TestDispatchMatchesLinearScanReference is the bit-parity contract of the
// integer-keyed dispatcher: on every discipline — plain, ranked, damped,
// profiled and credit-gated — every primitive must behave exactly like the
// retained linear-scan reference (reference_test.go), which orders by the
// pairwise specLess and never sees a key, under random interleavings of
// push, pop, admission-gated pop, veto pop, preemption probes, credit
// acknowledgements, cancels and mid-run profile swaps. Both sides run their
// own fresh discipline instance; stateful disciplines (rr's stride clock,
// credit-adaptive's AIMD windows) stay in lockstep only while every walk
// consults Admit in the same order, so any divergence — in result OR in
// internal walk order — surfaces as a mismatch within a few steps. Items
// are drawn from where an integer key can go wrong: both ends of the
// signed ranges, classes outside the profile, huge and zero sizes,
// negative destinations.
func TestDispatchMatchesLinearScanReference(t *testing.T) {
	profs := []*Profile{
		{
			NeedAtNs:     []int64{10_000, 20_000, 40_000, 45_000, 90_000, 100_000},
			LayerBytes:   []int64{4_000, 80_000, 2_000, 64_000, 8_000, 120_000},
			GbpsEstimate: 1.5,
		},
		{ // negative slack (class 1), a slack tie (classes 2 and 3), fewer classes
			NeedAtNs:     []int64{50_000, 1_000, 30_000, 30_000},
			LayerBytes:   []int64{100, 1_000_000},
			GbpsEstimate: 1,
		},
	}
	disciplines := []string{
		"fifo", "p3", "rr", "smallest", "tictac",
		"credit:1500", "credit-adaptive:1500",
		"damped", "damped:tictac", "damped:credit:1500",
	}
	pris := []int32{math.MinInt32, -1, 0, 1, 2, 3, 4, 5, 6, 40, math.MaxInt32}
	sizes := []int64{0, 1, 1 << 40, math.MaxInt64}
	dests := []int32{math.MinInt32, -1, 0, 1, 2, 3, math.MaxInt32}
	for _, name := range disciplines {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(17, uint64(len(name))))
			for trial := 0; trial < 15; trial++ {
				var pri []int32
				var bytes []int64
				var dest []int32
				view := func(i int) Item {
					return Item{Priority: pri[i], Bytes: bytes[i], Dest: dest[i]}
				}
				q := NewQueue(ApplyProfile(MustByName(name), profs[0]), view)
				r := newRefQueue(ApplyProfile(MustByName(name), profs[0]), view)

				// A credit window sums the bytes in flight, so two MaxInt64
				// payloads overflow it; gated disciplines stop at 1<<40.
				sizes := sizes
				if q.Gated() {
					sizes = sizes[:len(sizes)-1]
				}
				push := func() {
					pri = append(pri, pris[rng.IntN(len(pris))])
					// Mostly window-sized payloads, so the credit gates both
					// admit and refuse; the extremes ride along.
					if rng.IntN(4) == 0 {
						bytes = append(bytes, sizes[rng.IntN(len(sizes))])
					} else {
						bytes = append(bytes, int64(1+rng.IntN(999)))
					}
					dest = append(dest, dests[rng.IntN(len(dests))])
					i := len(pri) - 1
					q.Push(i)
					r.Push(i)
				}
				// inflight holds indices popped (charged) but not yet
				// released; both queues share it because their pops must
				// agree.
				var inflight []int
				keep := func(i int) bool { return bytes[i]%3 != 0 }

				for step := 0; step < 500; step++ {
					op := rng.IntN(10)
					if q.Len() == 0 && op < 8 {
						op = 0
					}
					if rng.IntN(100) == 0 {
						op = 10
					}
					switch op {
					case 0, 1, 2: // push
						push()
					case 3, 4: // PopReady
						gv, gok := q.PopReady()
						wv, wok := r.PopReady()
						if gv != wv || gok != wok {
							t.Fatalf("trial %d step %d: PopReady = (%d,%v), reference (%d,%v)", trial, step, gv, gok, wv, wok)
						}
						if gok {
							inflight = append(inflight, gv)
						}
					case 5: // Pop (drain path: bypasses the gate, still charges)
						gv, gok := q.Pop()
						wv, wok := r.Pop()
						if gv != wv || gok != wok {
							t.Fatalf("trial %d step %d: Pop = (%d,%v), reference (%d,%v)", trial, step, gv, gok, wv, wok)
						}
						if gok {
							inflight = append(inflight, gv)
						}
					case 6: // PopReadyIf with a deterministic veto
						gv, gok := q.PopReadyIf(keep)
						wv, wok := r.PopReadyIf(keep)
						if gv != wv || gok != wok {
							t.Fatalf("trial %d step %d: PopReadyIf = (%d,%v), reference (%d,%v)", trial, step, gv, gok, wv, wok)
						}
						if gok {
							inflight = append(inflight, gv)
						}
					case 7: // Preempts against a random in-flight hold
						if len(inflight) == 0 {
							push()
							continue
						}
						hold := inflight[rng.IntN(len(inflight))]
						if g, w := q.Preempts(hold), r.Preempts(hold); g != w {
							t.Fatalf("trial %d step %d: Preempts(%d) = %v, reference %v", trial, step, hold, g, w)
						}
					case 8: // release an in-flight element: Done or Cancel
						if len(inflight) == 0 {
							continue
						}
						k := rng.IntN(len(inflight))
						v := inflight[k]
						inflight = append(inflight[:k], inflight[k+1:]...)
						if rng.IntN(3) == 0 {
							q.Cancel(v)
							r.Cancel(v)
						} else {
							q.Done(v)
							r.Done(v)
						}
					case 9: // Blocked probe (mutates adaptive state via Admit)
						if g, w := q.Blocked(), r.Blocked(); g != w {
							t.Fatalf("trial %d step %d: Blocked = %v, reference %v", trial, step, g, w)
						}
					case 10: // recalibration under load: everything queued is re-keyed
						p := profs[rng.IntN(len(profs))]
						q.SetProfile(p)
						r.SetProfile(p)
					}
					if q.Len() != r.Len() {
						t.Fatalf("trial %d step %d: Len %d, reference %d", trial, step, q.Len(), r.Len())
					}
				}
				// Drain both to the end: residual order must match too.
				for {
					gv, gok := q.Pop()
					wv, wok := r.Pop()
					if gv != wv || gok != wok {
						t.Fatalf("trial %d drain: Pop = (%d,%v), reference (%d,%v)", trial, gv, gok, wv, wok)
					}
					if !gok {
						break
					}
				}
			}
		})
	}
}

// TestDrainedFlowsAreEvicted pins the leak fix: a flow whose subqueue
// drains must leave the flow map immediately (the reference — and the old
// dispatcher — kept it forever, which grew without bound on long-running
// transport queues cycling through many destinations).
func TestDrainedFlowsAreEvicted(t *testing.T) {
	var dest int32
	q := NewQueue(NewP3Priority(), func(i int) Item { return Item{Priority: 1, Dest: dest} })
	for round := 0; round < 10_000; round++ {
		dest = int32(round) // a fresh destination every round
		q.Push(round)
		if _, ok := q.Pop(); !ok {
			t.Fatal("pop failed")
		}
	}
	if len(q.flows) != 0 {
		t.Fatalf("%d drained flows still mapped, want 0 (unbounded growth on long-running queues)", len(q.flows))
	}
	if len(q.heads) != 0 {
		t.Fatalf("%d drained flows still in the head heap, want 0", len(q.heads))
	}
	// The shells are recycled, not hoarded: at most one live flow existed at
	// a time, so one shell suffices for all 10k destinations.
	if len(q.free) != 1 {
		t.Fatalf("free list holds %d shells, want 1 (one live flow at a time)", len(q.free))
	}
}

// TestQueueSteadyStateAllocs pins the allocation contract of the dispatch
// hot path: once slabs have grown, push/dispatch/release cycles allocate
// nothing, for plain, ranked and credit-gated disciplines alike.
func TestQueueSteadyStateAllocs(t *testing.T) {
	for _, name := range []string{"p3", "rr", "credit-adaptive:1048576"} {
		t.Run(name, func(t *testing.T) {
			ident := func(it Item) Item { return it }
			q := NewQueue(MustByName(name), ident)
			for i := 0; i < 256; i++ {
				q.Push(Item{Priority: int32(i % 8), Bytes: 64, Dest: int32(i % 32)})
			}
			avg := testing.AllocsPerRun(2000, func() {
				v, ok := q.PopReady()
				if !ok {
					t.Fatal("nothing admissible")
				}
				q.Done(v)
				q.Push(v)
			})
			if avg != 0 {
				t.Fatalf("steady-state dispatch allocates %.2f per op, want 0", avg)
			}
		})
	}
}

// TestEntrySize pins what a queued element costs: the element, its Item and
// the three-word order key in 56 bytes for a pointer-sized element. Item's
// comment has the measurement behind the number.
func TestEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the budget is stated for 64-bit targets")
	}
	if got := unsafe.Sizeof(entry[*byte]{}); got != 56 {
		t.Fatalf("entry[*byte] is %d bytes, want 56", got)
	}
}
