package worker

import (
	"math/rand/v2"
	"testing"
)

// refSlot is Slot's rule written the plain way: the members counted per
// iteration, the newest iteration contributed to and the newest completed.
type refSlot struct {
	counted      map[int32]map[int]bool
	newest, done int32
	need         int
}

func (r *refSlot) add(iter int32, lo, hi, skip int) (added int, complete bool) {
	if iter <= r.done || iter < r.newest {
		return 0, false // stale
	}
	if iter > r.newest {
		r.newest, r.counted[iter] = iter, map[int]bool{}
	}
	for m := lo; m < hi; m++ {
		if m != skip && !r.counted[iter][m] {
			r.counted[iter][m] = true
			added++
		}
	}
	if len(r.counted[iter]) == r.need {
		r.done, complete = iter, true
	}
	return added, complete
}

func (r *refSlot) abandon() int {
	if r.newest <= r.done {
		return 0
	}
	n := len(r.counted[r.newest])
	delete(r.counted, r.newest)
	r.newest = r.done
	delete(r.counted, r.done) // nothing is counted toward the slot's iteration
	return n
}

// TestSlotMatchesReference drives slots with seeded random contributions —
// single members and overlapping member ranges, duplicates, stale and newer
// iterations, the occasional abandoned reduction — over populations of 1 to
// 130 members, some with a member that never contributes (an aggregator's
// server machine), and holds every answer to refSlot's. Across the whole
// stream each (iteration, member) adds exactly once, a stale contribution
// adds 0, and an iteration completes exactly when the members added reach
// the slot's need: the "reduced exactly once at its population weight"
// invariant both transports rely on.
func TestSlotMatchesReference(t *testing.T) {
	stale, completes, abandoned := 0, 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 31))
		members := 1 + rng.IntN(130)
		skip, need := -1, members
		if members > 1 && rng.IntN(2) == 0 {
			skip = rng.IntN(members)
			need--
		}
		s := NewSlots(3, members, func(int) int { return need })
		slot := &s[1] // a middle slot: its neighbours' words must stay untouched
		ref := &refSlot{counted: map[int32]map[int]bool{}, newest: -1, done: -1, need: need}
		sums := map[int32]int{} // members added per iteration since it opened, as Add reports them
		for step := 0; step < 400; step++ {
			if rng.IntN(150) == 0 {
				if got, want := slot.Abandon(), ref.abandon(); got != want {
					t.Fatalf("seed %d step %d: Abandon = %d, reference %d", seed, step, got, want)
				} else if got > 0 {
					abandoned++
				}
				continue
			}
			iter := ref.newest // the open iteration, or the next once it completed
			if ref.newest <= ref.done {
				iter++
			}
			if rng.IntN(16) == 0 {
				iter += int32(rng.IntN(4)) - 2 // stale, or newer than the open one
			}
			lo, hi, sk := rng.IntN(members), 0, skip
			if rng.IntN(2) == 0 {
				hi = lo + 1 + rng.IntN(members-lo) // a reduced stream
			} else if hi, sk = lo+1, -1; lo == skip {
				continue // the skipped member never pushes
			}
			if iter > ref.newest && iter > ref.done {
				sums[iter] = 0 // opened, or reopened after an abandon
			}
			wantAdded, wantComplete := ref.add(iter, lo, hi, sk)
			added, complete := slot.Add(iter, lo, hi, sk)
			if added != wantAdded || complete != wantComplete {
				t.Fatalf("seed %d step %d: Add(%d, [%d,%d) skip %d) = %d, %v; reference %d, %v",
					seed, step, iter, lo, hi, sk, added, complete, wantAdded, wantComplete)
			}
			if wantAdded == 0 && (iter <= ref.done || iter < ref.newest) {
				stale++
			}
			sums[iter] += added
			if sums[iter] > need || complete != (added > 0 && sums[iter] == need) {
				t.Fatalf("seed %d step %d: iteration %d has %d of %d members added, complete %v",
					seed, step, iter, sums[iter], need, complete)
			}
			if complete {
				completes++
			}
			for i := ref.newest - 2; i <= ref.newest+1; i++ {
				if slot.Answerable(i) != (i <= ref.done) || slot.Open(i) != (i == ref.newest && i > ref.done) {
					t.Fatalf("seed %d step %d: iteration %d answerable %v open %v; reference newest %d done %d",
						seed, step, i, slot.Answerable(i), slot.Open(i), ref.newest, ref.done)
				}
			}
			if slot.Count() != len(ref.counted[ref.newest]) {
				t.Fatalf("seed %d step %d: Count %d, reference %d", seed, step, slot.Count(), len(ref.counted[ref.newest]))
			}
			for m := 0; m < members; m++ {
				if slot.Seen(m) != ref.counted[ref.newest][m] {
					t.Fatalf("seed %d step %d: Seen(%d) = %v, reference %v", seed, step, m, !ref.counted[ref.newest][m], ref.counted[ref.newest][m])
				}
			}
		}
		for _, i := range []int{0, 2} {
			if s[i].Count() != 0 || s[i].Answerable(0) {
				t.Fatalf("seed %d: slot %d changed by its neighbour's contributions", seed, i)
			}
			for m := 0; m < members; m++ {
				if s[i].Seen(m) {
					t.Fatalf("seed %d: slot %d sees member %d its neighbour counted", seed, i, m)
				}
			}
		}
	}
	t.Logf("%d stale contributions, %d iterations completed, %d abandoned", stale, completes, abandoned)
	if stale < 100 || completes < 100 || abandoned < 100 {
		t.Fatalf("the streams missed a case: %d stale, %d completed, %d abandoned", stale, completes, abandoned)
	}
}
