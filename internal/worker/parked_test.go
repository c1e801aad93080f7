package worker

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refParked is Parked's rule written the plain way: every pull ever parked,
// in arrival order, and whether it was answered.
type refParked struct {
	keys     []uint64
	pulls    []Pull
	answered []bool
}

func (r *refParked) park(key uint64, p Pull) {
	r.keys, r.pulls, r.answered = append(r.keys, key), append(r.pulls, p), append(r.answered, false)
}

func (r *refParked) release(key uint64, iter int32) (out []Pull) {
	for i, p := range r.pulls {
		if r.keys[i] == key && !r.answered[i] && p.Iter <= iter {
			r.answered[i] = true
			out = append(out, p)
		}
	}
	return out
}

// TestParkedMatchesReference drives Parked with seeded random scripts —
// parks for a few keys at iterations around the released ones, releases
// that move forward, repeat or go back — and holds every Release to
// refParked's answers: the pulls that iteration satisfies, in arrival
// order. Each pull carries a unique Src, so across a script every parked
// pull is answered exactly once, and never before its iteration.
func TestParkedMatchesReference(t *testing.T) {
	released := 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		var p Parked
		ref := &refParked{}
		keys := 1 + rng.IntN(4)
		newest := make([]int32, keys) // per key: the newest iteration released
		for k := range newest {
			newest[k] = -1
		}
		check := func(step int, key uint64, iter int32) {
			want := ref.release(key, iter)
			var got []Pull
			p.Release(key, iter, func(q Pull) { got = append(got, q) })
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: Release(%d, %d) answered %v, reference %v", seed, step, key, iter, got, want)
			}
			for i := range got {
				if got[i] != want[i] || got[i].Iter > iter {
					t.Fatalf("seed %d step %d: Release(%d, %d) answered %v, reference %v", seed, step, key, iter, got, want)
				}
			}
			released += len(got)
		}
		var src int32
		for step := 0; step < 300; step++ {
			key := rng.IntN(keys)
			if rng.IntN(3) == 0 {
				iter := newest[key] + int32(rng.IntN(3)) - 1 // forward, a repeat, or back
				newest[key] = max(newest[key], iter)
				check(step, uint64(key), iter)
				continue
			}
			q := Pull{Iter: newest[key] + int32(rng.IntN(4)) - 1, Src: src, Priority: int32(rng.IntN(8))}
			src++
			p.Park(uint64(key), q)
			ref.park(uint64(key), q)
		}
		for k := range newest {
			check(-1, uint64(k), math.MaxInt32)
		}
		for i, a := range ref.answered {
			if !a {
				t.Fatalf("seed %d: pull %+v never answered", seed, ref.pulls[i])
			}
		}
		if len(p.m) != 0 {
			t.Fatalf("seed %d: %d keys still hold parked pulls after every one was answered", seed, len(p.m))
		}
	}
	if released < 10000 {
		t.Fatalf("the scripts answered only %d pulls", released)
	}
}
