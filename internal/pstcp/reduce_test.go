package pstcp

import (
	"math/rand/v2"
	"testing"

	"p3/internal/transport"
)

// refSlot is the server's reduce rule for one key written the plain way: a
// push of the wrong shape is ignored; a push for an iteration already
// completed is answered with the stored values, and one older than the
// slot's open iteration is ignored; a push for a newer iteration restarts
// the slot with a zeroed sum; a push from a sender already counted is
// ignored, every other push is added to the sum, and the Nth applies SGD.
type refSlot struct {
	param, sum []float32
	iter, done int32
	count      int
	seen       map[uint8]bool
}

func (r *refSlot) push(sender uint8, iter int32, vals []float32, workers int, lr float32) (updated, answered bool) {
	switch {
	case len(vals) != len(r.param):
		return false, false
	case iter <= r.done:
		return false, true
	case iter < r.iter:
		return false, false
	case iter > r.iter:
		r.iter, r.count, r.seen = iter, 0, map[uint8]bool{}
		clear(r.sum)
	}
	if r.seen[sender] {
		return false, false
	}
	r.seen[sender] = true
	for i, v := range vals {
		r.sum[i] += v
	}
	if r.count++; r.count < workers {
		return false, false
	}
	r.done = iter
	for i := range r.param {
		r.param[i] -= lr / float32(workers) * r.sum[i]
	}
	return true, false
}

// TestReduceMatchesReference drives handlePush with a seeded stream of
// integer-valued pushes over two keys — duplicates, pushes for an older
// iteration, a newer iteration arriving over a partly filled slot and pushes
// of the wrong shape among them — and requires the stored parameters to equal
// refSlot's after every push, every broadcast snapshot to equal them after
// every update, and the answer to every push of a completed iteration to
// equal them too, exactly (==).
func TestReduceMatchesReference(t *testing.T) {
	const lr, shape = 0.5, 37
	for _, workers := range []int{1, 2, 3, 5} {
		s := NewServer(ServerConfig{Workers: workers, Sched: "fifo", Updater: SGDUpdater(lr)})
		for id := uint8(0); id < 2; id++ {
			s.writers[id] = &connWriter{} // two destinations: one snapshot, two references
		}
		rng := rand.New(rand.NewPCG(uint64(workers), 7))
		grad := func(n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = float32(rng.IntN(17) - 8)
			}
			return v
		}
		refs := map[uint64]*refSlot{}
		for key := uint64(0); key < 2; key++ {
			init := grad(shape)
			s.handleInit(&transport.Frame{Type: transport.TypeInit, Key: key, Values: init})
			refs[key] = &refSlot{param: append([]float32(nil), init...), sum: make([]float32, shape),
				done: -1, seen: map[uint8]bool{}}
		}
		var dup, older, answers, newerOverPartial, mismatch, updates int
		for step := 0; step < 2000; step++ {
			key := uint64(rng.IntN(2))
			ref := refs[key]
			iter, sender := ref.iter, uint8(rng.IntN(workers))
			switch p := rng.IntN(100); {
			case p < 3:
				iter--
			case p < 8, p < 60 && ref.count == workers:
				iter++ // mostly once the slot is complete
			}
			n := shape
			if rng.IntN(40) == 0 {
				n = shape + 1
			}
			switch {
			case n != shape:
				mismatch++
			case iter < ref.iter:
				older++
			case iter > ref.iter && ref.count > 0 && ref.count < workers:
				newerOverPartial++
			case iter == ref.iter && ref.seen[sender]:
				dup++
			}
			vals := grad(n)
			updated, answered := ref.push(sender, iter, vals, workers, lr)
			s.handlePush(&transport.Frame{Type: transport.TypePush, Sender: sender, Key: key, Iter: iter, Values: vals})
			for i, v := range s.keys[key].param {
				if v != ref.param[i] {
					t.Fatalf("workers %d, step %d, key %d: param[%d] = %v, reference %v", workers, step, key, i, v, ref.param[i])
				}
			}
			frames := 0 // two broadcast snapshots per update, one answer per push of a completed iteration
			if updated {
				frames = 2
			} else if answered {
				frames = 1
			}
			for k := 0; k <= frames; k++ {
				f, ok := s.sendQ.TryPop()
				if ok != (k < frames) {
					t.Fatalf("workers %d, step %d: frame %d sent %v, reference sends %d (updated %v, answered %v)",
						workers, step, k, ok, frames, updated, answered)
				}
				if !ok {
					break
				}
				if len(f.Values) != shape {
					t.Fatalf("workers %d, step %d: snapshot of %d values, want %d", workers, step, len(f.Values), shape)
				}
				for i, v := range f.Values {
					if v != ref.param[i] {
						t.Fatalf("workers %d, step %d: snapshot[%d] = %v, param %v", workers, step, i, v, ref.param[i])
					}
				}
				if answered && (f.Type != transport.TypeData || f.Dst != sender || f.Iter != iter) {
					t.Fatalf("workers %d, step %d: answer %v to %d for iteration %d, want Data to %d for %d",
						workers, step, f.Type, f.Dst, f.Iter, sender, iter)
				}
				s.sendQ.Done(f)
				s.bufs.put(f.Values)
			}
			if updated {
				updates++
			}
			if answered {
				answers++
			}
		}
		if _, u := s.Stats(); u != int64(updates) {
			t.Fatalf("workers %d: server counted %d updates, reference %d", workers, u, updates)
		}
		t.Logf("workers %d: %d updates, %d duplicates, %d older, %d answered as stale, %d newer over a partial slot, %d mismatched",
			workers, updates, dup, older, answers, newerOverPartial, mismatch)
		if updates == 0 || older == 0 || answers == 0 || mismatch == 0 || (workers > 1 && (dup == 0 || newerOverPartial == 0)) {
			t.Fatalf("workers %d: the stream missed a case", workers)
		}
	}
}
