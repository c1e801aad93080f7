package pstcp

import (
	"math/rand/v2"
	"testing"

	"p3/internal/transport"
)

// refSlot is the server's reduce rule for one key written the plain way: a
// push for another iteration than the slot's restarts it with a zeroed sum,
// a push of the wrong shape or from a sender already counted is ignored,
// every other push is added to the sum, and the Nth applies SGD.
type refSlot struct {
	param, sum []float32
	iter       int32
	count      int
	seen       map[uint8]bool
}

func (r *refSlot) push(sender uint8, iter int32, vals []float32, workers int, lr float32) (updated bool) {
	if iter != r.iter || r.seen == nil {
		r.iter, r.count, r.seen = iter, 0, map[uint8]bool{}
		clear(r.sum)
	}
	if len(vals) != len(r.param) || r.seen[sender] {
		return false
	}
	r.seen[sender] = true
	for i, v := range vals {
		r.sum[i] += v
	}
	if r.count++; r.count < workers {
		return false
	}
	for i := range r.param {
		r.param[i] -= lr / float32(workers) * r.sum[i]
	}
	return true
}

// TestReduceMatchesReference drives handlePush with a seeded stream of
// integer-valued pushes over two keys — duplicates, pushes for an older
// iteration, a newer iteration arriving over a partly filled slot and pushes
// of the wrong shape among them — and requires the stored parameters to equal
// refSlot's after every push, and every broadcast snapshot to equal them
// after every update, exactly (==).
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
			refs[key] = &refSlot{param: append([]float32(nil), init...), sum: make([]float32, shape)}
		}
		var dup, older, newerOverPartial, mismatch, updates int
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
			updated := ref.push(sender, iter, vals, workers, lr)
			s.handlePush(&transport.Frame{Type: transport.TypePush, Sender: sender, Key: key, Iter: iter, Values: vals})
			for i, v := range s.params[key] {
				if v != ref.param[i] {
					t.Fatalf("workers %d, step %d, key %d: param[%d] = %v, reference %v", workers, step, key, i, v, ref.param[i])
				}
			}
			for id := 0; id < 2; id++ {
				f, ok := s.sendQ.TryPop()
				if ok != updated {
					t.Fatalf("workers %d, step %d: broadcast %v, reference updated %v", workers, step, ok, updated)
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
				s.sendQ.Done(f)
				s.bufs.put(f.Values)
			}
			if updated {
				updates++
			}
		}
		if _, u := s.Stats(); u != int64(updates) {
			t.Fatalf("workers %d: server counted %d updates, reference %d", workers, u, updates)
		}
		t.Logf("workers %d: %d updates, %d duplicates, %d older, %d newer over a partial slot, %d mismatched",
			workers, updates, dup, older, newerOverPartial, mismatch)
		if updates == 0 || older == 0 || mismatch == 0 || (workers > 1 && (dup == 0 || newerOverPartial == 0)) {
			t.Fatalf("workers %d: the stream missed a case", workers)
		}
	}
}
