package worker

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"p3/internal/sched"
	"p3/internal/sim"
)

// refPool is the per-chunk FIFO design Pool's single deferral list
// replaced: one waiting list per chunk, its oldest item re-queued when the
// chunk frees up.
type refPool struct {
	eng     *sim.Engine
	q       *sched.Queue[Item]
	busy    []bool
	waiting [][]Item
	cost    []sim.Time
	threads int
	done    func(Item)
}

func (r *refPool) add(it Item) { r.q.Push(it); r.pump() }

func (r *refPool) pump() {
	for r.threads > 0 {
		it, ok := r.q.PopReady()
		if !ok {
			return
		}
		if r.busy[it.Chunk] {
			r.q.Cancel(it)
			r.waiting[it.Chunk] = append(r.waiting[it.Chunk], it)
			continue
		}
		r.busy[it.Chunk] = true
		r.threads--
		r.eng.After(r.cost[it.Chunk], func() { r.finish(it) })
	}
}

func (r *refPool) finish(it Item) {
	r.threads++
	r.busy[it.Chunk] = false
	r.q.Done(it)
	if w := r.waiting[it.Chunk]; len(w) > 0 {
		r.q.Push(w[0])
		r.waiting[it.Chunk] = w[1:]
	}
	r.done(it)
	r.pump()
}

// loggedCredit is a credit-adaptive window that logs the admission
// protocol — what a pool starts, completes and refunds.
type loggedCredit struct {
	*sched.AdaptiveCredit
	log *[]string
}

func (g loggedCredit) OnStart(it sched.Item) {
	*g.log = append(*g.log, fmt.Sprint("start ", it))
	g.AdaptiveCredit.OnStart(it)
}

func (g loggedCredit) OnDone(it sched.Item) {
	*g.log = append(*g.log, fmt.Sprint("done ", it))
	g.AdaptiveCredit.OnDone(it)
}

func (g loggedCredit) OnCancel(it sched.Item) {
	*g.log = append(*g.log, fmt.Sprint("cancel ", it))
	g.AdaptiveCredit.OnCancel(it)
}

// TestPoolDeferralMatchesReference drives Pool and refPool with the same
// seeded Add scripts — 1 to 3 threads, a few hot chunks so most items
// defer, items added at random instants and from the done callback, under
// a tight credit-adaptive window — and holds the two logs of starts,
// refunds, completions and finish times equal.
func TestPoolDeferralMatchesReference(t *testing.T) {
	view := func(it Item) sched.Item {
		return sched.Item{Priority: it.Priority, Dest: it.Src, Bytes: 1 + int64(it.Iter%5)}
	}
	cancels := 0
	for seed := uint64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewPCG(seed, 37))
		threads, chunks := 1+rng.IntN(3), 1+rng.IntN(4)
		cost := Costs(chunks, func(c int32) int64 { return 50 * int64(c+1) }, 10, 1)
		type add struct {
			at sim.Time
			it Item
		}
		script := make([]add, 40)
		for i := range script {
			script[i] = add{sim.Time(rng.IntN(400)), Item{
				Chunk: int32(rng.IntN(chunks)), Iter: int32(i), Src: int32(rng.IntN(3)), Priority: int32(rng.IntN(5)),
			}}
		}
		run := func(newPool func(eng *sim.Engine, q *sched.Queue[Item], done func(Item)) func(Item)) []string {
			var log []string
			var eng sim.Engine
			q := sched.NewQueue(loggedCredit{sched.NewAdaptiveCredit(4), &log}, view)
			var add func(Item)
			add = newPool(&eng, q, func(it Item) {
				log = append(log, fmt.Sprintf("finish %d@%d", it.Iter, eng.Now()))
				if it.Iter%3 == 0 && it.Iter < 1000 { // a follow-up on the next chunk
					add(Item{Chunk: (it.Chunk + 1) % int32(chunks), Iter: it.Iter + 1000, Src: it.Src, Priority: it.Priority})
				}
			})
			for _, a := range script {
				eng.At(a.at, func() { add(a.it) })
			}
			eng.Run()
			return log
		}
		got := run(func(eng *sim.Engine, q *sched.Queue[Item], done func(Item)) func(Item) {
			return NewPool(eng, threads, cost, q, done).Add
		})
		want := run(func(eng *sim.Engine, q *sched.Queue[Item], done func(Item)) func(Item) {
			r := &refPool{eng: eng, q: q, busy: make([]bool, chunks), waiting: make([][]Item, chunks), cost: cost, threads: threads, done: done}
			return r.add
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d (%d threads, %d chunks): log entry %d is %q, reference %q", seed, threads, chunks, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: log has %d entries, reference %d", seed, len(got), len(want))
		}
		finished := 0
		for _, l := range got {
			if l[:6] == "finish" {
				finished++
			}
			if l[:6] == "cancel" {
				cancels++
			}
		}
		if finished != 40+14 {
			t.Fatalf("seed %d: %d items finished, want 54", seed, finished)
		}
	}
	if cancels < 500 {
		t.Fatalf("the scripts deferred only %d items", cancels)
	}
}
