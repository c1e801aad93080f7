package worker

import (
	"fmt"
	"testing"

	"p3/internal/sched"
	"p3/internal/sim"
)

// logGate is a priority-ordered discipline with an always-open gate that
// logs the admission protocol — what a Pool starts, completes and refunds —
// naming each item by its Bytes.
type logGate struct{ log []string }

func (g *logGate) Name() string                      { return "loggate" }
func (g *logGate) Key(it sched.Item) (hi, lo uint64) { return uint64(it.Priority), 0 }
func (g *logGate) Admit(sched.Item) bool             { return true }
func (g *logGate) OnStart(it sched.Item)             { g.log = append(g.log, fmt.Sprint("start ", it.Bytes)) }
func (g *logGate) OnDone(it sched.Item)              { g.log = append(g.log, fmt.Sprint("done ", it.Bytes)) }
func (g *logGate) OnCancel(it sched.Item)            { g.log = append(g.log, fmt.Sprint("cancel ", it.Bytes)) }
func (g *logGate) OnPark(sched.Item)                 {}
func (g *logGate) OnResume(sched.Item)               {}

// A logGate that stopped satisfying sched.Admitter would silently run
// ungated and log nothing.
var _ sched.Admitter = (*logGate)(nil)

// TestPoolDefersSameChunk: with two threads, a second item for a chunk that
// is being processed is popped, refunded with Cancel — not Done, which an
// adaptive window would read as a completed transfer — and parked while
// the other thread takes the next chunk. When the chunk's item finishes,
// the parked one is re-queued before the done callback runs: item 4, which
// the callback adds at the same priority, queues behind it (the other way
// round, 4 would be popped first and deferred on its own busy chunk).
func TestPoolDefersSameChunk(t *testing.T) {
	var eng sim.Engine
	g := &logGate{}
	view := func(it Item) sched.Item { return sched.Item{Priority: it.Priority, Bytes: int64(it.Iter)} }
	cost := Costs(2, func(c int32) int64 { return 100 * int64(c+1) }, 10, 1) // 110 ns and 210 ns
	var p *Pool
	var finished []string
	p = NewPool(&eng, 2, cost, sched.NewQueue(g, view), func(it Item) {
		finished = append(finished, fmt.Sprintf("%d@%d", it.Iter, eng.Now()))
		if it.Iter == 1 {
			p.Add(Item{Chunk: 1, Iter: 4, Priority: 2})
		}
	})
	p.Add(Item{Chunk: 0, Iter: 1, Priority: 1}) // first thread, until 110
	p.Add(Item{Chunk: 0, Iter: 2, Priority: 2}) // same chunk: deferred
	p.Add(Item{Chunk: 1, Iter: 3, Priority: 3}) // second thread, until 210
	eng.Run()
	wantLog := "[start 1 start 2 cancel 2 start 3 done 1 start 2 done 3 start 4 done 2 done 4]"
	if fmt.Sprint(g.log) != wantLog {
		t.Errorf("admission log\n got %v\nwant %v", g.log, wantLog)
	}
	// 2 runs 110..220 on the freed thread; 4 gets the other one at 210.
	if want := "[1@110 3@210 2@220 4@420]"; fmt.Sprint(finished) != want {
		t.Errorf("finished %v, want %v", finished, want)
	}
}

// TestPoolDoesNotAllocate: once the queue's flow shells and the pool's one
// deferral list have grown, Add -> finish allocates nothing, deferrals
// included.
func TestPoolDoesNotAllocate(t *testing.T) {
	var eng sim.Engine
	view := func(it Item) sched.Item { return sched.Item{Priority: it.Priority, Bytes: 1, Dest: it.Src} }
	done := 0
	p := NewPool(&eng, 2, Costs(4, func(int32) int64 { return 100 }, 10, 1),
		sched.NewQueue(sched.MustByName("credit-adaptive"), view), func(Item) { done++ })
	batch := func() {
		for i := int32(0); i < 16; i++ {
			p.Add(Item{Chunk: i % 4 / 2, Src: i % 3, Priority: i % 5}) // two hot chunks: most items defer
		}
		eng.Run()
	}
	batch()
	if a := testing.AllocsPerRun(50, batch); a != 0 {
		t.Fatalf("%v allocations per 16 items, want 0", a)
	}
	if done != 16*52 {
		t.Fatalf("%d items finished, want %d", done, 16*52)
	}
}
