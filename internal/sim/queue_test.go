package sim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// refEngine is the order oracle for the engine's queue: it keeps pending
// events in a plain slice and fires the least by (at, sched, ord), stamping
// keys exactly as Engine.At and Engine.atFrom document them.
type refEngine struct {
	now     Time
	seq     uint64
	lpSeq   []uint64
	pending []event
	stopped bool
}

func (r *refEngine) at(lp int, t Time, fn func()) {
	if t < r.now {
		panic("refEngine: scheduling in the past")
	}
	ord := uint64(0)
	if lp < 0 {
		r.seq++
		ord = r.seq
	} else {
		for len(r.lpSeq) <= lp {
			r.lpSeq = append(r.lpSeq, 0)
		}
		r.lpSeq[lp]++
		ord = ordKey(int32(lp), r.lpSeq[lp])
	}
	r.pending = append(r.pending, event{at: t, sched: r.now, ord: ord, fn: fn})
}

func (r *refEngine) runUntil(deadline Time) {
	r.stopped = false
	for !r.stopped && len(r.pending) > 0 {
		first := 0
		for i := range r.pending {
			if before(&r.pending[i], &r.pending[first]) {
				first = i
			}
		}
		ev := r.pending[first]
		if ev.at > deadline {
			break
		}
		r.pending = slices.Delete(r.pending, first, first+1)
		r.now = ev.at
		ev.fn()
	}
	if deadline != maxTime && r.now < deadline { // Run leaves the clock at the last event
		r.now = deadline
	}
}

// scheduler is what a queue program needs of an engine: scheduling as raw
// Engine calls (lp < 0), as LP lp's Proc (lp < progLPs) or as a Cross from
// LP lp-progLPs, the clock, Stop, and a run up to a deadline (maxTime:
// Run).
type scheduler struct {
	now      func() Time
	at       func(lp int, t Time, fn func())
	stop     func()
	runUntil func(deadline Time)
}

// progLPs is how many LPs a queue program schedules on.
const progLPs = 6

func engineScheduler(eng *Engine) scheduler {
	procs := make([]Proc, progLPs)
	for lp := range procs {
		procs[lp] = eng.Proc(lp)
	}
	return scheduler{
		now: eng.Now,
		at: func(lp int, t Time, fn func()) {
			switch {
			case lp < 0:
				eng.At(t, fn)
			case lp >= progLPs:
				eng.Cross(lp-progLPs, 0, t, fn) // an Engine stamps Cross with the sender's key
			default:
				procs[lp].At(t, fn)
			}
		},
		stop: eng.Stop,
		runUntil: func(deadline Time) {
			if deadline == maxTime {
				eng.Run()
			} else {
				eng.RunUntil(deadline)
			}
		},
	}
}

func refScheduler(r *refEngine) scheduler {
	return scheduler{
		now: func() Time { return r.now },
		at: func(lp int, t Time, fn func()) {
			if lp >= progLPs {
				lp -= progLPs
			}
			r.at(lp, t, fn)
		},
		stop:     func() { r.stopped = true },
		runUntil: r.runUntil,
	}
}

// runProgram interprets code as a queue program on s and returns the trace
// of fired events (id, time) plus the clock after each top-level run (-1,
// time). Every fired event reads its actions from code: how many children to
// schedule, each child's delay (from a small set, so instants repeat, zero
// included) and scheduler (raw Engine, one of six LPs, or a Cross), and
// whether to Stop. Top level seeds a first wave, then alternates RunUntil
// on deadlines drawn from the same set of instants with Run, restarting
// after every Stop, until the queue drains or the event budget is spent.
func runProgram(s scheduler, code []byte) []int64 {
	pc := 0
	next := func() int {
		if len(code) == 0 {
			return 0
		}
		b := code[pc%len(code)]
		pc++
		return int(b)
	}
	delays := [...]Time{0, 10, 10, 10, 20, 20, 30, 50}
	var trace []int64
	fired, ids := 0, 0
	const budget = 500
	var mk func() func()
	mk = func() func() {
		id := ids
		ids++
		return func() {
			fired++
			trace = append(trace, int64(id), int64(s.now()))
			op := next()
			if op%17 == 0 {
				s.stop()
			}
			children := op % 4
			if fired > budget {
				children = 0
			}
			for c := 0; c < children; c++ {
				b := next()
				lp := b%(2*progLPs+1) - 1 // -1: raw; then a Proc or a Cross
				d := delays[(b>>4)%len(delays)]
				if lp >= 6 && d < 10 {
					d = 10
				}
				s.at(lp, s.now()+d, mk())
			}
		}
	}
	for i, n := 0, 4+next()%12; i < n; i++ {
		b := next()
		s.at(b%(2*progLPs+1)-1, delays[(b>>4)%len(delays)], mk())
	}
	for round := 0; round < 40; round++ {
		var deadline Time = maxTime
		if b := next(); b%3 != 0 {
			deadline = s.now() + delays[b%len(delays)] + Time(b%2)
		}
		s.runUntil(deadline)
		trace = append(trace, -1, int64(s.now()))
	}
	return trace
}

// checkProgram runs code on an Engine and on the reference and compares.
func checkProgram(t *testing.T, name string, code []byte) {
	t.Helper()
	var eng Engine
	got := runProgram(engineScheduler(&eng), code)
	ref := &refEngine{}
	want := runProgram(refScheduler(ref), code)
	if !slices.Equal(got, want) {
		for i := 0; i < len(got); i += 2 {
			if i >= len(want) || got[i] != want[i] || got[i+1] != want[i+1] {
				t.Fatalf("%s: firing order diverges from the reference at step %d: (id, time; -1: run returned) pairs\n got %v\nwant %v", name, i/2, got[i:min(i+16, len(got))], want[i:min(i+16, len(want))])
			}
		}
		t.Fatalf("%s: engine fired %d steps, reference %d", name, len(got)/2, len(want)/2)
	}
	if eng.Pending() != len(ref.pending) {
		t.Fatalf("%s: %d events pending, reference %d", name, eng.Pending(), len(ref.pending))
	}
}

// TestQueueMatchesReference holds the engine's firing order equal to a
// plain sort by (at, sched, ord) over seeded programs, and over hand-written
// schedules for the cases the batching has to get right.
func TestQueueMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x9e3779b9))
		code := make([]byte, 64+rng.IntN(512))
		for i := range code {
			code[i] = byte(rng.Uint32())
		}
		checkProgram(t, fmt.Sprintf("seed %d", seed), code)
	}

	type step struct {
		lp int
		at Time
	}
	cases := []struct {
		name  string
		steps []step
	}{
		// 300 events at one instant from every kind of scheduler.
		{"one instant", func() []step {
			var s []step
			for i := 0; i < 300; i++ {
				s = append(s, step{i%(2*progLPs+1) - 1, 100})
			}
			return s
		}()},
		// A, B, C, A, ...: each instant pushed again after others, and
		// more instants than there are batches.
		{"interleaved instants", func() []step {
			var s []step
			for i := 0; i < 200; i++ {
				s = append(s, step{i%7 - 1, Time(100 * (1 + i%3))}, step{i%5 - 1, Time(100 * (1 + i%11))})
			}
			return s
		}()},
	}
	for _, c := range cases {
		for _, mode := range []string{"run", "until"} {
			var trace [2][]string
			for k := range trace {
				var s scheduler
				var eng Engine
				ref := &refEngine{}
				if k == 0 {
					s = engineScheduler(&eng)
				} else {
					s = refScheduler(ref)
				}
				for i, st := range c.steps {
					s.at(st.lp, st.at, func() {
						trace[k] = append(trace[k], fmt.Sprintf("%d@%d", i, s.now()))
						if i%9 == 0 {
							// A zero-delay push into the firing instant.
							s.at(i%(2*progLPs+1)-1, s.now(), func() { trace[k] = append(trace[k], fmt.Sprintf("z%d@%d", i, s.now())) })
						}
						if i%41 == 0 {
							s.stop()
						}
					})
				}
				deadline := maxTime
				if mode == "until" {
					deadline = 200 // lands on an instant with batched events
				}
				for r := 0; r < 20; r++ {
					s.runUntil(deadline)
					trace[k] = append(trace[k], fmt.Sprintf("run->%d", s.now()))
				}
				s.runUntil(maxTime)
			}
			if !reflect.DeepEqual(trace[0], trace[1]) {
				t.Fatalf("%s/%s: firing order diverges from the reference:\n got %v\nwant %v", c.name, mode, trace[0], trace[1])
			}
		}
	}
}

// FuzzQueueOrder runs arbitrary queue programs against the reference.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05\x13\x21\x35\x47\x59\x6b\x7d\x8f\x91\xa3\xb5"))
	f.Add([]byte{0x10, 0x10, 0x10, 0x10, 0x11, 0x11, 0x00, 0x22})
	f.Fuzz(func(t *testing.T, code []byte) {
		checkProgram(t, "fuzz", code)
	})
}
