package sched

import (
	"fmt"
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
// acknowledgements, cancels, bursts, drains and mid-run profile swaps.
// Both sides run their own fresh discipline instance; stateful disciplines
// (rr's stride clock, credit-adaptive's AIMD windows) stay in lockstep only
// while every walk consults Admit in the same order, so any divergence — in
// result OR in internal walk order — surfaces as a mismatch within a few
// steps. Items are drawn from where an integer key can go wrong: both ends
// of the signed ranges, classes outside the profile, huge and zero sizes,
// negative destinations.
func TestDispatchMatchesLinearScanReference(t *testing.T) {
	disciplines := []string{
		"fifo", "p3", "rr", "smallest", "tictac",
		"credit:1500", "credit-adaptive:1500",
		"damped", "damped:tictac", "damped:credit:1500",
	}
	for _, name := range disciplines {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(17, uint64(len(name))))
			for trial := 0; trial < 15; trial++ {
				p := newProgram(t, name, rng.IntN)
				p.label = fmt.Sprintf("trial %d", trial)
				for p.steps < 500 {
					p.step()
				}
				p.drain()
			}
		})
	}
}

// TestSlabSwapMatchesReference drives seeded scripts in which flows fill to
// different depths in bursts and then drain part or all of the queue, so
// deep slabs go idle while shallow recycled shells fill up: the pattern
// reslab's swap exists for. Dispatch must still equal refQueue's, and the
// scripts must have run the swap.
func TestSlabSwapMatchesReference(t *testing.T) {
	swaps := 0
	for _, name := range []string{"p3", "fifo", "credit-adaptive:1500"} {
		for seed := uint64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewPCG(seed, 29))
			p := newProgram(t, name, rng.IntN)
			p.label = fmt.Sprintf("%s seed %d", name, seed)
			for round := 0; round < 30; round++ {
				for b := rng.IntN(4); b >= 0; b-- {
					p.burst()
					p.check()
				}
				for k := rng.IntN(p.q.Len() + 1); k > 0; k-- {
					p.pop(rng.IntN(4))
				}
				for len(p.inflight) > 0 && rng.IntN(4) != 0 {
					p.release()
				}
				p.check()
			}
			p.drain()
			swaps += p.swaps
		}
	}
	if swaps < 200 {
		t.Fatalf("the scripts swapped slabs only %d times", swaps)
	}
}

// testProfiles are the timing profiles the reference programs apply: the
// first at construction, either one at a mid-run recalibration.
var testProfiles = []*Profile{
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

var (
	progPris  = []int32{math.MinInt32, -1, 0, 1, 2, 3, 4, 5, 6, 40, math.MaxInt32}
	progSizes = []int64{0, 1, 1 << 40, math.MaxInt64}
	progDests = []int32{math.MinInt32, -1, 0, 1, 2, 3, math.MaxInt32}
)

// program is the interpreter behind the queue's reference tests: it drives
// a Queue and its refQueue twin through the same operations and fails at
// the first primitive whose results differ. Every choice — which operation,
// which item — comes from next(n), an int in [0, n), so a seeded generator
// and a fuzzer's bytes run the same programs. Elements are indices into
// the item fields below.
type program struct {
	t     testing.TB
	label string
	next  func(n int) int
	q     *Queue[int]
	r     *refQueue[int]
	sizes []int64
	pri   []int32
	bytes []int64
	dest  []int32
	// inflight holds elements popped (charged) on both sides and not yet
	// released; the two queues share it because their pops must agree.
	inflight []int
	steps    int
	// swaps counts the pushes that found their flow's slab full while a
	// roomier slab sat idle on the free list: the pushes reslab swapped.
	swaps int
}

func newProgram(t testing.TB, name string, next func(n int) int) *program {
	p := &program{t: t, next: next, sizes: progSizes}
	view := func(i int) Item { return Item{Priority: p.pri[i], Bytes: p.bytes[i], Dest: p.dest[i]} }
	p.q = NewQueue(ApplyProfile(MustByName(name), testProfiles[0]), view)
	p.r = newRefQueue(ApplyProfile(MustByName(name), testProfiles[0]), view)
	// Sized or growing from empty: the flows' starting room must not move
	// dispatch either.
	p.q.SizeFlows(next(8))
	// A credit window sums the bytes in flight, so two MaxInt64 payloads
	// overflow it; gated disciplines stop at 1<<40.
	if p.q.Gated() {
		p.sizes = p.sizes[:len(p.sizes)-1]
	}
	return p
}

func (p *program) fail(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("%s step %d: %s", p.label, p.steps, fmt.Sprintf(format, args...))
}

// push queues k copies of one new item bound for dest on both sides:
// equal keys, so they leave in insertion order.
func (p *program) push(dest int32, k int) {
	pri := progPris[p.next(len(progPris))]
	// Mostly window-sized payloads, so the credit gates both admit and
	// refuse; the extremes ride along.
	size := int64(1 + p.next(999))
	if p.next(4) == 0 {
		size = p.sizes[p.next(len(p.sizes))]
	}
	for ; k > 0; k-- {
		if f := p.q.flows[dest]; f != nil && len(f.ents) == cap(f.ents) {
			for _, g := range p.q.free {
				if cap(g.ents) > cap(f.ents) {
					p.swaps++
					break
				}
			}
		}
		p.pri, p.bytes, p.dest = append(p.pri, pri), append(p.bytes, size), append(p.dest, dest)
		i := len(p.pri) - 1
		p.q.Push(i)
		p.r.Push(i)
	}
}

// burst pushes up to 24 copies of one item to one destination.
func (p *program) burst() {
	p.push(progDests[p.next(len(progDests))], 1+p.next(24))
}

// pop dispatches one element through PopReady, Pop or PopReadyIf (kind
// 0: Pop, 1: PopReadyIf, else PopReady).
func (p *program) pop(kind int) {
	var gv, wv int
	var gok, wok bool
	op := "PopReady"
	switch kind {
	case 0: // the drain path: bypasses the gate, still charges
		op = "Pop"
		gv, gok = p.q.Pop()
		wv, wok = p.r.Pop()
	case 1: // a deterministic veto
		op = "PopReadyIf"
		keep := func(i int) bool { return p.bytes[i]%3 != 0 }
		gv, gok = p.q.PopReadyIf(keep)
		wv, wok = p.r.PopReadyIf(keep)
	default:
		gv, gok = p.q.PopReady()
		wv, wok = p.r.PopReady()
	}
	if gv != wv || gok != wok {
		p.fail("%s = (%d,%v), reference (%d,%v)", op, gv, gok, wv, wok)
	}
	if gok {
		p.inflight = append(p.inflight, gv)
	}
}

// release acknowledges one in-flight element: Done or Cancel.
func (p *program) release() {
	if len(p.inflight) == 0 {
		return
	}
	k := p.next(len(p.inflight))
	v := p.inflight[k]
	p.inflight = append(p.inflight[:k], p.inflight[k+1:]...)
	if p.next(3) == 0 {
		p.q.Cancel(v)
		p.r.Cancel(v)
	} else {
		p.q.Done(v)
		p.r.Done(v)
	}
}

// step runs one operation and checks the result.
func (p *program) step() {
	op := p.next(64)
	if p.q.Len() == 0 && op < 42 {
		op = 0
	}
	switch {
	case op < 18:
		p.push(progDests[p.next(len(progDests))], 1)
	case op < 38:
		p.pop(p.next(4))
	case op < 42: // Preempts against a random in-flight hold
		if len(p.inflight) == 0 {
			p.push(progDests[p.next(len(progDests))], 1)
			break
		}
		hold := p.inflight[p.next(len(p.inflight))]
		if g, w := p.q.Preempts(hold), p.r.Preempts(hold); g != w {
			p.fail("Preempts(%d) = %v, reference %v", hold, g, w)
		}
	case op < 50:
		p.release()
	case op < 59:
		p.burst()
	case op < 63: // drain: whole flows empty at whatever depth they reached
		kind := p.next(4)
		for k := 1 + p.next(32); k > 0 && p.q.Len() > 0; k-- {
			p.pop(kind)
		}
	default: // recalibration under load: everything queued is re-keyed
		prof := testProfiles[p.next(len(testProfiles))]
		p.q.SetProfile(prof)
		p.r.SetProfile(prof)
	}
	p.steps++
	p.check()
}

// check compares both sides' lengths and fails if any slab slot outside
// the live entries holds a value: the slab must not pin dead values, and
// a slab reslab handed back to an idle shell must come back cleared.
func (p *program) check() {
	if p.q.Len() != p.r.Len() {
		p.fail("Len %d, reference %d", p.q.Len(), p.r.Len())
	}
	for _, f := range p.q.free {
		if len(f.ents) != 0 {
			p.fail("an idle shell holds %d entries", len(f.ents))
		}
		p.clean(f.ents[:cap(f.ents)])
	}
	for _, f := range p.q.heads {
		p.clean(f.ents[len(f.ents):cap(f.ents)])
	}
}

// clean fails unless every slot of ents is zero: the slab must not pin
// dead values.
func (p *program) clean(ents []entry[int]) {
	for _, e := range ents {
		if e != (entry[int]{}) {
			p.fail("an unused slab slot holds %+v", e)
		}
	}
}

// drain pops both sides to the end: the residual order must match too.
func (p *program) drain() {
	for {
		gv, gok := p.q.Pop()
		wv, wok := p.r.Pop()
		if gv != wv || gok != wok {
			p.fail("drain: Pop = (%d,%v), reference (%d,%v)", gv, gok, wv, wok)
		}
		if !gok {
			return
		}
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
	// The crash pattern: a deep flow drains, a shallow flow comes, then a
	// deep one comes again. The free list's top shell is the shallow one,
	// so the deep flow must take the idle deep slab instead of growing. The
	// first measured cycle is the first one that lands a deep flow on the
	// shallow shell.
	t.Run("crash pattern", func(t *testing.T) {
		q := NewQueue(MustByName("p3"), func(it Item) Item { return it })
		cycle := func() {
			for i := 0; i < 64; i++ {
				q.Push(Item{Priority: int32(i % 8), Dest: 0})
			}
			for i := 0; i < 4; i++ {
				q.Push(Item{Priority: 9, Dest: 1})
			}
			for q.Len() > 0 { // the deep flow drains first
				q.Pop()
			}
		}
		if a := testing.AllocsPerRun(1, cycle); a != 0 {
			t.Fatalf("a deep flow on a shallow recycled shell allocates %v, want 0", a)
		}
		if a := testing.AllocsPerRun(1000, cycle); a != 0 {
			t.Fatalf("the crash pattern allocates %v per cycle, want 0", a)
		}
	})
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
