package sim

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := (3 * Millisecond).Millis(); got != 3.0 {
		t.Fatalf("Millis = %v", got)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.500000s" {
		t.Fatalf("String = %q", s)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var eng Engine
	rng := rand.New(rand.NewPCG(7, 9))
	times := make([]Time, 200)
	for i := range times {
		times[i] = Time(rng.IntN(1_000_000))
	}
	var fired []Time
	for _, at := range times {
		at := at
		eng.At(at, func() { fired = append(fired, at) })
	}
	end := eng.Run()

	sorted := append([]Time(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(fired) != len(sorted) {
		t.Fatalf("fired %d events, want %d", len(fired), len(sorted))
	}
	for i := range fired {
		if fired[i] != sorted[i] {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], sorted[i])
		}
	}
	if end != sorted[len(sorted)-1] {
		t.Fatalf("Run returned %v, want %v", end, sorted[len(sorted)-1])
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	var eng Engine
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		eng.At(1000, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie at same timestamp fired out of order: %v", order)
		}
	}
}

func TestAfterAccumulates(t *testing.T) {
	var eng Engine
	var at Time
	eng.After(10, func() {
		eng.After(5, func() { at = eng.Now() })
	})
	eng.Run()
	if at != 15 {
		t.Fatalf("nested After fired at %v, want 15", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var eng Engine
	eng.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		eng.At(50, func() {})
	})
	eng.Run()
}

func TestRunUntil(t *testing.T) {
	var eng Engine
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		eng.At(at, func() { fired = append(fired, at) })
	}
	if end := eng.RunUntil(25); end != 25 {
		t.Fatalf("RunUntil returned %v, want 25", end)
	}
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", len(fired))
	}
	if eng.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", eng.Pending())
	}
	eng.Run()
	if len(fired) != 4 {
		t.Fatalf("second Run fired %d total, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	var eng Engine
	count := 0
	for i := 1; i <= 10; i++ {
		eng.At(Time(i), func() {
			count++
			if count == 3 {
				eng.Stop()
			}
		})
	}
	eng.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt run: %d events fired", count)
	}
	if eng.Pending() != 7 {
		t.Fatalf("pending after Stop = %d, want 7", eng.Pending())
	}
}

func TestProcessedCounter(t *testing.T) {
	var eng Engine
	for i := 0; i < 5; i++ {
		eng.After(Time(i), func() {})
	}
	eng.Run()
	if eng.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", eng.Processed())
	}
}

// TestDeterminism: two identical schedules fire identically.
func TestDeterminism(t *testing.T) {
	runOnce := func() []Time {
		var eng Engine
		rng := rand.New(rand.NewPCG(42, 42))
		var out []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 3 {
				return
			}
			eng.After(Time(rng.IntN(100)), func() {
				out = append(out, eng.Now())
				spawn(depth + 1)
				spawn(depth + 1)
			})
		}
		spawn(0)
		eng.Run()
		return out
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// The engine's scheduling benchmark (engine/event) lives in
// internal/benchmarks, shared with `p3bench bench` and the CI regression
// gate, and runs under go test via the root BenchmarkDispatch driver.

// TestPoppedEventSlotCleared pins slab hygiene: once an event has fired, no
// place an event can sit — the heap's slab, a batch's, the current
// instant's — may keep its closure reachable, or a long run would pin every
// dead closure and whatever it captured until the engine is dropped. The
// schedule fires some instants from the heap alone and some from batches,
// stops mid-instant with events pending in all three places, and stops
// again after a batch outgrew its slab and moved onto the larger one the
// current instant just spent, so the check sees every slab with live and
// with fired slots.
func TestPoppedEventSlotCleared(t *testing.T) {
	var eng Engine
	fired := map[int]bool{}
	probe, probed := false, -1
	id := 0
	var mk func() func()
	mk = func() func() {
		me := id
		id++
		return func() {
			if probe {
				probed = me
				return
			}
			fired[me] = true
			switch me {
			case 8: // the third of instant 4
				eng.Stop()
			case 56: // the last of instant 100: its slab is spent
				for i := 0; i < 5; i++ {
					eng.At(300, mk())
				}
				eng.Stop()
			}
		}
	}
	for _, at := range []Time{1, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6, 7, 7} {
		eng.At(at, mk())
	}
	for i := 0; i < 40; i++ {
		eng.At(100, mk())
	}
	eng.At(300, mk())
	eng.At(300, mk())
	check := func(wantPending int) {
		t.Helper()
		seen := map[int]bool{}
		forEachSlot(&eng.q, func(where string, ev event) {
			probe = true
			ev.fn()
			probe = false
			if fired[probed] {
				t.Fatalf("%s slot still pins fired event %d's closure", where, probed)
			}
			if seen[probed] {
				t.Fatalf("event %d sits in two slots", probed)
			}
			seen[probed] = true
		})
		if len(seen) != wantPending || eng.Pending() != wantPending {
			t.Fatalf("slots hold %d events, Pending %d, want %d", len(seen), eng.Pending(), wantPending)
		}
	}
	eng.Run()
	if len(fired) != 9 {
		t.Fatalf("fired %d events before the first Stop, want 9", len(fired))
	}
	if b := eng.q.b; b == nil || b.next == len(b.cur) || b.n == 0 || len(eng.q.heap) == 0 {
		t.Fatal("schedule no longer leaves events pending in the current instant, a batch and the heap")
	}
	check(id - 9)
	eng.Run()
	if b := eng.q.b; len(fired) != 57 || b.n != 1 || cap(b.evs[0]) < 40 {
		t.Fatal("schedule no longer moves a full batch onto the spent current instant's slab")
	}
	check(id - 57)
	eng.Run()
	check(0)
}

// forEachSlot calls fn on every non-empty slot of every slab q holds,
// including the capacity past each slice's length.
func forEachSlot(q *queue, fn func(where string, ev event)) {
	walk := func(where string, s []event) {
		for _, ev := range s[:cap(s)] {
			if ev.fn != nil {
				fn(where, ev)
			}
		}
	}
	walk("heap", q.heap)
	if b := q.b; b != nil {
		walk("current-instant", b.cur)
		for i := range b.evs {
			walk(fmt.Sprintf("batch %d", i), b.evs[i])
		}
	}
}

// TestEngineSteadyStateAllocs pins the scheduling cost: re-arming an event
// from within an event (the simulator's universal pattern) must not allocate
// once the slabs have grown — container/heap boxed every push into an `any`,
// one heap allocation per event on top of the caller's closure. The tied
// case re-arms 64 events at one shared instant, so every push after the
// first lands in a batch and every instant fires from the current-instant
// slab: those slabs pass between the batches and the current instant
// without being reallocated.
func TestEngineSteadyStateAllocs(t *testing.T) {
	t.Run("distinct", func(t *testing.T) {
		var eng Engine
		var tick func()
		n := 0
		tick = func() {
			n++
			if n%2 == 0 {
				eng.After(10, tick) // re-arm with the SAME closure value: no capture alloc
			} else {
				eng.After(5, tick)
			}
		}
		eng.After(1, tick)
		avg := testing.AllocsPerRun(500, func() {
			eng.RunUntil(eng.Now() + 100)
		})
		if avg != 0 {
			t.Fatalf("steady-state event scheduling allocates %.2f per 100-tick window, want 0", avg)
		}
	})
	t.Run("tied", func(t *testing.T) {
		var eng Engine
		var tick func()
		tick = func() { eng.After(10, tick) }
		for i := 0; i < 64; i++ {
			eng.After(1, tick)
		}
		avg := testing.AllocsPerRun(500, func() {
			eng.RunUntil(eng.Now() + 100)
		})
		if avg != 0 {
			t.Fatalf("re-arming 64 tied events allocates %.2f per 10-instant window, want 0", avg)
		}
		if eng.q.b == nil || eng.Pending() != 64 {
			t.Fatalf("the tied re-arm no longer batches (%d pending)", eng.Pending())
		}
	})
}
