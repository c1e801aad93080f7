// Package sim implements the deterministic discrete-event engine that drives
// every timing experiment in this repository. The engine substitutes for the
// paper's physical four-machine GPU cluster: compute phases, NIC
// serialization, parameter-server processing and scheduling decisions are all
// expressed as events on a virtual clock.
//
// Determinism: events scheduled for the same instant fire in canonical key
// order — ascending (virtual scheduling time, scheduling LP, per-LP
// schedule order) — so a run is a pure function of its inputs (and of any
// explicitly seeded randomness in the workload). For events scheduled
// directly on an Engine the key reduces to plain scheduling order; the LP
// components exist so the sharded engine computes the identical order (see
// below).
//
// # Parallel execution, lookahead and the determinism contract
//
// The Exec interface abstracts the engine behind logical processes (LPs):
// Single runs every LP on one Engine, one heap and one clock, while
// Parallel shards LPs over goroutines, each shard with its own event heap
// and local clock, synchronized by conservative lookahead. A Parallel run
// remains a pure function of its inputs when the model obeys three rules:
//
//  1. State discipline: an event scheduled on LP p (Proc(p).At/After)
//     touches only state owned by p's shard. Interaction between LPs on
//     different shards goes through Cross.
//  2. Lookahead: every Cross(src, dst, at, fn) satisfies
//     at >= now(src) + lookahead, where lookahead is the minimum cross-LP
//     latency declared at construction (the link propagation delay in this
//     repository's network models). Parallel panics on a violating send and
//     NewParallel rejects a non-positive lookahead outright — a
//     zero-lookahead topology admits no safe window and would otherwise
//     deadlock or corrupt causality silently.
//  3. Canonical ties: shards advance in barrier-synchronous windows
//     [Tmin, Tmin+lookahead); rule 2 guarantees every cross message lands
//     at or past the window's horizon, so no shard can see an event it
//     should have influenced. Every event — local or cross — carries the
//     canonical key (virtual scheduling time, scheduling LP, per-LP
//     schedule order), stamped at the scheduling call from the
//     simulation's own state, and each shard's heap fires same-instant
//     events in key order. A cross message buffered across a barrier
//     keeps the key stamped at its send, so where it lands relative to
//     the destination's local events does not depend on the shard count,
//     the window boundaries, or goroutine interleaving: a local timer and
//     a cross arrival colliding at one instant resolve by who scheduled
//     first on the virtual clock, exactly as on a Single engine, where
//     scheduling-time order is call order. That is what pins an N-shard
//     run's Result — including under scripted fault plans, whose timing
//     perturbations manufacture exactly these collisions — to the 1-shard
//     run's.
//
// Within one shard, same-instant events still fire in scheduling order,
// exactly as on a Single engine.
package sim

import (
	"fmt"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Common durations, mirroring time.Duration conventions on the virtual clock.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// FromSeconds converts floating-point seconds to a virtual timestamp.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// event is one scheduled callback. Beyond the firing time, it carries the
// canonical tie key: the virtual instant it was scheduled at, and the
// packed (scheduling LP, per-LP schedule order) word. Both engines compute
// the key from the simulation alone, which is what lets same-instant ties
// resolve identically on any shard count (see the package comment).
//
// The struct is kept at 32 bytes deliberately: the heap moves events by
// value, and one more word pushes the copies off the compiler's
// register-move path and triples the per-event cost — which is why lp and
// seq share a word instead of having fields of their own.
//
//p3:sizebudget 32
type event struct {
	at    Time
	sched Time   // virtual time of the scheduling call
	ord   uint64 // ordKey(lp, seq): scheduling LP and per-LP schedule order
	fn    func()
}

// ordKey packs the last two canonical tie components into one word:
// scheduling LP plus one in the high 16 bits — zero marks raw Engine
// scheduling, which therefore sorts before any tagged LP scheduling at the
// same instant — and the per-LP schedule order in the low 48. The packing
// compares exactly like (lp, seq) lexicographically, and its limits
// (65534 LPs, 2^48 events scheduled per LP) sit orders of magnitude above
// any simulation this repository can hold in memory; NewParallel rejects
// LP counts beyond the field width.
func ordKey(lp int32, seq uint64) uint64 { return uint64(lp+1)<<48 | seq }

// eventHeap is a slab-backed binary min-heap of events ordered by the
// canonical key (at, sched, ord): all pending events live by value in
// one contiguous slice that is reused across the run, and the sift code is
// monomorphic — container/heap, which this replaced, boxed every scheduled
// event into an `any` and so cost one heap allocation per event on top of
// the caller's closure. pop clears the vacated slot, so the slab never
// pins a fired event's closure (and the whole object graph it captures)
// for the garbage collector.
type eventHeap []event

func (h eventHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].sched != h[j].sched {
		return h[i].sched < h[j].sched
	}
	return h[i].ord < h[j].ord
}

// push appends ev to the slab and sifts it up.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest event, clearing the vacated slot.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // the slab must not pin the fired closure
	s = s[:n]
	*h = s
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && s.before(right, left) {
			min = right
		}
		if !s.before(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
//
// Every event writes now, nRun and the heap's length, so the header must not
// share a cache line with anything another goroutine writes: sweeps run one
// engine per pool worker, each allocated by the run that uses it. At its
// natural 80 bytes the allocator packs it among that size class's other
// objects, and two concurrent cells then cost up to a third more wall time,
// by allocation luck (PR 19: the 24-cell -fast scale sweep on two workers,
// 5.1 s padded vs 4.9-7.0 s unpadded). 128 bytes is a size class whose
// objects are 128-byte aligned: two cache lines of the engine's own.
//
//p3:sizebudget 128
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	lpSeq   []uint64 // per-LP schedule counters for tagged (Proc/Cross) events
	stopped bool
	nRun    uint64
	_       [48]byte
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently corrupt causality in the simulation. Raw Engine
// scheduling tags the event with the zero LP mark and the engine-wide
// sequence, so same-instant events fire in call order: calls happen in
// nondecreasing virtual time, so (sched, seq) order is call order.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, sched: e.now, ord: e.seq, fn: fn})
}

// atFrom schedules fn at t with the canonical key of LP lp: the current
// virtual time and lp's own schedule counter. Single's per-LP Proc handles
// and its Cross path land here, so a tagged event carries the same key a
// Parallel run would compute for it.
func (e *Engine) atFrom(lp int32, t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if n := int(lp) + 1; n > len(e.lpSeq) {
		e.lpSeq = append(e.lpSeq, make([]uint64, n-len(e.lpSeq))...)
	}
	e.lpSeq[lp]++
	e.events.push(event{at: t, sched: e.now, ord: ordKey(lp, e.lpSeq[lp]), fn: fn})
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until the queue is empty or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		ev := e.events.pop()
		e.now = ev.at
		e.nRun++
		ev.fn()
	}
	return e.now
}

// RunUntil processes events with timestamps ≤ deadline, advances the clock to
// deadline, and returns it. Events after the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > deadline {
			break
		}
		ev := e.events.pop()
		e.now = ev.at
		e.nRun++
		ev.fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }
