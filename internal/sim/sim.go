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
// directly on an Engine (Engine.At) the key reduces to plain scheduling
// order; the LP components exist so a sharded run computes the identical
// order (see below).
//
// # Parallel execution, lookahead and the determinism contract
//
// The Exec interface abstracts the engine behind logical processes (LPs).
// An *Engine is the one-shard Exec: every LP shares its queue and clock.
// Parallel shards LPs over goroutines, and each shard is an Engine of its
// own with a local clock, synchronized with the others by conservative
// lookahead. A Parallel run remains a pure function of its inputs when the
// model obeys three rules:
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
//     schedule order), stamped at the scheduling call by the Engine that
//     runs the scheduling LP (Engine.stamp, the one place a tagged key is
//     made), and each queue fires same-instant events in key order. A
//     cross message buffered across a barrier keeps the key stamped at its
//     send, so where it lands relative to the destination's local events
//     does not depend on the shard count, the window boundaries, or
//     goroutine interleaving: a local timer and a cross arrival colliding
//     at one instant resolve by who scheduled first on the virtual clock,
//     exactly as on one Engine, where scheduling-time order is call order.
//     That is what pins an N-shard run's Result — including under scripted
//     fault plans, whose timing perturbations manufacture exactly these
//     collisions — to the 1-shard run's.
//
// Parallel.Stop lands at the next window barrier: every shard finishes the
// window under way, so no shard loads a shared flag per event.
//
// A one-shard run uses a bare Engine, not a one-shard Parallel, which
// pays the tagged key and a window barrier per lookahead on top. On a
// 2-vCPU host a self-rescheduling tick costs 27.2 ns/event through
// NewParallel(1, ...) against 18.0 on the Engine (the bench probes
// sim.proc1_ns_per_event and sim.single_ns_per_event_d1, medians of one
// traced bench run): about 9 ns, half again the engine's own cost per
// event. That gap is why cluster keeps its Shards >= 2 branch.
//
// # Same-instant batching
//
// An Engine, and so every shard, keeps its pending events in one queue type.
// Symmetric machines finish identical work together, so ties on the virtual
// clock are the common case, not the exception: 95 % of ring16's fired
// events and 94 % of rack256_hier's (per shard) fire at the same instant as
// the event before them, against 31 % on faults64_credit, 23 % on ps64_flat
// and 10 % on paper4. A binary heap pays for each tie a sift per push and
// per pop whose every level compares all three key words, and its depth is
// not what costs: ring16 holds only 32–127 events pending. So the queue puts
// the first event of an instant in its heap and the instant's later events
// in a batch, sorts the batch once when the instant comes up, and fires it
// from a slice (see queue). Because the key is a strict total order, the
// firing order, and with it every Result, is the one a plain heap gives.
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

// Proc is the scheduling handle of one logical process: a local clock and
// the ability to schedule events on it. *Engine satisfies Proc, so
// single-engine code and LP-aware code share one vocabulary.
type Proc interface {
	Now() Time
	At(t Time, fn func())
	After(d Time, fn func())
}

// Exec abstracts the execution engine behind logical processes. *Engine is
// the one-shard Exec; Parallel shards LPs over goroutines under
// conservative lookahead (see the package comment for the contract).
type Exec interface {
	// Proc returns the scheduling handle of LP lp. Handles carry the LP
	// identity for the canonical tie key; callers should cache them.
	Proc(lp int) Proc
	// Cross schedules fn on dst's timeline at absolute time at, from an
	// event currently executing on src's timeline. On a Parallel exec, at
	// must be at least src's clock plus the lookahead.
	Cross(src, dst int, at Time, fn func())
	// Shards reports the parallelism: 1 for an Engine.
	Shards() int
	// ShardOf names the shard, in [0, Shards()), whose goroutine runs LP
	// lp's events: 0 for an Engine. State indexed by it is touched by one
	// goroutine only, so models keep per-shard bookkeeping without a lock
	// (netsim pools its message records per shard).
	ShardOf(lp int) int
	Run() Time
	Stop()
	Processed() uint64
}

// Engine is a discrete-event scheduler, and the one-shard Exec: every LP
// shares its queue and clock. Each shard of a Parallel run is an Engine
// too. The zero value is ready to use.
//
// Every event writes now, nRun and the queue, so the header must not share a
// cache line with anything another goroutine writes: sweeps run one engine
// per pool worker, each allocated by the run that uses it. Unpadded (80
// bytes then, 104 with the batching queue) the allocator packs it among
// that size class's other objects, and two concurrent cells then cost up
// to a third more wall time,
// by allocation luck (PR 19: the 24-cell -fast scale sweep on two workers,
// 5.1 s padded vs 4.9-7.0 s unpadded). 128 bytes is a size class whose
// objects are 128-byte aligned: two cache lines of the engine's own.
//
//p3:sizebudget 128
type Engine struct {
	now     Time
	q       queue
	seq     uint64
	lpSeq   []uint64 // per-LP schedule counters for tagged (Proc/Cross) events
	stopped bool
	nRun    uint64
	_       [24]byte
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.nRun }

// Shards reports 1: an Engine runs every LP on one queue and clock.
func (e *Engine) Shards() int { return 1 }

// ShardOf reports 0: every LP runs on the Engine's one queue.
func (e *Engine) ShardOf(int) int { return 0 }

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
	e.q.push(event{at: t, sched: e.now, ord: e.seq, fn: fn})
}

// Proc returns LP lp's scheduling handle: the events it schedules carry
// lp's canonical key, the one a Parallel run computes for them.
func (e *Engine) Proc(lp int) Proc { return lpProc{e: e, lp: int32(lp)} }

// Cross schedules fn at at with the sending LP's key. Every LP shares the
// engine's queue, so dst needs no routing.
func (e *Engine) Cross(src, _ int, at Time, fn func()) { e.atFrom(int32(src), at, fn) }

// lpProc is the scheduling handle of LP lp on the Engine that runs it.
type lpProc struct {
	e  *Engine
	lp int32
}

func (p lpProc) Now() Time               { return p.e.now }
func (p lpProc) At(t Time, fn func())    { p.e.atFrom(p.lp, t, fn) }
func (p lpProc) After(d Time, fn func()) { p.e.atFrom(p.lp, p.e.now+d, fn) }

// atFrom schedules fn at t with the canonical key of LP lp.
func (e *Engine) atFrom(lp int32, t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.q.push(event{at: t, sched: e.now, ord: e.stamp(lp), fn: fn})
}

// stamp advances LP lp's schedule counter and returns the per-LP word of
// its next event's canonical key. It is the one place a tagged key is
// made: an LP's events are all stamped by the Engine that runs it, so its
// counter reads the same at any shard count.
func (e *Engine) stamp(lp int32) uint64 {
	if int(lp) >= len(e.lpSeq) {
		e.lpSeq = append(e.lpSeq, make([]uint64, int(lp)+1-len(e.lpSeq))...)
	}
	e.lpSeq[lp]++
	return ordKey(lp, e.lpSeq[lp])
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until the queue is empty or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time {
	e.run(maxTime)
	return e.now
}

// RunUntil processes events with timestamps ≤ deadline, advances the clock to
// deadline, and returns it. Events after the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	e.run(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// run fires events with timestamps ≤ deadline until none is left or Stop is
// called.
func (e *Engine) run(deadline Time) {
	e.stopped = false
	for !e.stopped {
		ev, ok := e.q.popUntil(deadline)
		if !ok {
			return
		}
		e.now = ev.at
		e.nRun++
		ev.fn()
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.len() }
