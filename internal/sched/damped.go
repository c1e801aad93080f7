package sched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Damped is a composable rank transform over a priority-ordered base
// discipline: fan-in-aware priority damping. Each item's dispatch rank is
//
//	rank = arrival epoch + Weight × class
//
// where the arrival epoch is the queue's enqueue counter and class is the
// item's priority level in the base discipline's order (the raw layer
// priority under p3/credit, the slack-sorted position under a profiled
// tictac). Lower rank dispatches first, ties in insertion order. Weight is
// the damping horizon: an urgent item may overtake at most Weight×Δclass
// earlier arrivals, so Weight→0 degrades to fifo, Weight→∞ to the base's
// strict order, and any finite Weight bounds priority inversion — no class
// can be starved by an unbounded stream of fresher, more urgent work.
//
// The pathology it exists for is the 64-machine p3-vs-fifo inversion on the
// parameter-server path (see ROADMAP). Under strict priority at high fan-in
// the cluster's NICs run far below saturation: every machine prefers the
// freshly-aggregated urgent broadcasts over its own remaining gradient-push
// tail, all 64 workers defer the same tail layers in lockstep, and the
// aggregation barrier (a chunk's update needs every worker's push) turns
// that shared deferral into idle ingest windows on every server — measured
// at 64 machines/1.5 Gbps, strict p3 holds the wire at 66% utilization
// versus fifo's 86% and runs 34% slower; the damped rank restores the
// pipeline (push tails age into dispatch) while keeping enough priority to
// beat fifo's arrival order at every machine count.
//
// Ranks collide whenever a fresher more-urgent item lands on an older less
// urgent one's damped position (epoch difference == Weight × class
// difference — a constant occurrence in a saturated queue). Those ties are
// broken by the per-source rotation in the low bits, Dest XOR source seed
// (the queue owner's identity, injected via ApplySource): each source
// machine resolves the same tie toward a different destination, so the N
// otherwise-identical schedules fan the contested window out across
// receivers instead of synchronizing on one.
//
// The transform never drops or duplicates work: the dispatch order is a
// permutation of the base schedule with bounded per-item displacement
// (pinned by TestDampedIsPermutation and TestDampedNoStarvation). The bound
// costs a little strictness where strict priority was already optimal — at
// 4 machines damped-p3 trails strict p3 by under 1% while still beating
// fifo — and buys back the whole inversion at 64.
//
// Damped needs no Profile of its own: with a profile-aware base
// (damped:tictac) the profile is forwarded and the class mapping follows
// the base's slack order; without one the base's documented fallback
// applies (tictac degrades to p3) and a Profile-less damped is simply
// damped p3 order — it never panics.
type Damped struct {
	base Discipline
	// Weight is the damping horizon in queued items per priority class
	// step. DefaultDampWeight when zero.
	weight uint64
	seq    uint64
	// src is the queue owner's rotation seed (Sourced); 0 without one.
	src uint32
	// classOf maps Item.Priority to the base discipline's class index;
	// nil means identity (p3/credit order). A profiled tictac base
	// installs its slack-sorted positions here via SetProfile.
	classOf []uint64
}

// DefaultDampWeight is the damping horizon used by the bare "damped" name:
// an urgent item overtakes at most 8 queued items per class step it is
// ahead of — near-strict priority through the shallow queues of small
// clusters, bounded tail starvation in the deep queues of large ones.
// Chosen by sweeping the 4/16/64-machine scale axis (weights 1..32;
// TestInversionFixedAt64Machines and the experiments.Scale sweep pin the
// result).
const DefaultDampWeight = 8

// dampedRotBits is the width of the rotation tie-break packed into the low
// bits of Item.rank; the damped rank occupies the high bits.
const dampedRotBits = 16

// NewDamped wraps base in the damped rank transform with the given weight
// (0 selects DefaultDampWeight). base must be priority-ordered — p3,
// tictac, or a credit discipline; bases that rank at enqueue themselves
// (rr, another damped) or order by something other than the priority class
// (fifo, smallest) are rejected.
func NewDamped(base Discipline, weight int64) (Discipline, error) {
	if _, ok := base.(Ranker); ok {
		return nil, fmt.Errorf("sched: damped cannot wrap %s (it already ranks at enqueue)", base.Name())
	}
	switch base.(type) {
	case *P3Priority, *TicTac, *CreditGated, *AdaptiveCredit:
	default:
		return nil, fmt.Errorf("sched: damped wraps priority-ordered disciplines (p3, tictac, credit, credit-adaptive), not %s", base.Name())
	}
	if weight < 0 {
		return nil, fmt.Errorf("sched: damped weight %d (want >= 0)", weight)
	}
	if weight == 0 {
		weight = DefaultDampWeight
	}
	d := &Damped{base: base, weight: uint64(weight)}
	if adm, ok := base.(Admitter); ok {
		return &gatedDamped{Damped: *d, Admitter: adm}, nil
	}
	return d, nil
}

// Base returns the wrapped discipline.
func (d *Damped) Base() Discipline { return d.base }

// Weight returns the damping horizon (items per class step).
func (d *Damped) Weight() int64 { return int64(d.weight) }

func (d *Damped) Name() string { return "damped:" + d.base.Name() }

// class maps a priority to its class index in the base's order.
func (d *Damped) class(pri int32) uint64 {
	if pri < 0 {
		pri = 0
	}
	if len(d.classOf) > 0 {
		if int(pri) >= len(d.classOf) {
			pri = int32(len(d.classOf) - 1)
		}
		return d.classOf[pri]
	}
	return uint64(pri)
}

// SetSource installs the queue owner's rotation seed (Sourced).
func (d *Damped) SetSource(src int32) { d.src = uint32(src) }

// Rank stamps the item with (epoch + Weight×class) in the high bits and
// the per-source rotation (Dest XOR source seed) in the low tie-break
// bits.
func (d *Damped) Rank(it Item) Item {
	e := d.seq + d.weight*d.class(it.Priority)
	d.seq++
	it.rank = e<<dampedRotBits | uint64(uint16(uint32(it.Dest)^d.src))
	return it
}

// Key is the damped rank; full ties keep insertion order, as under every
// discipline.
func (d *Damped) Key(it Item) (hi, lo uint64) { return it.rank, 0 }

// SetProfile forwards the timing profile when the base is profile-aware
// (damped:tictac) and rebuilds the class mapping from the base's slack
// order, so damping and the base agree on which class is more urgent.
// Otherwise it is a no-op — damped itself never needs a profile.
func (d *Damped) SetProfile(p *Profile) {
	pd, ok := d.base.(Profiled)
	if !ok {
		return
	}
	pd.SetProfile(p)
	d.classOf = nil
	t, ok := d.base.(*TicTac)
	if !ok || p == nil {
		return
	}
	// Position of each priority in the slack order (ties by priority,
	// mirroring TicTac.Key). An empty profile carries no class order:
	// keep the identity mapping (and the no-panic contract).
	n := len(p.NeedAtNs)
	if n == 0 {
		return
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := t.Slack(order[i]), t.Slack(order[j])
		if si != sj {
			return si < sj
		}
		return order[i] < order[j]
	})
	d.classOf = make([]uint64, n)
	for pos, pri := range order {
		d.classOf[pri] = uint64(pos)
	}
}

// gatedDamped is the wrapper variant for Admitter bases (damped:credit,
// damped:credit-adaptive): the rank transform plus the base's own credit
// window. It is a separate type so that a damped ungated base does not
// present an Admitter to the queue (which would route every dispatch
// through the admission walk).
type gatedDamped struct {
	Damped
	Admitter
}

// dampedByArg resolves "damped[:base[@weight]]" from the text after the
// first colon.
func dampedByArg(arg string) (Discipline, error) {
	base, weight := arg, int64(0)
	// The optional trailing "@<weight>" tunes the damping horizon:
	// "damped:credit:1048576@16" wraps credit:1048576 at weight 16.
	if i := strings.LastIndexByte(arg, '@'); i >= 0 {
		n, err := strconv.ParseInt(arg[i+1:], 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sched: damped weight %q (want a positive item count)", arg[i+1:])
		}
		base, weight = arg[:i], n
	}
	if base == "" {
		base = "p3"
	}
	b, err := ByName(base)
	if err != nil {
		return nil, fmt.Errorf("sched: damped base: %w", err)
	}
	return NewDamped(b, weight)
}
