package sched

import (
	"math/rand/v2"
	"strings"
	"testing"
)

func ident(it Item) Item { return it }

// TestDampedRegistry pins the damped factory's name grammar: bare damped
// wraps p3 at the default weight, ":base" selects the base, "@weight" tunes
// the horizon, and non-priority-ordered or enqueue-ranking bases are
// rejected with a diagnostic.
func TestDampedRegistry(t *testing.T) {
	d := MustByName("damped")
	dd, ok := d.(*Damped)
	if !ok {
		t.Fatalf("damped resolved to %T", d)
	}
	if dd.Base().Name() != "p3" || dd.Weight() != DefaultDampWeight {
		t.Fatalf("bare damped = %s @%d, want p3 @%d", dd.Base().Name(), dd.Weight(), DefaultDampWeight)
	}
	if got := MustByName("damped:tictac").Name(); got != "damped:tictac" {
		t.Fatalf("damped:tictac resolved to %s", got)
	}
	g, ok := MustByName("damped:credit-adaptive:1048576@16").(*gatedDamped)
	if !ok {
		t.Fatalf("damped over an Admitter base must present the gated wrapper")
	}
	if g.Weight() != 16 {
		t.Fatalf("explicit weight lost: got %d", g.Weight())
	}
	if _, ok := MustByName("damped:credit").(Admitter); !ok {
		t.Fatal("damped:credit lost the base's Admitter")
	}
	if _, ok := MustByName("damped:p3").(Admitter); ok {
		t.Fatal("damped:p3 must not present an Admitter (base has none)")
	}
	for _, bad := range []string{
		"damped:rr",       // ranks at enqueue
		"damped:damped",   // ditto
		"damped:fifo",     // not priority-ordered
		"damped:smallest", // ordered by size, not priority
		"damped:nope",     // unknown base
		"damped:p3@0",     // weight must be positive
		"damped:p3@x",     // weight must be a number
	} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) = nil error, want rejection", bad)
		}
	}
}

// TestByNameErrorMentionsDamped: the unknown-discipline diagnostic must
// list the damped wrapper with its argument grammar, so a user who
// misspells a name discovers the full registry including parameterized
// forms.
func TestByNameErrorMentionsDamped(t *testing.T) {
	_, err := ByName("bogus")
	if err == nil {
		t.Fatal("ByName(bogus) succeeded")
	}
	for _, want := range []string{"damped[:base[@weight]]", "credit[:bytes]", "credit-adaptive[:bytes]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestDampedProfileLessDegradesToP3: a damped:tictac without a Profile must
// behave exactly like damped p3 order (tictac's documented fallback), and
// must not panic anywhere on the dispatch path.
func TestDampedProfileLessDegradesToP3(t *testing.T) {
	mk := func(name string) *Queue[Item] { return NewQueue(MustByName(name), ident) }
	a, b := mk("damped:tictac"), mk("damped:p3")
	rng := rand.New(rand.NewPCG(7, 9))
	var items []Item
	for i := 0; i < 500; i++ {
		items = append(items, Item{
			Priority: int32(rng.IntN(20)),
			Bytes:    int64(1 + rng.IntN(4096)),
			Dest:     int32(rng.IntN(8)),
		})
	}
	for _, it := range items {
		a.Push(it)
		b.Push(it)
	}
	for i := 0; a.Len() > 0; i++ {
		va, _ := a.Pop()
		vb, _ := b.Pop()
		if va != vb {
			t.Fatalf("pop %d: profile-less damped:tictac %+v != damped:p3 %+v", i, va, vb)
		}
	}
	if b.Len() != 0 {
		t.Fatal("length mismatch")
	}
}

// TestDampedIsPermutation: damping reorders the schedule but never changes
// its contents — popping everything yields exactly the pushed multiset, for
// random workloads across several weights.
func TestDampedIsPermutation(t *testing.T) {
	for _, name := range []string{"damped:p3@1", "damped", "damped:p3@64"} {
		rng := rand.New(rand.NewPCG(11, 13))
		q := NewQueue(MustByName(name), ident)
		pushed := map[Item]int{}
		popped := map[Item]int{}
		n := 0
		for round := 0; round < 50; round++ {
			for i := 0; i < rng.IntN(40); i++ {
				it := Item{
					Priority: int32(rng.IntN(16)),
					Bytes:    int64(1 + rng.IntN(1024)),
					Dest:     int32(rng.IntN(6)),
				}
				pushed[it]++
				q.Push(it)
				n++
			}
			for i := 0; i < rng.IntN(30) && q.Len() > 0; i++ {
				v, _ := q.Pop()
				// Clear the discipline-stamped rank: pushed items were
				// recorded pre-rank.
				popped[Item{Priority: v.Priority, Bytes: v.Bytes, Dest: v.Dest}]++
			}
		}
		for q.Len() > 0 {
			v, _ := q.Pop()
			popped[Item{Priority: v.Priority, Bytes: v.Bytes, Dest: v.Dest}]++
		}
		if len(pushed) != len(popped) {
			t.Fatalf("%s: %d distinct pushed vs %d popped", name, len(pushed), len(popped))
		}
		for it, cnt := range pushed {
			if popped[it] != cnt {
				t.Fatalf("%s: item %+v pushed %d times, popped %d", name, it, cnt, popped[it])
			}
		}
	}
}

// TestDampedNoStarvation pins the bounded-inversion contract: a queued
// low-priority item is overtaken by at most Weight x Δclass later arrivals,
// so even an unbounded stream of fresher urgent work cannot starve it.
func TestDampedNoStarvation(t *testing.T) {
	const weight = 8
	const lowPri = 10
	q := NewQueue(MustByName("damped:p3@8"), ident)
	low := Item{Priority: lowPri, Bytes: 1, Dest: 1}
	q.Push(low)
	overtakes := 0
	for i := 0; i < 10*weight*lowPri; i++ {
		q.Push(Item{Priority: 0, Bytes: 1, Dest: 2})
		v, _ := q.Pop()
		if v.Priority == lowPri {
			if overtakes > weight*lowPri {
				t.Fatalf("low-priority item overtaken %d times, bound is %d", overtakes, weight*lowPri)
			}
			return
		}
		overtakes++
	}
	t.Fatalf("low-priority item starved: still queued after %d urgent dispatches", overtakes)
}

// TestDampedStrictWithShallowQueue: with a horizon that covers the whole
// backlog, damped dispatches exactly like its base — the small-cluster
// regime where strict priority is the right call must be preserved.
func TestDampedStrictWithShallowQueue(t *testing.T) {
	q := NewQueue(MustByName("damped:p3@64"), ident)
	// 6 items, max Δclass 5: horizon 64x5 far exceeds the backlog.
	prios := []int32{5, 3, 4, 1, 2, 0}
	for _, p := range prios {
		q.Push(Item{Priority: p, Bytes: 1, Dest: p})
	}
	for want := int32(0); want < 6; want++ {
		v, _ := q.Pop()
		if v.Priority != want {
			t.Fatalf("shallow-queue damped popped priority %d, want strict order %d", v.Priority, want)
		}
	}
}

// TestDampedRotationBreaksTiesPerSource: when an older less-urgent item and
// a fresher more-urgent one collide on the same damped rank, the tie
// resolves by Dest XOR the queue owner's source seed (ApplySource) — so two
// source machines running the identical schedule resolve the same collision
// toward different destinations, the de-synchronization that keeps N
// senders off one receiver's ingest window.
func TestDampedRotationBreaksTiesPerSource(t *testing.T) {
	const weight = 8
	order := func(src int32) []int32 {
		q := NewQueue(ApplySource(MustByName("damped:p3@8"), src), ident)
		// Epoch 0: one class-1 item to dest 0 -> rank 0 + 8x1 = 8.
		q.Push(Item{Priority: 1, Bytes: 1, Dest: 0})
		// Epochs 1..7: class-0 fillers, ranks 1..7.
		for i := 0; i < weight-1; i++ {
			q.Push(Item{Priority: 0, Bytes: 1, Dest: 9})
		}
		// Epoch 8: a class-0 item to dest 1 -> rank 8, tying the first.
		q.Push(Item{Priority: 0, Bytes: 1, Dest: 1})
		var out []int32
		for q.Len() > 0 {
			v, _ := q.Pop()
			if v.Dest != 9 {
				out = append(out, v.Dest)
			}
		}
		return out
	}
	// Source 0: rotations 0^0=0 vs 1^0=1 -> dest 0 wins the tie.
	if o := order(0); o[0] != 0 || o[1] != 1 {
		t.Fatalf("source 0 resolved the rank tie as %v, want [0 1]", o)
	}
	// Source 1: rotations 0^1=1 vs 1^1=0 -> dest 1 wins the same tie.
	if o := order(1); o[0] != 1 || o[1] != 0 {
		t.Fatalf("source 1 resolved the rank tie as %v, want [1 0]", o)
	}
}

// TestDampedTictacClassMapping: with a profile installed, damped:tictac
// damps along the base's slack order, not the raw layer order — a heavy
// early-deadline tensor outranks a light later one exactly as bare tictac
// would, while within a class the damped epoch applies.
func TestDampedTictacClassMapping(t *testing.T) {
	prof := &Profile{
		// Three classes; class 2's deadline is so early relative to its
		// transfer that its slack beats class 0 and 1.
		NeedAtNs:     []int64{5000, 6000, 7000},
		LayerBytes:   []int64{100, 100, 1_000_000},
		GbpsEstimate: 1,
	}
	d := ApplyProfile(MustByName("damped:tictac"), prof)
	q := NewQueue(d, ident)
	q.Push(Item{Priority: 0, Bytes: 1, Dest: 0})
	q.Push(Item{Priority: 2, Bytes: 1, Dest: 1})
	v, _ := q.Pop()
	if v.Priority != 2 {
		t.Fatalf("damped:tictac popped class %d first, want the negative-slack class 2", v.Priority)
	}
	// Bare tictac must agree on the class order.
	tt := ApplyProfile(MustByName("tictac"), prof)
	if !Less(tt, Item{Priority: 2}, Item{Priority: 0}) {
		t.Fatal("tictac itself does not rank class 2 first; test premise broken")
	}
}
