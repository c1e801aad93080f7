package sched

import (
	"math/rand/v2"
	"testing"
)

func drain(q *Queue[int]) []int {
	var out []int
	for {
		v, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// items pushes n elements where element i carries priority pri[i] and size
// bytes[i]; the element value is its index, so pop order is observable.
func fill(q *Queue[int], pri []int32, bytes []int64) {
	for i := range pri {
		q.Push(i)
	}
	_ = bytes
}

func TestFIFOOrder(t *testing.T) {
	pri := []int32{3, 1, 2, 0}
	q := NewQueue(NewFIFO(), func(i int) Item { return Item{Priority: pri[i]} })
	fill(q, pri, nil)
	got := drain(q)
	for i, v := range got {
		if v != i {
			t.Fatalf("fifo pop order %v, want insertion order", got)
		}
	}
}

func TestP3PriorityOrderWithFIFOTies(t *testing.T) {
	pri := []int32{2, 0, 1, 0, 2, 1}
	q := NewQueue(NewP3Priority(), func(i int) Item { return Item{Priority: pri[i]} })
	fill(q, pri, nil)
	want := []int{1, 3, 2, 5, 0, 4} // by priority, ties in insertion order
	got := drain(q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("p3 pop order %v, want %v", got, want)
		}
	}
}

func TestSmallestFirstOrder(t *testing.T) {
	pri := []int32{0, 1, 2}
	bytes := []int64{300, 100, 200}
	q := NewQueue(NewSmallestFirst(), func(i int) Item { return Item{Priority: pri[i], Bytes: bytes[i]} })
	fill(q, pri, bytes)
	want := []int{1, 2, 0}
	got := drain(q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("smallest pop order %v, want %v", got, want)
		}
	}
}

func TestRoundRobinInterleavesLayers(t *testing.T) {
	// Three items of layer 0 queued before three of layer 1: strict priority
	// would emit 0,0,0,1,1,1; round-robin must alternate.
	pri := []int32{0, 0, 0, 1, 1, 1}
	q := NewQueue(NewRoundRobinLayer(), func(i int) Item { return Item{Priority: pri[i]} })
	fill(q, pri, nil)
	got := drain(q)
	var layers []int32
	for _, v := range got {
		layers = append(layers, pri[v])
	}
	want := []int32{0, 1, 0, 1, 0, 1}
	for i := range want {
		if layers[i] != want[i] {
			t.Fatalf("rr layer order %v, want %v", layers, want)
		}
	}
}

func TestRoundRobinLateFlowDoesNotHoardCredit(t *testing.T) {
	pri := []int32{0, 0, 0, 0, 1}
	q := NewQueue(NewRoundRobinLayer(), func(i int) Item { return Item{Priority: pri[i]} })
	// Dispatch several layer-0 items, then a layer-1 item arrives: it must
	// not jump ahead of everything by starting at pass 0.
	for i := 0; i < 3; i++ {
		q.Push(i)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatal("pop failed")
		}
	}
	q.Push(3) // layer 0 again
	q.Push(4) // layer 1, first appearance
	first, _ := q.Pop()
	second, _ := q.Pop()
	// Both were stamped at the current virtual time, so insertion order
	// (layer 0's item first) must hold — not a burst of the late flow.
	if first != 3 || second != 4 {
		t.Fatalf("late-flow pop order (%d,%d), want (3,4)", first, second)
	}
}

func TestCreditGatedWindow(t *testing.T) {
	pri := []int32{5, 5, 0}
	bytes := []int64{600, 600, 100}
	d := NewCreditGated(1000)
	q := NewQueue[int](d, func(i int) Item { return Item{Priority: pri[i], Bytes: bytes[i]} })
	q.Push(0)
	q.Push(1)

	v, ok := q.PopReady()
	if !ok || v != 0 {
		t.Fatalf("first PopReady = (%d,%v), want (0,true)", v, ok)
	}
	// 600 bytes in flight; another 600 would exceed the 1000-byte window.
	if _, ok := q.PopReady(); ok {
		t.Fatal("second low-priority item admitted beyond the credit window")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d while the window is full, want the refused item still queued", q.Len())
	}
	// An urgent item arrives; it is also blocked (the window is about
	// in-flight bytes), but as soon as credit returns it goes first.
	q.Push(2)
	q.Done(0)
	v, ok = q.PopReady()
	if !ok || v != 2 {
		t.Fatalf("post-credit PopReady = (%d,%v), want (2,true)", v, ok)
	}
	if d.InFlight() != 100 {
		t.Fatalf("in-flight = %d, want 100", d.InFlight())
	}
	// Oversized item with an idle queue must still be admitted.
	q.Done(2)
	big := NewCreditGated(10)
	qb := NewQueue[int](big, func(int) Item { return Item{Bytes: 1 << 20} })
	qb.Push(0)
	if _, ok := qb.PopReady(); !ok {
		t.Fatal("idle queue refused an oversized item: wedge")
	}
}

func TestByNameRegistry(t *testing.T) {
	for _, name := range []string{"fifo", "p3", "rr", "smallest", "credit", "tictac", "credit-adaptive"} {
		d, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if d.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, d.Name())
		}
	}
	for alias, canon := range map[string]string{
		"baseline": "fifo", "priority": "p3", "p3priority": "p3",
		"roundrobin": "rr", "sjf": "smallest", "bytescheduler": "credit",
		"dag": "tictac", "criticalpath": "tictac", "adaptive": "credit-adaptive",
	} {
		d, err := ByName(alias)
		if err != nil {
			t.Fatalf("ByName(%q): %v", alias, err)
		}
		if d.Name() != canon {
			t.Fatalf("alias %q resolved to %q, want %q", alias, d.Name(), canon)
		}
	}
	if d, err := ByName("credit:123"); err != nil {
		t.Fatalf("credit:123: %v", err)
	} else if d.(*CreditGated).Credit != 123 {
		t.Fatalf("credit:123 window = %d", d.(*CreditGated).Credit)
	}
	if _, err := ByName("credit:nope"); err == nil {
		t.Fatal("credit:nope accepted")
	}
	if _, err := ByName("zgoneba"); err == nil {
		t.Fatal("unknown discipline accepted")
	}
	if d, err := ByName(""); err != nil || d.Name() != "fifo" {
		t.Fatalf("empty name = (%v,%v), want fifo", d, err)
	}
	if len(Names()) < 7 {
		t.Fatalf("Names() = %v, want at least the 7 built-ins", Names())
	}
	// Malformed parameterizations must not silently resolve.
	for _, bad := range []string{"credit:", "credit-adaptive:", "credit-adaptive:0", "credit-adaptive:x", "rr:junk", "tictac:5", "fifo:0", ":"} {
		if d, err := ByName(bad); err == nil {
			t.Fatalf("ByName(%q) silently resolved to %q", bad, d.Name())
		}
	}
	if d, err := ByName("credit-adaptive:65536"); err != nil {
		t.Fatalf("credit-adaptive:65536: %v", err)
	} else if a := d.(*AdaptiveCredit); a.Initial != 65536 {
		t.Fatalf("credit-adaptive:65536 initial window = %d", a.Initial)
	}
}

func ttProfile(needUs []int64, layerKB []int64, gbps float64) *Profile {
	p := &Profile{GbpsEstimate: gbps}
	for i := range needUs {
		p.NeedAtNs = append(p.NeedAtNs, needUs[i]*1000)
		p.LayerBytes = append(p.LayerBytes, layerKB[i]*1000)
	}
	return p
}

func TestTicTacDegradesToP3WithoutProfile(t *testing.T) {
	pri := []int32{2, 0, 1, 0}
	q := NewQueue(NewTicTac(), func(i int) Item { return Item{Priority: pri[i]} })
	fill(q, pri, nil)
	want := []int{1, 3, 2, 0}
	got := drain(q)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("profile-less tictac pop order %v, want p3 order %v", got, want)
		}
	}
}

func TestTicTacSlackReordersHeavyLayer(t *testing.T) {
	// Layer 0: tiny tensor needed immediately. Layer 1: huge tensor needed
	// only 1 ms later but costing 8 ms to move at 1 Gbps — its slack is far
	// more negative, so tictac starts it first, where p3 would not.
	prof := ttProfile([]int64{0, 1000}, []int64{1, 1000}, 1)
	tt := NewTicTac()
	tt.SetProfile(prof)
	if tt.Slack(0) <= tt.Slack(1) {
		t.Fatalf("slack(0)=%d <= slack(1)=%d, want heavy layer more urgent", tt.Slack(0), tt.Slack(1))
	}
	pri := []int32{0, 1}
	q := NewQueue[int](tt, func(i int) Item { return Item{Priority: pri[i]} })
	fill(q, pri, nil)
	got := drain(q)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("pop order %v, want the heavy layer (item 1) first", got)
	}
}

func TestTicTacKeepsInsertionOrderWithinLayer(t *testing.T) {
	// Chunks of one layer differ in size, but the rank is per layer: they
	// must dequeue in insertion order (a smaller tail chunk sorting behind
	// future full-size arrivals would starve the layer's completion).
	prof := ttProfile([]int64{0, 1000}, []int64{500, 500}, 1)
	tt := NewTicTac()
	tt.SetProfile(prof)
	sizes := []int64{200, 192, 200}
	q := NewQueue[int](tt, func(i int) Item { return Item{Priority: 0, Bytes: sizes[i]} })
	for i := range sizes {
		q.Push(i)
	}
	got := drain(q)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-layer pop order %v, want insertion order", got)
		}
	}
}

func TestTicTacOutOfRangePriorityClamps(t *testing.T) {
	prof := ttProfile([]int64{0, 1000}, []int64{1, 1}, 1)
	tt := NewTicTac()
	tt.SetProfile(prof)
	if tt.Slack(-3) != tt.Slack(0) || tt.Slack(99) != tt.Slack(1) {
		t.Fatalf("out-of-range slack not clamped: %d/%d vs %d/%d",
			tt.Slack(-3), tt.Slack(99), tt.Slack(0), tt.Slack(1))
	}
}

func TestAdaptiveCreditPerDestinationIndependence(t *testing.T) {
	a := NewAdaptiveCredit(1000)
	full := Item{Bytes: 900, Dest: 1}
	if !a.Admit(full) {
		t.Fatal("idle window refused")
	}
	a.OnStart(full)
	if a.Admit(Item{Bytes: 900, Dest: 1}) {
		t.Fatal("dest 1 admitted beyond its window")
	}
	// Destination 2 has its own window: unaffected by dest 1's backlog.
	other := Item{Bytes: 900, Dest: 2}
	if !a.Admit(other) {
		t.Fatal("dest 2 blocked by dest 1's in-flight bytes")
	}
	a.OnStart(other)
	if a.InFlight(1) != 900 || a.InFlight(2) != 900 {
		t.Fatalf("in-flight (%d,%d), want (900,900)", a.InFlight(1), a.InFlight(2))
	}
	a.OnDone(full)
	a.OnDone(other)
}

func TestAdaptiveCreditGrowsOnStall(t *testing.T) {
	a := NewAdaptiveCredit(1000)
	it := Item{Bytes: 800, Dest: 3}
	a.Admit(it)
	a.OnStart(it)
	// The gate refuses more traffic, then the window drains dry: a stall.
	if a.Admit(Item{Bytes: 800, Dest: 3}) {
		t.Fatal("second item admitted inside the window")
	}
	a.OnDone(it)
	if got := a.Window(3); got != 1000+a.Step {
		t.Fatalf("window after stall = %d, want %d", got, 1000+a.Step)
	}
	// Repeated stalls saturate at Max, never beyond.
	for i := 0; i < 1000; i++ {
		a.Admit(it)
		a.OnStart(it)
		a.Admit(Item{Bytes: a.Max, Dest: 3})
		a.OnDone(it)
	}
	if got := a.Window(3); got != a.Max {
		t.Fatalf("window after repeated stalls = %d, want capped at %d", got, a.Max)
	}
}

func TestAdaptiveCreditHugeInitialDoesNotOverflow(t *testing.T) {
	// initial*16 would overflow int64; Max must clamp, not go negative
	// (a negative ceiling would pin every window to one item in flight).
	a := NewAdaptiveCredit(1 << 62)
	if a.Max < a.Initial {
		t.Fatalf("Max %d below Initial %d: overflow", a.Max, a.Initial)
	}
	it := Item{Bytes: 100, Dest: 1}
	if !a.Admit(it) {
		t.Fatal("huge window refused a small item")
	}
	a.OnStart(it)
	if !a.Admit(Item{Bytes: 100, Dest: 1}) {
		t.Fatal("second small item refused inside a huge window")
	}
	a.OnDone(it)
}

func TestAdaptiveCreditBatchFlushDoesNotRatchet(t *testing.T) {
	// The real send loops (pstcp worker/server) pop until the gate refuses,
	// then flush and Done the whole pending batch, draining the window to
	// zero with a refusal on record. That is bookkeeping, not starvation:
	// the window must hold, or every destination would ratchet to Max under
	// sustained load and the gate would degrade to an ungated p3 queue.
	a := NewAdaptiveCredit(1000)
	for cycle := 0; cycle < 100; cycle++ {
		batch := []Item{{Bytes: 400, Dest: 7}, {Bytes: 400, Dest: 7}}
		for _, it := range batch {
			if !a.Admit(it) {
				t.Fatalf("cycle %d: in-window item refused", cycle)
			}
			a.OnStart(it)
		}
		if a.Admit(Item{Bytes: 400, Dest: 7}) {
			t.Fatalf("cycle %d: item admitted beyond the window", cycle)
		}
		for _, it := range batch { // flushAll: a burst of Dones
			a.OnDone(it)
		}
	}
	if got := a.Window(7); got != 1000 {
		t.Fatalf("window after batched flush cycles = %d, want unchanged 1000", got)
	}
}

func TestAdaptiveCreditCancelDoesNotFeedAIMD(t *testing.T) {
	// A processing pool that pops an item and immediately re-queues it
	// (per-key serialization deferral) refunds via Cancel: the in-flight
	// charge returns, but neither the clean-byte shrink counter nor the
	// stall detector may move — those signals describe transfers that
	// actually happened.
	a := NewAdaptiveCredit(1000)
	view := func(i int) Item { return Item{Priority: 0, Bytes: 300, Dest: 2} }
	q := NewQueue(Discipline(a), view)
	for cycle := 0; cycle < 50; cycle++ {
		q.Push(cycle)
		v, ok := q.PopReady()
		if !ok {
			t.Fatalf("cycle %d: pop refused on refunded window", cycle)
		}
		q.Cancel(v) // the pool would stash v and re-Push it later
	}
	if got := a.Window(2); got != 1000 {
		t.Fatalf("window after cancel churn = %d, want unchanged 1000", got)
	}
	if got := a.InFlight(2); got != 0 {
		t.Fatalf("in-flight after cancel churn = %d, want 0", got)
	}
	// Cancel on a gate-less discipline is a no-op, and on CreditGated it
	// falls back to Done semantics (the window is static anyway).
	qf := NewQueue(NewFIFO(), view)
	qf.Push(1)
	v, _ := qf.PopReady()
	qf.Cancel(v)
	c := NewCreditGated(1000)
	qc := NewQueue(Discipline(c), view)
	qc.Push(1)
	v, _ = qc.PopReady()
	qc.Cancel(v)
	if c.InFlight() != 0 {
		t.Fatalf("CreditGated in-flight after Cancel = %d, want 0", c.InFlight())
	}
}

func TestAdaptiveCreditShrinksWhenUnconstrained(t *testing.T) {
	a := NewAdaptiveCredit(1000)
	it := Item{Bytes: 300, Dest: 5}
	// Sequential singleton traffic never touches the gate: after two
	// windows' worth of clean bytes the window halves, down to Min.
	for i := 0; i < 7; i++ {
		if !a.Admit(it) {
			t.Fatalf("iteration %d: unconstrained item refused", i)
		}
		a.OnStart(it)
		a.OnDone(it)
	}
	if got := a.Window(5); got >= 1000 {
		t.Fatalf("window after unconstrained traffic = %d, want shrunk below 1000", got)
	}
	for i := 0; i < 200; i++ {
		a.Admit(it)
		a.OnStart(it)
		a.OnDone(it)
	}
	if got := a.Window(5); got < a.Min {
		t.Fatalf("window shrank to %d, below Min %d", got, a.Min)
	}
}

func TestAdaptiveCreditQueueNeverExceedsWindow(t *testing.T) {
	// Through the Queue wrapper: pops stop exactly at the window, drain
	// resumes on Done, and the most urgent item still goes first.
	a := NewAdaptiveCredit(1000)
	sizes := []int64{600, 600, 100}
	pris := []int32{5, 5, 0}
	q := NewQueue[int](a, func(i int) Item { return Item{Priority: pris[i], Bytes: sizes[i], Dest: 1} })
	q.Push(0)
	q.Push(1)
	if v, ok := q.PopReady(); !ok || v != 0 {
		t.Fatalf("first PopReady = (%d,%v), want (0,true)", v, ok)
	}
	if _, ok := q.PopReady(); ok {
		t.Fatal("second item admitted beyond the window")
	}
	q.Push(2)
	q.Done(0)
	if v, ok := q.PopReady(); !ok || v != 2 {
		t.Fatalf("post-credit PopReady = (%d,%v), want the urgent item", v, ok)
	}
}

func TestByNameReturnsFreshInstances(t *testing.T) {
	a := MustByName("rr").(*RoundRobinLayer)
	b := MustByName("rr").(*RoundRobinLayer)
	ita := Item{Priority: 7}
	ita = a.Rank(ita)
	ita = a.Rank(ita)
	itb := Item{Priority: 7}
	itb = b.Rank(itb)
	if itb.rank != 0 {
		t.Fatal("rr instances share pass state across queues")
	}
}

// TestPriorityInvariantProperty: under any interleaving of pushes and pops,
// p3 never emits an item while a strictly more urgent one is queued.
func TestPriorityInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		pris := make([]int32, 0, 256)
		q := NewQueue(NewP3Priority(), func(i int) Item { return Item{Priority: pris[i]} })
		queued := map[int32]int{} // priority -> count currently queued
		for step := 0; step < 400; step++ {
			if rng.IntN(2) == 0 || q.Len() == 0 {
				p := int32(rng.IntN(8))
				pris = append(pris, p)
				q.Push(len(pris) - 1)
				queued[p]++
				continue
			}
			v, _ := q.Pop()
			got := pris[v]
			for p, n := range queued {
				if n > 0 && p < got {
					t.Fatalf("trial %d: popped priority %d while %d queued", trial, got, p)
				}
			}
			queued[got]--
		}
	}
}
