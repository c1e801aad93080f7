package worker

import (
	"fmt"
	"strings"
	"testing"

	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/sim"
)

// threeLayers is a jitter-free model whose layers are below the shard
// threshold: one chunk per layer.
func threeLayers() *model.Model {
	m := &model.Model{Name: "three", BatchSize: 6, SampleUnit: "images",
		PlateauPerWorker: 1000, FwdFraction: 1.0 / 3.0}
	for i, flops := range []int64{100, 200, 100} {
		m.Layers = append(m.Layers, model.Layer{
			Index: i, Name: string(rune('a' + i)), Kind: model.KindConv,
			Params: 1000, FwdFLOPs: flops,
		})
	}
	return m
}

// newTestLoop builds a loop of n workers on a bare engine, warm-up 2.
func newTestLoop(eng *sim.Engine, n, measure int) (*Loop, *model.Timing) {
	m := threeLayers()
	procs := make([]sim.Proc, n)
	for w := range procs {
		procs[w] = eng
	}
	return NewLoop(m, core.PartitionShards(m, 0, 1), procs, 2, measure, 1, 0), model.NewTiming(m)
}

// TestLoopClosedForm drives two workers against a fake aggregation method
// that installs layer l a fixed delay after the worker produced its
// gradient, and checks every number of the Summary against the timeline
// worked out by hand.
//
// With delay[0] = d the next forward pass reaches layer 0 the instant the
// backward pass ends and stalls d. It then reaches layer 1 f0 later, while
// layer 1's gradient left b0 before the backward pass ended: with
// delay[1] = d + b0 + f0 + x that is a stall of x. Layer 2 installs at
// once. So from the second iteration on every iteration costs
// compute + d + x. Worker 1's delays are e longer, so it sets the makespan;
// the stalls reported are worker 0's, over the measured iterations only.
func TestLoopClosedForm(t *testing.T) {
	const d, x, e = 7 * sim.Microsecond, 11 * sim.Microsecond, 5 * sim.Microsecond
	const measure = 3
	var eng sim.Engine
	lp, tm := newTestLoop(&eng, 2, measure)
	delay := func(w, l int) sim.Time {
		extra := sim.Time(w) * e
		switch l {
		case 0:
			return d + extra
		case 1:
			return d + extra + tm.Bwd[0] + tm.Fwd[0] + x
		}
		return 0
	}
	var order []int
	lp.Grad = func(w, l int, iter int32) {
		if w == 0 && iter == 0 {
			order = append(order, l)
		}
		eng.After(delay(w, l), func() { lp.Installed(w, l, iter) })
	}
	lp.Start()
	eng.Run()
	s := lp.Summary("test")

	if fmt.Sprint(order) != "[2 1 0]" {
		t.Errorf("gradients produced in layer order %v, want last layer first", order)
	}
	c := tm.IterCompute
	iter := c + d + e + x
	if s.ComputeIterTime != c {
		t.Errorf("compute iteration %d, want %d", s.ComputeIterTime, c)
	}
	if want := c + iter; s.WarmupEnd != want {
		t.Errorf("warm-up ended at %d, want %d (a stall-free first iteration, then one stalled)", s.WarmupEnd, want)
	}
	if len(s.IterTimes) != measure {
		t.Fatalf("%d iteration times, want %d", len(s.IterTimes), measure)
	}
	for i, it := range s.IterTimes {
		if it != iter {
			t.Errorf("iteration %d took %d, want %d", i, it, iter)
		}
	}
	if s.MeanIterTime != iter {
		t.Errorf("mean iteration %d, want %d", s.MeanIterTime, iter)
	}
	if want := float64(measure*2*6) / (measure * iter).Seconds(); s.Throughput != want {
		t.Errorf("throughput %v, want %v", s.Throughput, want)
	}
	// Iteration 1 stalled too, but it is warm-up.
	if want := fmt.Sprint([]sim.Time{measure * d, measure * x, 0}); fmt.Sprint(s.LayerStalls) != want {
		t.Errorf("worker 0 stalls %v, want %v", s.LayerStalls, want)
	}
}

// TestStepEndAndIterDone: StepEnd places every compute step (a worker that
// is away starts when it rejoins and runs the step in full), IterDone runs
// once per iteration before the next forward pass.
func TestStepEndAndIterDone(t *testing.T) {
	const rejoin = 50 * sim.Millisecond
	var eng sim.Engine
	lp, tm := newTestLoop(&eng, 1, 1)
	lp.Grad = func(w, l int, iter int32) { lp.Installed(w, l, iter) }
	lp.StepEnd = func(w int, now, d sim.Time) sim.Time {
		if now < rejoin && now >= tm.Fwd[0] { // away from the end of the first step
			return rejoin + d
		}
		return now + 2*d // a straggler otherwise
	}
	var done []int32
	lp.IterDone = func(w int, iter int32) { done = append(done, iter) }
	lp.Start()
	eng.Run()
	if fmt.Sprint(done) != "[0 1 2]" {
		t.Errorf("IterDone for iterations %v, want [0 1 2]", done)
	}
	// First step doubled, the second deferred to the rejoin instant, and
	// every step from there on doubled.
	want := rejoin + 2*(3*tm.IterCompute-tm.Fwd[0]-tm.Fwd[1]) + tm.Fwd[1]
	if eng.Now() != want {
		t.Errorf("run ended at %d, want %d", eng.Now(), want)
	}
}

// TestInstalledWakesOnlyTheAwaitedLayer: a worker stalled at layer 0 stays
// stalled when another layer's parameters land, tells the Stalled hook
// once, and resumes when layer 0's land.
func TestInstalledWakesOnlyTheAwaitedLayer(t *testing.T) {
	var eng sim.Engine
	lp, _ := newTestLoop(&eng, 1, 1)
	lp.Grad = func(int, int, int32) {}
	stalls := 0
	lp.Stalled = func(w, l int, iter int32, since sim.Time) {
		stalls++
		if w != 0 || l != 0 || iter != 1 || since != eng.Now() {
			t.Errorf("Stalled(%d, %d, %d, %d) at %d", w, l, iter, since, eng.Now())
		}
	}
	lp.Start()
	eng.Run()
	if !lp.Waiting(0, 0, 1) || stalls != 1 {
		t.Fatalf("after iteration 0: waiting at layer 0 = %v, %d stall(s) notified", lp.Waiting(0, 0, 1), stalls)
	}
	lp.Installed(0, 1, 0)
	if !lp.Waiting(0, 0, 1) || eng.Pending() != 0 {
		t.Fatalf("installing layer 1 woke a worker waiting for layer 0 (%d events pending)", eng.Pending())
	}
	lp.Installed(0, 0, 0)
	if lp.Waiting(0, 0, 1) || eng.Pending() != 1 || stalls != 1 {
		t.Fatalf("installing layer 0: still waiting = %v, %d events pending, %d stall(s)", lp.Waiting(0, 0, 1), eng.Pending(), stalls)
	}
}

// TestSummaryPanicsWhenWedged: a layer that never installs leaves the
// engine drained with iterations missing; Summary must say so.
func TestSummaryPanicsWhenWedged(t *testing.T) {
	var eng sim.Engine
	lp, _ := newTestLoop(&eng, 2, 2)
	lp.Grad = func(w, l int, iter int32) {
		if w == 1 && l == 2 && iter == 1 {
			return // lost
		}
		lp.Installed(w, l, iter)
	}
	lp.Start()
	eng.Run()
	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"cell-7", "worker 1", "iteration 3", "wedged"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q does not mention %q", msg, want)
			}
		}
	}()
	lp.Summary("cell-7")
	t.Fatal("Summary returned for a wedged run")
}

// TestLoopStepsDoNotAllocate: a steady-state iteration — forward and
// backward steps, a stall and its wake-up included — allocates nothing.
func TestLoopStepsDoNotAllocate(t *testing.T) {
	const runs = 50
	var eng sim.Engine
	lp, tm := newTestLoop(&eng, 1, 2*runs)
	var iterOf int32
	install0 := func() { lp.Installed(0, 0, iterOf) }
	lp.Grad = func(w, l int, iter int32) {
		if l == 0 {
			iterOf = iter
			eng.After(sim.Microsecond, install0) // stalls the next forward pass
			return
		}
		lp.Installed(w, l, iter)
	}
	lp.Start()
	iteration := func() { eng.RunUntil(eng.Now() + tm.IterCompute + sim.Microsecond) }
	iteration()
	if a := testing.AllocsPerRun(runs, iteration); a != 0 {
		t.Fatalf("%v allocations per iteration, want 0", a)
	}
	if eng.Pending() == 0 {
		t.Fatal("the run ended inside the measurement")
	}
}
