package cluster

import (
	"testing"

	"p3/internal/strategy"
	"p3/internal/zoo"
)

// scaleCfg is the scale-axis configuration (resnet50 at the 1.5 Gbps
// bottleneck, the cell that exposed the inversion) under one discipline, on
// the parameter server or, with allReduce, on the ring.
func scaleCfg(t *testing.T, machines int, sched string, allReduce bool) Config {
	t.Helper()
	st, err := strategy.SlicingOnly(0).WithSched(sched)
	if err != nil {
		t.Fatal(err)
	}
	st.Name = "sliced+" + sched
	if allReduce {
		st.Name = "ar-" + sched
	}
	return Config{
		Model: zoo.ByName("resnet50"), Machines: machines, Strategy: st,
		BandwidthGbps: 1.5, WarmupIters: 1, MeasureIters: 2, Seed: 1,
		AllReduce: allReduce,
	}
}

// runScale runs the parameter-server scale-axis configuration.
func runScale(t *testing.T, machines int, sched string) Result {
	t.Helper()
	return Run(scaleCfg(t, machines, sched, false))
}

// TestInversionFixedAt64Machines pins the fix for the 64-machine
// p3-vs-fifo inversion (PR 4's finding): on the parameter-server path at
// the bottleneck bandwidth, strict p3 loses to fifo at high fan-in — every
// machine defers its gradient-push tail behind fresher urgent broadcasts in
// lockstep and the aggregation barrier turns the shared deferral into idle
// ingest windows — while the damped rank transform must beat BOTH, at the
// small scale where strict priority was already winning and at the scale
// that inverted it.
func TestInversionFixedAt64Machines(t *testing.T) {
	if testing.Short() {
		t.Skip("64-machine sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("64-machine sweeps under -race (covered by the dedicated non-race CI step)")
	}
	for _, machines := range []int{4, 64} {
		fifo := runScale(t, machines, "fifo")
		p3 := runScale(t, machines, "p3")
		damped := runScale(t, machines, "damped")
		if damped.MeanIterTime > fifo.MeanIterTime {
			t.Errorf("x%d: damped-p3 iteration %.2f ms above fifo %.2f ms — the inversion fix regressed",
				machines, damped.MeanIterTime.Millis(), fifo.MeanIterTime.Millis())
		}
		if machines == 64 {
			// At the fan-in that inverted strict priority, damping must
			// recover more than the whole inversion, not just edge past
			// fifo.
			if damped.MeanIterTime > p3.MeanIterTime {
				t.Errorf("x64: damped-p3 iteration %.2f ms above strict p3 %.2f ms",
					damped.MeanIterTime.Millis(), p3.MeanIterTime.Millis())
			}
			// Document the inversion itself: this log firing means strict
			// p3 no longer loses at 64 machines and the damped default
			// weight should be re-tuned (see ROADMAP).
			if p3.MeanIterTime <= fifo.MeanIterTime {
				t.Logf("note: strict p3 (%.2f ms) no longer inverts against fifo (%.2f ms) at 64 machines",
					p3.MeanIterTime.Millis(), fifo.MeanIterTime.Millis())
			}
		}
	}
}
