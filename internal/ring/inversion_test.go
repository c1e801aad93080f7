package ring

import (
	"testing"

	"p3/internal/strategy"
	"p3/internal/zoo"
)

// runScale runs the ring scale-axis configuration (resnet50 at the 1.5 Gbps
// bottleneck) under one discipline.
func runScale(t *testing.T, machines int, sched string) Result {
	t.Helper()
	st, err := strategy.SlicingOnly(0).WithSched(sched)
	if err != nil {
		t.Fatal(err)
	}
	st.Name = "ar-" + sched
	return Run(Config{
		Model: zoo.ByName("resnet50"), Machines: machines, Strategy: st,
		BandwidthGbps: 1.5, WarmupIters: 1, MeasureIters: 2, Seed: 1,
	})
}

// TestRingPriorityStillWinsAt16 pins the other half of the inversion
// finding: on the ring all-reduce path priority never inverted — each
// machine's egress feeds exactly one neighbour, so there is no fan-in
// window for urgent chunks to collapse onto — and both strict p3 and the
// damped transform (a single-flow queue dequeues exactly as its base) must
// keep beating fifo.
func TestRingPriorityStillWinsAt16(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled ring in -short mode")
	}
	fifo := runScale(t, 16, "fifo")
	p3 := runScale(t, 16, "p3")
	damped := runScale(t, 16, "damped")
	if p3.MeanIterTime > fifo.MeanIterTime {
		t.Errorf("ring x16: p3 %.2f ms above fifo %.2f ms", p3.MeanIterTime.Millis(), fifo.MeanIterTime.Millis())
	}
	if damped.MeanIterTime > fifo.MeanIterTime {
		t.Errorf("ring x16: damped %.2f ms above fifo %.2f ms", damped.MeanIterTime.Millis(), fifo.MeanIterTime.Millis())
	}
}
