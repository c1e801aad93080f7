package cluster

import (
	"runtime"
	"testing"

	"p3/internal/strategy"
	"p3/internal/zoo"
)

// TestMessagePathMallocsPerEvent pins the allocation-free message path end
// to end: netsim's pooled records and the processing pools' pre-bound slots
// leave an 8-machine cell — construction included — under a quarter of a
// malloc per event, where a closure per hop cost 1.26.
func TestMessagePathMallocsPerEvent(t *testing.T) {
	cfg := Config{
		Model: zoo.ByName("resnet50"), Machines: 8, Strategy: strategy.P3(0),
		BandwidthGbps: 1.5, WarmupIters: 1, MeasureIters: 3, Seed: 1,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Run(cfg)
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(r.Events)
	t.Logf("%d events, %d mallocs: %.3f mallocs/event", r.Events, after.Mallocs-before.Mallocs, perEvent)
	if perEvent >= 0.25 {
		t.Fatalf("%.3f mallocs/event, want < 0.25", perEvent)
	}
}
