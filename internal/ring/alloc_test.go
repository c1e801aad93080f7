package ring

import (
	"runtime"
	"testing"

	"p3/internal/zoo"
)

// TestMessagePathMallocsPerEvent: with netsim's pooled records and the
// per-worker reduction slot, an 8-machine all-reduce cell — construction
// included — stays under a quarter of a malloc per event.
func TestMessagePathMallocsPerEvent(t *testing.T) {
	c := cfg(arP3, 1.5, 8)
	c.Model = zoo.ByName("resnet50")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := Run(c)
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(r.Events)
	t.Logf("%d events, %d mallocs: %.3f mallocs/event", r.Events, after.Mallocs-before.Mallocs, perEvent)
	if perEvent >= 0.25 {
		t.Fatalf("%.3f mallocs/event, want < 0.25", perEvent)
	}
}
