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

// TestRackAggFlowsNeverGrow pins host egress sizing under rack
// aggregation: a host's flow to its rack aggregator starts with room for
// every chunk of the plan, so it never grows. In this cell a host that is
// not a server sends on no other flow (RackLocalPS answers its pulls inside
// the rack), so its egress queue must not grow a slab at all. The byte half
// bounds the run's allocation per event, construction included: 8.7 B
// with 32-byte queue entries and sized flows, 9.6 with the flows grown on
// demand, 11.5 with 56-byte entries as well. The race detector changes
// allocation, so under it only the structural half runs.
func TestRackAggFlowsNeverGrow(t *testing.T) {
	cfg := aggCfg(t, 16, 4, "p3", "", true)
	cfg.Servers, cfg.ServerMachines, cfg.RackLocalPS = 2, []int{0, 8}, true
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func() *clusterSim {
		cs := newClusterSim(cfg)
		cs.start()
		cs.exec.Run()
		return cs
	}
	run() // warm any lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cs := run()
	runtime.ReadMemStats(&after)
	for w := range cfg.Machines {
		if cs.machineSrv[w] >= 0 {
			continue
		}
		if g := cs.net.EgressGrown(w); g != 0 {
			t.Errorf("machine %d: egress grew a flow slab for %d pushes, want 0 (%d chunks)", w, g, cs.plan.NumChunks())
		}
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(cs.exec.Processed())
	t.Logf("%d events, %d B allocated: %.2f B/event", cs.exec.Processed(), after.TotalAlloc-before.TotalAlloc, perEvent)
	if !raceEnabled && perEvent > 10 {
		t.Errorf("%.2f B allocated per event, want <= 10", perEvent)
	}
}
