package cluster

import (
	"strings"
	"testing"

	"p3/internal/faults"
	"p3/internal/sim"
	"p3/internal/trace"
)

// rejection is one row of the Config.Validate tables: mut applied to base
// must fail with an error containing want ("" = must validate).
type rejection struct {
	name string
	base Config
	mut  func(*Config)
	want string
}

// checkValidate runs the rows as subtests. Config.Validate is the one place
// prerequisites are checked (Run panics with its error, p3sim prints it),
// so these tables are the whole rejection matrix — p3sim's flag tests only
// pin that the error comes through.
func checkValidate(t *testing.T, rows []rejection) {
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.base
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			err := cfg.Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid configuration rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error mentioning %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("unhelpful error %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestRackAggregationRejections: the cell, its servers and the rack tier —
// everything a knob needs a rack topology (or a synchronous strategy) for.
// The "without racks" rows ran quietly flat before Validate: the topology
// reached netsim's check only when RackSize was set.
func TestRackAggregationRejections(t *testing.T) {
	flat := shardedCfg(t, 4, "fifo")
	racks := aggCfg(t, 8, 4, "fifo", "", false)
	checkValidate(t, []rejection{
		{name: "flat", base: flat},
		{name: "racks", base: racks},
		{name: "undersubscribed core", base: racks, mut: func(c *Config) { c.Topology.CoreOversub = 0.5 }},
		{name: "non-blocking core", base: racks, mut: func(c *Config) { c.Topology.CoreOversub = 0 }},
		{name: "core sched and agg", base: aggCfg(t, 8, 4, "fifo", "p3", true)},
		{name: "no racks", base: flat, mut: func(c *Config) { c.RackAggregation = true }, want: "rack topology"},
		{name: "asgd", base: aggCfg(t, 4, 2, "fifo", "", true), mut: func(c *Config) { c.Strategy.Async = true }, want: "ASGD"},
		{name: "oversub without racks", base: flat, mut: func(c *Config) { c.Topology.CoreOversub = 4 }, want: "without a rack topology"},
		{name: "coredelay without racks", base: flat, mut: func(c *Config) { c.Topology.CoreDelay = sim.Microsecond }, want: "without a rack topology"},
		{name: "coresched without racks", base: flat, mut: func(c *Config) { c.Topology.CoreSched = "p3" }, want: "without a rack topology"},
		{name: "racksize over machines", base: flat, mut: func(c *Config) { c.Topology.RackSize = 8 }, want: "exceeds"},
		{name: "negative racksize", base: flat, mut: func(c *Config) { c.Topology.RackSize = -1 }, want: "negative rack size"},
		{name: "negative oversub", base: racks, mut: func(c *Config) { c.Topology.CoreOversub = -2 }, want: "negative core oversubscription"},
		{name: "unknown coresched", base: racks, mut: func(c *Config) { c.Topology.CoreSched = "nosuch" }, want: "core scheduler"},
		{name: "no model", base: flat, mut: func(c *Config) { c.Model = nil }, want: "no Model"},
		{name: "no bandwidth", base: flat, mut: func(c *Config) { c.BandwidthGbps = 0 }, want: "bandwidth"},
		{name: "default run length", base: flat, mut: func(c *Config) { c.WarmupIters, c.MeasureIters = 0, 0 }},
		{name: "preemption", base: flat, mut: func(c *Config) { c.PreemptQuantum = 1 }},
		{name: "negative measured iterations", base: flat, mut: func(c *Config) { c.MeasureIters = -3 }, want: "negative run length"},
		{name: "negative warm-up", base: flat, mut: func(c *Config) { c.WarmupIters = -1 }, want: "negative run length"},
		{name: "negative preemption quantum", base: flat, mut: func(c *Config) { c.PreemptQuantum = -1 }, want: "negative PreemptQuantum"},
		{name: "more servers than machines", base: flat, mut: func(c *Config) { c.Servers = 5 }, want: "5 servers on 4 machines"},
		{name: "server placement length", base: flat, mut: func(c *Config) { c.ServerMachines = []int{0, 1} }, want: "2 ServerMachines for 4 servers"},
		{name: "server off the cluster", base: flat, mut: func(c *Config) { c.Servers, c.ServerMachines = 1, []int{4} }, want: "machine 4 of 4"},
		{name: "two servers on one machine", base: flat, mut: func(c *Config) { c.Servers, c.ServerMachines = 2, []int{1, 1} }, want: "both placed on machine 1"},
		{name: "recorder on a sharded run", base: flat, mut: func(c *Config) { c.Recorder, c.Shards = trace.NewRecorder(4, 0), 2 }},
		{name: "recorder on one shard", base: flat, mut: func(c *Config) { c.Recorder, c.Shards = trace.NewRecorder(4, 0), 1 }},
	})
}

// TestHierarchyRejections: the spine tier and the aggregation extensions,
// each without the piece it stands on.
func TestHierarchyRejections(t *testing.T) {
	flat := shardedCfg(t, 16, "fifo")
	racks := aggCfg(t, 16, 4, "fifo", "", false)
	agg := aggCfg(t, 16, 4, "fifo", "", true)
	hier := hierCfg(t, 16, 4, 2, "fifo")
	checkValidate(t, []rejection{
		{name: "two-tier", base: hier, mut: func(c *Config) { c.Topology.SpineSched = "p3" }},
		{name: "rack-local and rate", base: pullCfg(agg), mut: func(c *Config) { c.RackLocalPS, c.AggReduceGBps = true, 8 }},
		{name: "hier without rackagg", base: hier, mut: func(c *Config) { c.RackAggregation = false }, want: "RackAggregation"},
		{name: "hier without pods", base: agg, mut: func(c *Config) { c.HierAggregation = true }, want: "spine"},
		{name: "hier without racks", base: flat, mut: func(c *Config) { c.HierAggregation = true }, want: "RackAggregation"},
		{name: "racklocal without rackagg", base: racks, mut: func(c *Config) { c.RackLocalPS = true }, want: "RackAggregation"},
		{name: "racklocal without racks", base: flat, mut: func(c *Config) { c.RackLocalPS = true }, want: "RackAggregation"},
		{name: "aggrate without rackagg", base: racks, mut: func(c *Config) { c.AggReduceGBps = 8 }, want: "RackAggregation"},
		{name: "aggrate without racks", base: flat, mut: func(c *Config) { c.AggReduceGBps = 8 }, want: "RackAggregation"},
		{name: "negative aggrate", base: agg, mut: func(c *Config) { c.AggReduceGBps = -1 }, want: "negative AggReduceGBps"},
		{name: "pods do not divide racks", base: hierCfg(t, 16, 4, 3, "fifo"), want: "pods"},
		{name: "pods without racks", base: flat, mut: func(c *Config) { c.Topology.Pods = 2 }, want: "without a rack topology"},
		{name: "negative pods", base: racks, mut: func(c *Config) { c.Topology.Pods = -1 }, want: "negative pod count"},
		{name: "spineoversub without pods", base: racks, mut: func(c *Config) { c.Topology.SpineOversub = 4 }, want: "without a spine tier"},
		{name: "spineoversub without racks", base: flat, mut: func(c *Config) { c.Topology.SpineOversub = 4 }, want: "without a spine tier"},
		{name: "spinedelay without pods", base: racks, mut: func(c *Config) { c.Topology.SpineDelay = sim.Microsecond }, want: "without a spine tier"},
		{name: "spinesched without pods", base: racks, mut: func(c *Config) { c.Topology.SpineSched = "p3" }, want: "without a spine tier"},
		{name: "spinesched without racks", base: flat, mut: func(c *Config) { c.Topology.SpineSched = "p3" }, want: "without a spine tier"},
		{name: "negative spineoversub", base: hier, mut: func(c *Config) { c.Topology.SpineOversub = -4 }, want: "negative spine oversubscription"},
		{name: "unknown spinesched", base: hier, mut: func(c *Config) { c.Topology.SpineSched = "nosuch" }, want: "spine scheduler"},
	})
}

// TestFaultRejections: plans the cluster cannot honor, naming the missing
// piece.
func TestFaultRejections(t *testing.T) {
	plan := func(e faults.Event) func(*Config) {
		return func(c *Config) { c.Faults = &faults.Plan{Events: []faults.Event{e}} }
	}
	rackCrash := plan(faults.Event{Kind: faults.KindAggCrash, At: 1e6, Tier: faults.TierRack, Index: 0})
	podCrash := plan(faults.Event{Kind: faults.KindAggCrash, At: 1e6, Tier: faults.TierPod, Index: 0})
	flat := shardedCfg(t, 16, "fifo")
	agg := aggCfg(t, 16, 4, "fifo", "", true)
	spineAgg := hierCfg(t, 16, 4, 2, "fifo")
	spineAgg.HierAggregation = false
	checkValidate(t, []rejection{
		{name: "empty plan", base: flat, mut: func(c *Config) { c.Faults = &faults.Plan{} }},
		{name: "rack crash", base: agg, mut: rackCrash},
		{name: "pod crash", base: hierCfg(t, 16, 4, 2, "fifo"), mut: podCrash},
		{name: "crash on a flat topology", base: flat, mut: rackCrash, want: "rack aggregator 0 on a flat topology"},
		{name: "crash without aggregation", base: aggCfg(t, 16, 4, "fifo", "", false), mut: rackCrash, want: "needs RackAggregation"},
		{name: "pod crash without spine", base: agg, mut: podCrash, want: "without a spine tier"},
		{name: "pod crash without hieragg", base: spineAgg, mut: podCrash, want: "needs HierAggregation"},
		{name: "crash with racklocal", base: pullCfg(agg), mut: func(c *Config) { c.RackLocalPS = true; rackCrash(c) }, want: "RackLocalPS"},
		{name: "crash with pull", base: pullCfg(agg), mut: rackCrash, want: "Immediate-broadcast"},
		{name: "machine out of range", base: flat,
			mut:  plan(faults.Event{Kind: faults.KindStraggler, At: 0, Until: 1e6, Machine: 99, Factor: 2}),
			want: "machine 99 outside the 16-machine cluster"},
	})
}

// TestRunPanicsWithValidateError: Run refuses exactly what Validate does,
// in Validate's words.
func TestRunPanicsWithValidateError(t *testing.T) {
	cfg := shardedCfg(t, 4, "fifo")
	cfg.Topology.Pods = 2
	want := cfg.Validate()
	if want == nil {
		t.Fatal("a spine tier without racks validated")
	}
	defer func() {
		if r := recover(); r != want.Error() {
			t.Fatalf("Run panicked with %v, want %q", r, want)
		}
	}()
	Run(cfg)
}
