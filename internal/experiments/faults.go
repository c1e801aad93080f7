package experiments

import (
	"p3/internal/cluster"
	"p3/internal/faults"
	"p3/internal/netsim"
	"p3/internal/zoo"
)

// faultScenario pairs a scenario name with its plan builder (nil = clean).
type faultScenario struct {
	name string
	plan func() *faults.Plan
}

// faultHorizonNs bounds the finite-window scenarios (straggler,
// link-degrade require Until > At): far past the end of their runs, so
// whole-run windows behave as permanent. The crash scenario must NOT use
// it — a wedged recovery can push the sim clock past any finite horizon,
// silently restarting the aggregator mid-measurement — so it uses the
// explicit permanent form (Until 0) instead.
const faultHorizonNs = int64(60e9)

// Faults sweeps scripted fault scenarios against the wire disciplines on a
// rack-aggregated cluster: the same 4:1-oversubscribed topology as the
// rack sweep's fast rows, one server and aggregator per rack, with the
// paper's fifo baseline against the damped priority discipline and the
// credit window. Each discipline runs every scenario (the cell's tag):
// "clean" (no plan), "straggler" (one machine computes 1.5x slower for the
// whole run), "agg-crash" (rack 1's aggregator is down from 100 ms on;
// every affected reduction rides the timeout/re-push failover),
// "nic-degrade" (machine 1's NIC runs at half rate for the whole run — the
// host link is the bottleneck resource once aggregation has thinned the
// core traffic). retained_pct compares each faulted cell's per-machine
// throughput against the same discipline's clean cell: the
// graceful-degradation measure, directly readable from the table.
func Faults(o Options) *Table {
	const gbps = 1.5
	machines, rackSize := 64, 16
	if o.Fast {
		machines = 32
	}
	racks := machines / rackSize
	scheds := []string{"fifo", "damped", "credit"}
	scenarios := []faultScenario{
		{name: "clean", plan: nil},
		{name: "straggler", plan: func() *faults.Plan {
			return &faults.Plan{Events: []faults.Event{
				{Kind: faults.KindStraggler, At: 0, Until: faultHorizonNs, Machine: 1, Factor: 1.5},
			}}
		}},
		{name: "agg-crash", plan: func() *faults.Plan {
			return &faults.Plan{DetectNs: 2e6, TimeoutNs: 10e6, Events: []faults.Event{
				{Kind: faults.KindAggCrash, At: 100e6, Tier: faults.TierRack, Index: 1},
			}}
		}},
		{name: "nic-degrade", plan: func() *faults.Plan {
			return &faults.Plan{Events: []faults.Event{
				{Kind: faults.KindLinkDegrade, At: 0, Until: faultHorizonNs, Link: faults.LinkHost, Index: 1, Factor: 0.5},
			}}
		}},
	}
	m := zoo.ByName("resnet50")
	var cells []cell
	for _, sc := range scheds {
		for _, fs := range scenarios {
			c := cell{tag: fs.name, Config: cluster.Config{
				Model: m, Machines: machines, Servers: racks,
				Strategy: sliced(sc), BandwidthGbps: gbps,
				Topology:        netsim.Topology{RackSize: rackSize, CoreOversub: 4},
				ServerMachines:  rackPlacement("spread", racks, machines, rackSize),
				RackAggregation: true,
			}}
			if fs.plan != nil {
				c.Faults = fs.plan() // a freshly built plan per cell
			}
			cells = append(cells, c)
		}
	}
	clean := map[string]float64{} // each discipline's clean throughput, read after the run
	t := runTable(o, cells, []column[Row]{
		colModel, colMachines, colRack, colSched,
		{"scenario", "%s", func(r Row) any { return r.tag }},
		colPerMachine,
		{"retained_pct", "%.1f", func(r Row) any {
			if base := clean[r.Config.Strategy.Sched]; base > 0 {
				return 100 * r.PerMachine / base
			}
			return 0.0
		}},
		colIterMs,
		{"failovers", "%d", func(r Row) any { return r.AggFailovers }},
		{"lost", "%d", func(r Row) any { return r.LostReductions }},
		colEvents, colWall,
	})
	for _, r := range t.Rows {
		if r.tag == "clean" {
			clean[r.Config.Strategy.Sched] = r.PerMachine
		}
	}
	return t
}
