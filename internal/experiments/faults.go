package experiments

import (
	"fmt"

	"p3/internal/cluster"
	"p3/internal/faults"
	"p3/internal/netsim"
	"p3/internal/zoo"
)

// FaultRow is one cell of the fault-injection sweep: a rack-aggregated
// cluster driven through a scripted fault scenario under one wire
// discipline.
type FaultRow struct {
	Model    string
	Machines int
	RackSize int
	Sched    string
	// Scenario names the injected fault: "clean" (no plan), "straggler"
	// (one machine computes 1.5x slower for the whole run), "agg-crash"
	// (rack 1's aggregator is down from 100 ms on; every affected reduction
	// rides the timeout/re-push failover), "nic-degrade" (machine 1's NIC
	// runs at half rate for the whole run — the host link is the bottleneck
	// resource once aggregation has thinned the core traffic).
	Scenario string
	// PerMachine is per-machine training throughput (samples/sec);
	// RetainedPct is that throughput as a percentage of the same
	// discipline's clean cell — the graceful-degradation measure.
	PerMachine  float64
	RetainedPct float64
	IterMs      float64
	Failovers   int64
	Lost        int64
	Events      uint64
	WallMs      float64
}

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
// credit window. Each discipline runs every scenario; RetainedPct compares
// each faulted cell against the same discipline's clean cell, making the
// graceful-degradation ordering directly readable from the table.
func Faults(o Options) []FaultRow {
	const model = "resnet50"
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
	m := zoo.ByName(model)
	var rows []FaultRow
	var cells []cell
	for _, sc := range scheds {
		for _, fs := range scenarios {
			rows = append(rows, FaultRow{Model: model, Machines: machines, RackSize: rackSize, Sched: sc, Scenario: fs.name})
			c := cell{Config: cluster.Config{
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
	for i, out := range runCells(o, cells) {
		r := &rows[i]
		r.PerMachine, r.IterMs, r.Events, r.WallMs = out.PerMachine, out.IterMs, out.Events, out.WallMs
		r.Failovers, r.Lost = out.AggFailovers, out.LostReductions
	}
	// RetainedPct normalizes each faulted cell by its discipline's clean
	// cell: a serial second pass over the outcomes.
	clean := map[string]float64{}
	for _, r := range rows {
		if r.Scenario == "clean" {
			clean[r.Sched] = r.PerMachine
		}
	}
	for i := range rows {
		if base := clean[rows[i].Sched]; base > 0 {
			rows[i].RetainedPct = 100 * rows[i].PerMachine / base
		}
	}
	return rows
}

// FaultsTable renders the fault sweep, one line per cell.
func FaultsTable(rows []FaultRow) string {
	out := "model\tmachines\track\tsched\tscenario\tsamples/s/machine\tretained_pct\titer_ms\tfailovers\tlost\tevents\tsim_wall_ms\n"
	for _, r := range rows {
		out += fmt.Sprintf("%s\t%d\t%d\t%s\t%s\t%.1f\t%.1f\t%.2f\t%d\t%d\t%d\t%.1f\n",
			r.Model, r.Machines, r.RackSize, r.Sched, r.Scenario,
			r.PerMachine, r.RetainedPct, r.IterMs, r.Failovers, r.Lost, r.Events, r.WallMs)
	}
	return out
}
