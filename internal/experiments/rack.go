package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"p3/internal/cluster"
	"p3/internal/netsim"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// rackPlacement builds the ServerMachines vector for a placement policy.
// "spread" distributes servers round-robin over racks (server s in rack
// s mod racks, at slot s div racks — one per rack while servers <= racks),
// "packed" crowds them all into rack 0.
func rackPlacement(policy string, servers, machines, rackSize int) []int {
	racks := (machines + rackSize - 1) / rackSize
	out := make([]int, servers)
	for s := range out {
		if policy == "spread" {
			out[s] = (s%racks)*rackSize + s/racks
		} else {
			out[s] = s
		}
		if out[s] >= machines {
			panic(fmt.Sprintf("rackPlacement: server %d lands on machine %d of %d (%s, %d racks)",
				s, out[s], machines, policy, racks))
		}
	}
	return out
}

// Rack sweeps the rack-scale regime the paper's flat 4-16 machine testbed
// never reaches: machines in racks behind an oversubscribed core (the
// dominant constraint Parameter Hub identifies for rack-scale training),
// with the scale sweep's discipline axis, server placement (the cell's tag:
// "spread" puts one server in every rack so pulls fan out of each rack
// once, "packed" crowds every server into rack 0 so all push/pull traffic
// squeezes through one rack's uplink and downlink), and — against the 4:1
// core — the core-aware mechanisms: priority core queues (the ToR ports run
// the row's discipline), Parameter Hub-style in-rack aggregation, and the
// two-tier extensions layered on top of it: a 4:1 spine over two pods
// (rack-aggregated vs hierarchically aggregated), the aggregator
// reduce-rate axis (free vs 8 vs 1 GB/s, bracketing the ~6 GB/s line-rate
// ingest demand of a 32-machine rack at 1.5 Gbps), and the rack-local
// parameter cache under the pull-mode baseline strategy (NotifyPull, whose
// pulls RackLocalPS keeps inside the rack). The non-blocking (1:1) column
// isolates placement effects from core contention. core_MB and spine_MB
// are the payload volumes that serialized through the core and spine ports:
// the traffic each reduction tier exists to shrink.
func Rack(o Options) *Table {
	const gbps = 1.5
	m := zoo.ByName("resnet50")
	machines, rackSize, servers := 256, 32, 8
	oversubs := []float64{1, 4}
	scheds := []string{"fifo", "p3", "damped", "tictac"}
	hierScheds := []string{"fifo", "damped"}
	rates := []float64{8, 1}
	if o.Fast {
		// Same experiment, CI-sized: still multi-rack, still oversubscribed,
		// still one server per rack when spread, still two pods.
		machines, rackSize, servers = 64, 16, 4
		oversubs = []float64{4}
		scheds = []string{"fifo", "damped"}
		hierScheds = []string{"damped"}
		rates = []float64{1}
	}
	var cells []cell
	// add completes a cell from what varies between cells: the server
	// placement (the cell's tag), the strategy, the core (its
	// oversubscription, its ToR port discipline — "" is the blind FIFO of
	// plain switch ports — and the spine's pod count: two-tier cells run a
	// 4:1 spine under the core's discipline) and the aggregation fields.
	add := func(placement string, c cluster.Config) {
		c.Model, c.Machines, c.Servers, c.BandwidthGbps = m, machines, servers, gbps
		c.Topology.RackSize = rackSize
		if c.Topology.Pods > 0 {
			c.Topology.SpineOversub, c.Topology.SpineSched = 4, c.Topology.CoreSched
		}
		c.ServerMachines = rackPlacement(placement, servers, machines, rackSize)
		cells = append(cells, cell{tag: placement, Config: c})
	}
	core := func(oversub float64, sched string, pods int) netsim.Topology {
		return netsim.Topology{CoreOversub: oversub, CoreSched: sched, Pods: pods}
	}
	for _, ov := range oversubs {
		for _, pl := range []string{"spread", "packed"} {
			for _, sc := range scheds {
				add(pl, cluster.Config{Strategy: sliced(sc), Topology: core(ov, "", 0)})
				if ov > 1 {
					// The core-aware mechanisms only differentiate against a
					// contended core. The fast sweep drops the core-queues-only
					// cells: they are the most expensive rows (full flat event
					// volume) and their parity base case is pinned by
					// cluster-level tests.
					if !o.Fast {
						add(pl, cluster.Config{Strategy: sliced(sc), Topology: core(ov, sc, 0)})
					}
					add(pl, cluster.Config{Strategy: sliced(sc), Topology: core(ov, sc, 0), RackAggregation: true})
				}
			}
		}
	}
	// Two-tier cells: spread placement against the contended core, a 4:1
	// spine over two pods — rack-only vs hierarchical aggregation, the
	// reduce-rate axis on the hierarchical cell, and the rack-local cache
	// pair under the pull-mode baseline.
	for _, sc := range hierScheds {
		add("spread", cluster.Config{Strategy: sliced(sc), Topology: core(4, sc, 2), RackAggregation: true})
		add("spread", cluster.Config{Strategy: sliced(sc), Topology: core(4, sc, 2), RackAggregation: true, HierAggregation: true})
	}
	for _, rate := range rates {
		sc := hierScheds[len(hierScheds)-1]
		add("spread", cluster.Config{Strategy: sliced(sc), Topology: core(4, sc, 2),
			RackAggregation: true, HierAggregation: true, AggReduceGBps: rate})
	}
	for _, local := range []bool{false, true} {
		add("spread", cluster.Config{Strategy: under(strategy.Baseline(), "baseline", "fifo"), Topology: core(4, "", 0),
			RackAggregation: true, RackLocalPS: local})
	}
	return runTable(o, cells, []column[Row]{
		colModel, colMachines, colRack,
		{"oversub", "%g:1", func(r Row) any { return r.Topology.CoreOversub }},
		{"placement", "%s", func(r Row) any { return r.tag }},
		{"strategy", "%s", func(r Row) any { return strings.Split(r.Config.Strategy.Name, "+")[0] }},
		colSched,
		{"core", "%s", func(r Row) any { return cmp.Or(r.Topology.CoreSched, "blind") }},
		{"agg", "%s", func(r Row) any { return onOff(r.RackAggregation) }},
		{"pods", "%d", func(r Row) any { return r.Topology.Pods }},
		{"hier", "%s", func(r Row) any { return onOff(r.HierAggregation) }},
		{"local", "%s", func(r Row) any { return onOff(r.RackLocalPS) }},
		{"agg_GBps", "%s", func(r Row) any {
			if r.AggReduceGBps == 0 {
				return "inf"
			}
			return fmt.Sprint(r.AggReduceGBps)
		}},
		colPerMachine, colIterMs,
		{"core_MB", "%.0f", func(r Row) any { return float64(r.CoreBytes) / 1e6 }},
		{"spine_MB", "%.0f", func(r Row) any { return float64(r.SpineBytes) / 1e6 }},
		colEvents, colWall,
	})
}

// onOff prints a boolean axis.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
