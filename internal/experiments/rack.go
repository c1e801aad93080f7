package experiments

import (
	"fmt"

	"p3/internal/cluster"
	"p3/internal/netsim"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// RackRow is one cell of the rack-scale sweep: a multi-rack topology with
// an oversubscribed core, with parameter-server placement, core-port
// scheduling, in-rack aggregation, the spine tier and its hierarchical
// extensions as swept axes.
type RackRow struct {
	Model    string
	Machines int
	RackSize int
	// Oversub is the core oversubscription ratio (1 = non-blocking core).
	Oversub float64
	// Placement is the parameter-server placement policy: "spread" puts one
	// server in every rack (pulls fan out of each rack once), "packed"
	// crowds every server into rack 0 (all push/pull traffic squeezes
	// through one rack's uplink and downlink).
	Placement string
	Sched     string
	// Core names the discipline of the ToR uplink/downlink port queues;
	// "" is the blind FIFO of plain switch ports.
	Core string
	// Agg reports whether Parameter Hub-style in-rack aggregation was on:
	// gradient pushes reduce at the rack aggregator (one stream per rack
	// crosses the core) and server broadcasts fan out at the ToR.
	Agg bool
	// Pods is the spine-tier pod count (0 = single-tier core). Two-tier
	// cells run a 4:1 spine above the 4:1 core.
	Pods int
	// Hier reports whether the rack streams reduced again at the pod
	// aggregators (one stream per pod crosses the spine to the servers).
	Hier bool
	// Local reports whether the rack aggregators served parameter pulls
	// from a rack-local cache (RackLocalPS; only meaningful on pull-mode
	// strategy cells, see Pull).
	Local bool
	// AggGBps is the aggregators' reduce rate in GB/s (0 = the free
	// instantaneous reduction engine).
	AggGBps float64
	// Pull marks cells running the NotifyPull baseline strategy instead of
	// the sliced Immediate-broadcast one — the mode whose parameter pulls
	// RackLocalPS keeps inside the rack.
	Pull bool
	// PerMachine is per-machine training throughput (samples/sec).
	PerMachine float64
	IterMs     float64
	// CoreMB is the payload volume that serialized through the core ports,
	// in megabytes — the traffic aggregation exists to shrink.
	CoreMB float64
	// SpineMB is the payload volume that serialized through the spine
	// ports (0 on single-tier cells) — the traffic hierarchical
	// aggregation exists to shrink.
	SpineMB float64
	Events  uint64
	WallMs  float64
}

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
// with the scale sweep's discipline axis, server placement, and — against
// the 4:1 core — the core-aware mechanisms: priority core queues
// (the ToR ports run the row's discipline), in-rack aggregation, and the
// two-tier extensions layered on top of it: a 4:1 spine over two pods
// (rack-aggregated vs hierarchically aggregated), the aggregator
// reduce-rate axis (free vs 8 vs 1 GB/s, bracketing the ~6 GB/s line-rate
// ingest demand of a 32-machine rack at 1.5 Gbps), and the rack-local
// parameter cache under the pull-mode baseline strategy. The non-blocking
// (1:1) column isolates placement effects from core contention.
func Rack(o Options) []RackRow {
	const model = "resnet50"
	const gbps = 1.5
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
	var rows []RackRow
	add := func(r RackRow) {
		r.Model, r.Machines, r.RackSize = model, machines, rackSize
		rows = append(rows, r)
	}
	for _, ov := range oversubs {
		for _, pl := range []string{"spread", "packed"} {
			for _, sc := range scheds {
				add(RackRow{Oversub: ov, Placement: pl, Sched: sc})
				if ov > 1 {
					// The core-aware mechanisms only differentiate against a
					// contended core. The fast sweep drops the core-queues-only
					// cells: they are the most expensive rows (full flat event
					// volume) and their parity base case is pinned by
					// cluster-level tests.
					if !o.Fast {
						add(RackRow{Oversub: ov, Placement: pl, Sched: sc, Core: sc})
					}
					add(RackRow{Oversub: ov, Placement: pl, Sched: sc, Core: sc, Agg: true})
				}
			}
		}
	}
	// Two-tier cells: spread placement against the contended core, a 4:1
	// spine over two pods — rack-only vs hierarchical aggregation, the
	// reduce-rate axis on the hierarchical cell, and the rack-local cache
	// pair under the pull-mode baseline.
	for _, sc := range hierScheds {
		add(RackRow{Oversub: 4, Placement: "spread", Sched: sc, Core: sc, Agg: true, Pods: 2})
		add(RackRow{Oversub: 4, Placement: "spread", Sched: sc, Core: sc, Agg: true, Pods: 2, Hier: true})
	}
	for _, rate := range rates {
		sc := hierScheds[len(hierScheds)-1]
		add(RackRow{Oversub: 4, Placement: "spread", Sched: sc, Core: sc, Agg: true, Pods: 2, Hier: true, AggGBps: rate})
	}
	for _, local := range []bool{false, true} {
		add(RackRow{Oversub: 4, Placement: "spread", Sched: "fifo", Agg: true, Pull: true, Local: local})
	}
	m := zoo.ByName(model)
	cells := make([]cell, len(rows))
	for i, r := range rows {
		st := sliced(r.Sched)
		if r.Pull {
			st = under(strategy.Baseline(), "baseline", r.Sched)
		}
		topo := netsim.Topology{RackSize: rackSize, CoreOversub: r.Oversub, CoreSched: r.Core, Pods: r.Pods}
		if r.Pods > 0 {
			topo.SpineOversub = 4
			topo.SpineSched = r.Core
		}
		cells[i] = cell{Config: cluster.Config{
			Model: m, Machines: machines, Servers: servers,
			Strategy: st, BandwidthGbps: gbps,
			Topology:        topo,
			ServerMachines:  rackPlacement(r.Placement, servers, machines, rackSize),
			RackAggregation: r.Agg,
			HierAggregation: r.Hier,
			RackLocalPS:     r.Local,
			AggReduceGBps:   r.AggGBps,
		}}
	}
	for i, out := range runCells(o, cells) {
		r := &rows[i]
		r.PerMachine, r.IterMs, r.Events, r.WallMs = out.PerMachine, out.IterMs, out.Events, out.WallMs
		r.CoreMB, r.SpineMB = float64(out.CoreBytes)/1e6, float64(out.SpineBytes)/1e6
	}
	return rows
}

// RackTable renders the rack sweep, one line per cell.
func RackTable(rows []RackRow) string {
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	out := "model\tmachines\track\toversub\tplacement\tstrategy\tsched\tcore\tagg\tpods\thier\tlocal\tagg_GBps\tsamples/s/machine\titer_ms\tcore_MB\tspine_MB\tevents\tsim_wall_ms\n"
	for _, r := range rows {
		core := r.Core
		if core == "" {
			core = "blind"
		}
		strat := "sliced"
		if r.Pull {
			strat = "baseline"
		}
		rate := "inf"
		if r.AggGBps > 0 {
			rate = fmt.Sprintf("%g", r.AggGBps)
		}
		out += fmt.Sprintf("%s\t%d\t%d\t%g:1\t%s\t%s\t%s\t%s\t%s\t%d\t%s\t%s\t%s\t%.1f\t%.2f\t%.0f\t%.0f\t%d\t%.1f\n",
			r.Model, r.Machines, r.RackSize, r.Oversub, r.Placement, strat, r.Sched, core, onOff(r.Agg),
			r.Pods, onOff(r.Hier), onOff(r.Local), rate,
			r.PerMachine, r.IterMs, r.CoreMB, r.SpineMB, r.Events, r.WallMs)
	}
	return out
}
