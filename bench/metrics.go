package main

import "math"

// metricDef declares one metric. BENCHMARK.json lists the same names, units,
// directions and bounds (smoke_test.go holds the two together); the layer
// and the prediction live here and in README.md because the JSON shape has
// no room for them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline's median it may worsen by
	Layer  string  // per-layer only: the module whose work it prices
	// Moves says which end-to-end metric, on which workload, a change to
	// this number is predicted to move — written down before measuring.
	Moves string
}

// endToEnd are the numbers a user of the system sees. Every one is printed
// for every workload (the driver's contract); where a metric has no meaning
// on a workload the README says what it carries there.
var endToEnd = []metricDef{
	{Name: "pass_ms_p25", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_samples_per_s", Unit: "samples/s", Better: "higher", Bound: 0.001},
	{Name: "alloc_mb_per_pass", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the prices of single layers, produced by the traced run.
// They carry no bound. A metric that is derived from a workload's own passes
// is measured in that workload's traced run and reads 0 elsewhere; the
// stand-alone probes (sim, netsim, sched, transport, strategy, faults plan,
// trace, cluster.fixed) run in every traced run.
var perLayer = []metricDef{
	{Name: "sim.single_ns_per_event_d1", Unit: "ns/event", Better: "lower", Layer: "sim", Moves: "pass_ms_p25 on ring16, weakly ps64_flat"},
	{Name: "sim.single_ns_per_event_d4k", Unit: "ns/event", Better: "lower", Layer: "sim", Moves: "pass_ms_p25 on ring16, weakly ps64_flat"},
	{Name: "sim.proc1_ns_per_event", Unit: "ns/event", Better: "lower", Layer: "sim", Moves: "pass_ms_p25 on rack256_hier"},
	{Name: "sim.xshard_ns_per_send", Unit: "ns/send", Better: "lower", Layer: "sim", Moves: "pass_ms_p25 on rack256_hier"},
	{Name: "sim.shard_speedup", Unit: "x", Better: "higher", Layer: "sim", Moves: "pass_ms_p25 on rack256_hier"},
	{Name: "sim.events_per_s", Unit: "events/s", Better: "higher", Layer: "sim", Moves: "pass_ms_p25 of the same sim workload"},
	{Name: "sim.mallocs_per_event", Unit: "mallocs/event", Better: "lower", Layer: "sim", Moves: "alloc_mb_per_pass, pass_ms_p25 of the same sim workload"},

	{Name: "netsim.host_ns_per_msg", Unit: "ns/msg", Better: "lower", Layer: "netsim", Moves: "pass_ms_p25 on ps64_flat, ring16"},
	{Name: "netsim.host_events_per_msg", Unit: "events/msg", Better: "lower", Layer: "netsim", Moves: "pass_ms_p25 on ps64_flat, ring16"},
	{Name: "netsim.tor_ns_per_msg", Unit: "ns/msg", Better: "lower", Layer: "netsim", Moves: "pass_ms_p25 on rack256_hier, faults64_credit"},
	{Name: "netsim.tor_events_per_msg", Unit: "events/msg", Better: "lower", Layer: "netsim", Moves: "pass_ms_p25 on rack256_hier, faults64_credit"},
	{Name: "netsim.spine_ns_per_msg", Unit: "ns/msg", Better: "lower", Layer: "netsim", Moves: "pass_ms_p25 on rack256_hier"},
	{Name: "netsim.spine_events_per_msg", Unit: "events/msg", Better: "lower", Layer: "netsim", Moves: "pass_ms_p25 on rack256_hier"},
	{Name: "netsim.agg_ns_per_msg", Unit: "ns/msg", Better: "lower", Layer: "netsim", Moves: "pass_ms_p25 on rack256_hier, faults64_credit"},
	{Name: "netsim.agg_events_per_msg", Unit: "events/msg", Better: "lower", Layer: "netsim", Moves: "pass_ms_p25 on rack256_hier, faults64_credit"},
	{Name: "netsim.preempt_ns_per_msg", Unit: "ns/msg", Better: "lower", Layer: "netsim", Moves: "nothing yet: no workload sets PreemptQuantum"},

	{Name: "sched.ungated_ns_per_dispatch_64f", Unit: "ns/dispatch", Better: "lower", Layer: "sched", Moves: "pass_ms_p25 on ps64_flat"},
	{Name: "sched.ungated_ns_per_dispatch_2f", Unit: "ns/dispatch", Better: "lower", Layer: "sched", Moves: "pass_ms_p25 on ring16"},
	{Name: "sched.damped_ns_per_dispatch_64f", Unit: "ns/dispatch", Better: "lower", Layer: "sched", Moves: "pass_ms_p25 on rack256_hier"},
	{Name: "sched.gated_ns_per_dispatch_64f", Unit: "ns/dispatch", Better: "lower", Layer: "sched", Moves: "pass_ms_p25 on faults64_credit, tcp_small"},
	{Name: "sched.blocked_ns_per_dispatch_64f", Unit: "ns/dispatch", Better: "lower", Layer: "sched", Moves: "pass_ms_p25 on faults64_credit, tcp_small"},
	{Name: "sched.allocs_per_dispatch", Unit: "allocs/dispatch", Better: "lower", Layer: "sched", Moves: "alloc_mb_per_pass everywhere (must stay 0)"},
	{Name: "pq.ns_per_pushpop", Unit: "ns/op", Better: "lower", Layer: "pq", Moves: "pass_ms_p25 on every sim workload (ingress queues)"},

	{Name: "cluster.ns_per_msg", Unit: "ns/msg", Better: "lower", Layer: "cluster", Moves: "pass_ms_p25 on ps64_flat"},
	{Name: "cluster.events_per_msg", Unit: "events/msg", Better: "lower", Layer: "cluster", Moves: "pass_ms_p25 on ps64_flat"},
	{Name: "cluster.mallocs_per_msg", Unit: "mallocs/msg", Better: "lower", Layer: "cluster", Moves: "alloc_mb_per_pass on ps64_flat"},
	{Name: "cluster.self_share_est", Unit: "ratio", Better: "lower", Layer: "cluster", Moves: "pass_ms_p25 on ps64_flat (estimate by subtraction)"},
	{Name: "cluster.fixed_ms_per_run", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "pass_ms_p25 on paper4"},
	{Name: "ring.ns_per_msg", Unit: "ns/msg", Better: "lower", Layer: "ring", Moves: "pass_ms_p25 on ring16"},
	{Name: "ring.events_per_msg", Unit: "events/msg", Better: "lower", Layer: "ring", Moves: "pass_ms_p25 on ring16"},

	{Name: "faults.recovery_event_ratio", Unit: "ratio", Better: "lower", Layer: "faults", Moves: "pass_ms_p25 on faults64_credit"},
	{Name: "faults.failovers", Unit: "count", Better: "lower", Layer: "faults", Moves: "sim_samples_per_s on faults64_credit"},
	{Name: "faults.lost_reductions", Unit: "count", Better: "lower", Layer: "faults", Moves: "sim_samples_per_s on faults64_credit"},
	{Name: "faults.plan_roundtrip_us", Unit: "us", Better: "lower", Layer: "faults", Moves: "setup_s on faults64_credit"},

	{Name: "strategy.partition_us", Unit: "us", Better: "lower", Layer: "strategy", Moves: "setup_s, pass_ms_p25 on paper4"},
	{Name: "strategy.profile_us", Unit: "us", Better: "lower", Layer: "strategy", Moves: "setup_s, pass_ms_p25 on paper4"},
	{Name: "experiments.ms_per_cell", Unit: "ms", Better: "lower", Layer: "experiments", Moves: "pass_ms_p25 on paper4"},
	{Name: "experiments.cells_per_s", Unit: "cells/s", Better: "higher", Layer: "experiments", Moves: "pass_ms_p25 on paper4"},
	{Name: "trace.recorder_overhead_pct", Unit: "%", Better: "lower", Layer: "trace", Moves: "pass_ms_p25 on paper4 (Fig8 cells)"},

	{Name: "transport.encode_ns_per_frame_64B", Unit: "ns/frame", Better: "lower", Layer: "transport", Moves: "pass_ms_p25 on tcp_small"},
	{Name: "transport.encode_MBps_200KB", Unit: "MB/s", Better: "higher", Layer: "transport", Moves: "pass_ms_p25 on tcp_bulk"},
	{Name: "transport.decode_ns_per_frame_64B", Unit: "ns/frame", Better: "lower", Layer: "transport", Moves: "pass_ms_p25 on tcp_small"},
	{Name: "transport.decode_MBps_200KB", Unit: "MB/s", Better: "higher", Layer: "transport", Moves: "pass_ms_p25 on tcp_bulk"},
	{Name: "transport.decode_allocs_per_frame", Unit: "allocs/frame", Better: "lower", Layer: "transport", Moves: "alloc_mb_per_pass on tcp_small"},
	{Name: "transport.sendqueue_ns_per_op_1p", Unit: "ns/op", Better: "lower", Layer: "transport", Moves: "pass_ms_p25 on tcp_small"},
	{Name: "transport.sendqueue_ns_per_op_2p", Unit: "ns/op", Better: "lower", Layer: "transport", Moves: "pass_ms_p25 on tcp_small"},
	{Name: "transport.sendqueue_credit_ns_per_op_1p", Unit: "ns/op", Better: "lower", Layer: "transport", Moves: "pass_ms_p25 on tcp_small"},
	{Name: "transport.sendqueue_credit_ns_per_op_2p", Unit: "ns/op", Better: "lower", Layer: "transport", Moves: "pass_ms_p25 on tcp_small"},

	{Name: "pstcp.iter_ms_p50", Unit: "ms", Better: "lower", Layer: "pstcp", Moves: "pass_ms_p25 on tcp_bulk, tcp_small"},
	{Name: "pstcp.iter_ms_p90", Unit: "ms", Better: "lower", Layer: "pstcp", Moves: "pass_ms_p25 on tcp_small (too few samples on tcp_bulk: reads 0 there)"},
	{Name: "pstcp.first_layer_ms_p50", Unit: "ms", Better: "lower", Layer: "pstcp", Moves: "the paper's mechanism on a real socket; too unsteady from run to run to carry a bound (README)"},
	{Name: "pstcp.push_to_data_us_p50", Unit: "us", Better: "lower", Layer: "pstcp", Moves: "pstcp.first_layer_ms_p50, pass_ms_p25 on tcp_bulk, tcp_small"},
	{Name: "pstcp.push_to_data_us_p90", Unit: "us", Better: "lower", Layer: "pstcp", Moves: "pstcp.first_layer_ms_p50, pass_ms_p25 on tcp_bulk, tcp_small"},
	{Name: "pstcp.goodput_MBps", Unit: "MB/s", Better: "higher", Layer: "pstcp", Moves: "pass_ms_p25 on tcp_bulk"},
	{Name: "pstcp.frames_per_s", Unit: "frames/s", Better: "higher", Layer: "pstcp", Moves: "pass_ms_p25 on tcp_small"},
	{Name: "pstcp.reconnects", Unit: "count", Better: "lower", Layer: "pstcp", Moves: "failed checks on tcp_bulk, tcp_small (must stay 0)"},
	{Name: "pstcp.server_pushes", Unit: "count", Better: "higher", Layer: "pstcp", Moves: "failed checks (must equal workers x chunks x iterations)"},
	{Name: "pstcp.server_updates", Unit: "count", Better: "higher", Layer: "pstcp", Moves: "failed checks (must equal chunks x iterations)"},
	{Name: "pstcp.dial_ms", Unit: "ms", Better: "lower", Layer: "pstcp", Moves: "setup_s on tcp_bulk, tcp_small"},

	{Name: "host.ref_ns", Unit: "ns", Better: "lower", Layer: "host", Moves: "diagnostic"},
	{Name: "host.ref_drift", Unit: "ratio", Better: "lower", Layer: "host", Moves: "diagnostic: above 1.15 the run is unsteady"},
	{Name: "host.pass_ms_raw_p50", Unit: "ms", Better: "lower", Layer: "host", Moves: "diagnostic"},
	{Name: "host.setup_ms", Unit: "ms", Better: "lower", Layer: "host", Moves: "setup_s: the part of it before the cold pass (models, plans, listen, dial, Init)"},
	{Name: "host.cpu_ms_per_pass", Unit: "ms", Better: "lower", Layer: "host", Moves: "diagnostic"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "host", Moves: "diagnostic"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher", Layer: "host", Moves: "diagnostic"},
	{Name: "host.shards", Unit: "count", Better: "higher", Layer: "host", Moves: "diagnostic"},
	{Name: "host.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "host", Moves: "diagnostic: traced over untraced pass time"},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples and Spread describe the timed samples behind a median
	// (interquartile range over median); 0 for counts and single readings.
	Samples int     `json:"samples,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]value

func (m metricSet) set(name string, v float64) { m[name] = value{Value: v} }

// setSamples stores the median of xs with its sample count and spread.
func (m metricSet) setSamples(name string, xs []float64) {
	m[name] = value{Value: median(xs), Samples: len(xs), Spread: spread(xs)}
}

// finish returns exactly the metrics of defs, in a fresh set with units
// filled in; a metric the run did not measure (or could not: a ratio over
// nothing) reads 0.
func (m metricSet) finish(defs []metricDef) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		v.Unit = d.Unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		out[d.Name] = v
	}
	return out
}
