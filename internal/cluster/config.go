package cluster

// Config, its validation, and Result: what a run takes and what it reports.

import (
	"fmt"

	"p3/internal/faults"
	"p3/internal/model"
	"p3/internal/netsim"
	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/trace"
)

// Config describes one simulated training run.
type Config struct {
	Model    *model.Model
	Machines int // worker machines (each runs one worker)
	// Servers is the parameter-server count; servers are co-located on the
	// first Servers machines. 0 means one server per machine, the paper's
	// deployment (Section 5.1). Appendix A.7 allows customizing this.
	Servers  int
	Strategy strategy.Strategy
	// BandwidthGbps is the per-direction NIC rate (the paper's x axis).
	BandwidthGbps float64
	// Profile optionally overrides the static FLOP-derived timing profile
	// handed to model-aware disciplines (tictac) — the hook behind the
	// calibrated two-pass mode (RunCalibrated), which re-runs with a
	// profile rebuilt from a prior run's measured stalls. nil selects the
	// static strategy.ComputeProfile.
	Profile *sched.Profile
	// PreemptQuantum > 0 makes NIC egress transmission resumable in
	// segments of this many wire bytes (netsim.Config.PreemptQuantum): a
	// strictly more urgent message preempts an in-flight one at the next
	// segment boundary — the true-preemption upper bound that the paper's
	// slicing approximates. 0 keeps message-granularity preemption.
	PreemptQuantum int64
	// WarmupIters iterations are run before measurement; MeasureIters are
	// measured. The paper skips 1000 warm-up iterations on real hardware;
	// the simulator reaches steady state within a couple.
	WarmupIters  int
	MeasureIters int
	// Seed drives the per-worker compute jitter (Sockeye's variable
	// sequence lengths). Runs are deterministic for a fixed seed.
	Seed int64
	// Recorder, if non-nil, captures per-machine NIC utilization: machine
	// m's series are written on m's LP only, so they are the same at every
	// shard count.
	Recorder *trace.Recorder
	// Shards selects the engine: 0 or 1 runs one sim.Engine, >= 2 the
	// conservative-lookahead parallel engine with that many shards, each
	// an Engine of its own — producing, by the sim package's determinism
	// contract, the same Result. Values above the machine count are
	// clamped.
	Shards int
	// Topology optionally arranges machines into racks behind an
	// oversubscribed core (netsim.Topology); the zero value keeps the flat
	// non-blocking switch.
	Topology netsim.Topology
	// ServerMachines optionally places parameter server s on machine
	// ServerMachines[s] (len must equal the server count; entries must be
	// distinct). nil keeps the default co-location: server s on machine s.
	// With a rack topology this is the PS-placement axis: spread servers
	// across racks or pack them into one.
	ServerMachines []int
	// RackAggregation enables Parameter Hub-style in-rack gradient
	// aggregation on a rack topology: every non-loopback gradient push
	// routes through the pushing worker's rack aggregator, which sums the
	// rack's contributions per (chunk, iteration) and forwards ONE reduced
	// stream to the chunk's server (weighted as the whole rack at the
	// aggregation barrier), and every server broadcast (Immediate data,
	// NotifyPull notifies) sends one copy per rack that the destination
	// ToR fans out to its machines. Per-worker pulls and their replies
	// stay direct — only the all-to-one and one-to-all patterns collapse.
	// Requires Topology.RackSize > 0; incompatible with Strategy.Async
	// (ASGD has no aggregation barrier to fold into the rack). The
	// reduction itself models a switch-side engine: aggregator ingest and
	// summing cost no host NIC or CPU time unless AggReduceGBps bounds it.
	RackAggregation bool
	// HierAggregation extends RackAggregation into a hierarchical reduce
	// on a spine topology (Topology.Pods > 0): rack aggregators flush
	// their reduced stream to their pod's aggregator instead of the
	// server, the pod aggregator reduces its racks' streams into ONE
	// stream per pod toward the chunk's server, and server broadcasts
	// descend the same tree (one stream per pod, fanned to the pod's rack
	// aggregators at the spine, then to machines at the ToRs) — so the
	// server NIC and the spine each carry per-pod streams instead of
	// per-rack ones. Requires RackAggregation and a spine tier.
	HierAggregation bool
	// RackLocalPS co-designs parameter-server placement with chunk
	// ownership at the rack level: every server update is also pushed to
	// the rack aggregators as a rack-local parameter cache (kCache, one
	// data-sized stream per rack — per pod under HierAggregation), and
	// every non-loopback parameter pull is answered by the puller's own
	// rack aggregator from that cache (pulls that arrive before the
	// cache update wait at the aggregator), so no pull or its data reply
	// ever crosses the core. Only pull-based strategies (NotifyPull,
	// DeferredPull) issue pulls — Immediate-broadcast strategies are
	// unaffected. Requires RackAggregation.
	RackLocalPS bool
	// AggReduceGBps bounds the aggregators' reduction capacity
	// (netsim.Config.AggReduceGBps): payloads queue FIFO at each
	// aggregator and reduce at this many bytes per nanosecond before the
	// aggregation logic sees them. 0 keeps the free switch-side engine.
	// Requires RackAggregation.
	AggReduceGBps float64
	// Faults optionally injects a scripted fault plan: aggregator
	// crash/restart, per-machine straggler windows, link-rate degradation,
	// and worker leave/join, all as deterministic discrete events (see
	// package faults). Aggregator crashes require RackAggregation with an
	// Immediate-broadcast strategy (pod-tier crashes also HierAggregation)
	// and are incompatible with RackLocalPS. A nil plan — and a zero-event
	// one — is byte-identical to no faults at every shard count.
	Faults *faults.Plan
	// AllReduce aggregates by ring all-reduce instead of parameter servers
	// (allreduce.go): the strategy's granularity and discipline apply, its
	// pull mode is ignored, and Shards is read as 1. It needs at least 2
	// machines and takes none of the server, topology, aggregation or fault
	// fields, nor an asynchronous strategy.
	AllReduce bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Machines == 0 {
		out.Machines = 4
	}
	if out.Servers == 0 && !out.AllReduce {
		out.Servers = out.Machines
	}
	if out.WarmupIters == 0 {
		out.WarmupIters = 2
	}
	if out.MeasureIters == 0 {
		out.MeasureIters = 8
	}
	return out
}

// Validate reports the first reason the configuration cannot run, with
// defaults applied: every prerequisite between fields is checked here and
// nowhere else — Run panics with this error, and a command line prints it.
func (c Config) Validate() error {
	c = c.withDefaults()
	n := c.Machines
	if c.Model == nil {
		return fmt.Errorf("cluster: no Model")
	}
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("cluster: invalid model: %w", err)
	}
	if n < 0 || c.Servers < 0 || c.Servers > n {
		return fmt.Errorf("cluster: %d servers on %d machines", c.Servers, n)
	}
	if c.BandwidthGbps <= 0 {
		return fmt.Errorf("cluster: bandwidth %g Gbps", c.BandwidthGbps)
	}
	if c.WarmupIters < 0 || c.MeasureIters < 0 {
		return fmt.Errorf("cluster: negative run length: %d warm-up and %d measured iterations (0 means the default, 2 and 8)", c.WarmupIters, c.MeasureIters)
	}
	if c.PreemptQuantum < 0 {
		return fmt.Errorf("cluster: negative PreemptQuantum %d (0 turns preemption off)", c.PreemptQuantum)
	}
	if _, err := sched.ByName(c.Strategy.Discipline()); err != nil {
		return fmt.Errorf("cluster: strategy %s: %w", c.Strategy.Name, err)
	}
	if c.AllReduce {
		return c.validateAllReduce()
	}
	if c.ServerMachines != nil && len(c.ServerMachines) != c.Servers {
		return fmt.Errorf("cluster: %d ServerMachines for %d servers", len(c.ServerMachines), c.Servers)
	}
	for s, mach := range c.ServerMachines {
		if mach < 0 || mach >= n {
			return fmt.Errorf("cluster: server %d placed on machine %d of %d", s, mach, n)
		}
		for s2, other := range c.ServerMachines[:s] {
			if other == mach {
				return fmt.Errorf("cluster: servers %d and %d both placed on machine %d", s2, s, mach)
			}
		}
	}
	t := c.Topology
	if err := t.ValidateFor(n); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if t.RackSize > n {
		return fmt.Errorf("cluster: rack size %d exceeds the %d machines", t.RackSize, n)
	}
	switch {
	case c.AggReduceGBps < 0:
		return fmt.Errorf("cluster: negative AggReduceGBps %g (0 = free reduction)", c.AggReduceGBps)
	case !c.RackAggregation && c.HierAggregation:
		return fmt.Errorf("cluster: HierAggregation without RackAggregation (there are no rack aggregators to stack a pod tier on)")
	case !c.RackAggregation && c.RackLocalPS:
		return fmt.Errorf("cluster: RackLocalPS without RackAggregation (there are no rack aggregators to cache parameters on)")
	case !c.RackAggregation && c.AggReduceGBps > 0:
		return fmt.Errorf("cluster: AggReduceGBps without RackAggregation (there are no aggregators to rate-limit)")
	case c.RackAggregation && t.RackSize <= 0:
		return fmt.Errorf("cluster: RackAggregation needs a rack topology (Topology.RackSize > 0)")
	case c.RackAggregation && c.Strategy.Async:
		return fmt.Errorf("cluster: RackAggregation is a synchronous-reduction optimization; ASGD has no aggregation barrier to fold into the rack")
	case c.HierAggregation && t.Pods <= 0:
		return fmt.Errorf("cluster: HierAggregation needs a spine tier (Topology.Pods > 0)")
	}
	p := c.Faults
	if p == nil {
		return nil
	}
	if err := p.Validate(n, t); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	switch {
	case !p.HasAggCrash():
	case !c.RackAggregation:
		return fmt.Errorf("cluster: an agg-crash fault needs RackAggregation (there is no aggregator to crash)")
	case c.RackLocalPS:
		return fmt.Errorf("cluster: agg-crash faults are incompatible with RackLocalPS (the rack parameter cache has no failover path)")
	case c.Strategy.Pull != strategy.Immediate:
		return fmt.Errorf("cluster: agg-crash faults need an Immediate-broadcast strategy (crash recovery re-pulls against the immediate data path)")
	case p.HasTierCrash(faults.TierPod) && !c.HierAggregation:
		return fmt.Errorf("cluster: a pod-tier agg-crash needs HierAggregation (there is no pod aggregator to crash)")
	}
	return nil
}

// validateAllReduce is Validate's all-reduce branch: the ring runs on the
// flat network with no servers, so every field only the parameter server
// reads is rejected rather than silently ignored.
func (c Config) validateAllReduce() error {
	switch {
	case c.Machines < 2:
		return fmt.Errorf("cluster: all-reduce needs at least 2 machines, not %d", c.Machines)
	case c.Servers != 0 || c.ServerMachines != nil:
		return fmt.Errorf("cluster: all-reduce has no parameter servers (Servers %d, ServerMachines %v)", c.Servers, c.ServerMachines)
	case c.Topology != netsim.Topology{}:
		return fmt.Errorf("cluster: all-reduce runs on the flat network; it takes no Topology")
	case c.RackAggregation || c.HierAggregation || c.RackLocalPS || c.AggReduceGBps != 0:
		return fmt.Errorf("cluster: all-reduce takes no aggregation field (RackAggregation, HierAggregation, RackLocalPS, AggReduceGBps)")
	case c.Faults != nil:
		return fmt.Errorf("cluster: all-reduce takes no fault plan")
	case c.Strategy.Async:
		return fmt.Errorf("cluster: all-reduce is synchronous; ASGD has no collective to run")
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	Model         string
	Strategy      string
	Machines      int
	BandwidthGbps float64

	// Throughput is the aggregate training throughput (samples/second
	// summed over workers) — the paper's primary metric.
	Throughput float64
	// MeanIterTime is the average measured iteration makespan.
	MeanIterTime sim.Time
	// IterTimes holds each measured iteration's makespan.
	IterTimes []sim.Time
	// ComputeIterTime is the pure-compute iteration time (the upper bound on
	// throughput); the gap to MeanIterTime is communication delay.
	ComputeIterTime sim.Time
	// WarmupEnd is the virtual time at which measurement began (for
	// trimming utilization traces).
	WarmupEnd sim.Time
	// MeasuredIters is the measured iteration count (the divisor of
	// MeanLayerStalls).
	MeasuredIters int
	// LayerStalls[l] is worker 0's cumulative measured-window time spent
	// blocked at layer l waiting for its parameters — the queueing-delay
	// mechanism Figures 1 and 4 of the paper illustrate, and the measured
	// signal the calibrated profile mode feeds back into scheduling.
	LayerStalls []sim.Time

	Events    uint64
	Msgs      int64
	WireBytes int64
	// Preemptions counts egress transmissions parked mid-flight for a more
	// urgent message (0 unless Config.PreemptQuantum > 0).
	Preemptions int64
	// CoreBytes is the payload volume that serialized through the rack
	// uplink/downlink ports (0 on a flat network) — the traffic
	// RackAggregation exists to shrink.
	CoreBytes int64
	// SpineBytes is the payload volume that serialized through the spine
	// uplink/downlink ports (0 without Topology.Pods) — the inter-pod
	// traffic HierAggregation exists to shrink.
	SpineBytes int64

	// Fault counters (all 0 without Config.Faults). FaultsInjected is the
	// scripted event count; AggFailovers the failover actions taken
	// (detected reroutes around a down aggregator, direct re-pushes and
	// recovery pulls, re-push request rounds); DegradedNs the total
	// scripted link-degradation window time; LostReductions the gradient
	// contributions swallowed by down aggregators (each recovered through
	// a direct re-push).
	FaultsInjected int
	AggFailovers   int64
	DegradedNs     int64
	LostReductions int64
}

// TotalStall sums the per-layer forward stalls of worker 0 over the
// measured iterations.
func (r Result) TotalStall() sim.Time {
	var t sim.Time
	for _, s := range r.LayerStalls {
		t += s
	}
	return t
}

// MeanLayerStalls returns the per-iteration mean of LayerStalls, the form
// strategy.CalibrateProfile consumes.
func (r Result) MeanLayerStalls() []sim.Time {
	return strategy.MeanStalls(r.LayerStalls, r.MeasuredIters)
}

// Speedup returns r's throughput relative to base.
func (r Result) Speedup(base Result) float64 { return r.Throughput / base.Throughput }

func (r Result) String() string {
	return fmt.Sprintf("%s/%s x%d @%gGbps: %.1f %s/s (iter %.1f ms, compute %.1f ms)",
		r.Model, r.Strategy, r.Machines, r.BandwidthGbps, r.Throughput,
		"samples", r.MeanIterTime.Millis(), r.ComputeIterTime.Millis())
}
