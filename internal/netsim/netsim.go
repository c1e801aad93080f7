// Package netsim models the cluster interconnect on the discrete-event
// clock: one full-duplex NIC per machine with independent egress and ingress
// serialization at a configurable rate — the simulated equivalent of the
// paper's `tc qdisc` rate limiting.
//
// Each direction is a single queueing server: transmitting a message occupies
// the sender's egress for overhead + size/rate, propagates, then occupies the
// receiver's ingress likewise (store-and-forward through an uncongested
// core — the paper's testbed is a small cluster on a non-blocking switch).
// The egress queue discipline is pluggable (Config.Egress names a
// sched.Discipline): "fifo" reproduces the baseline strategies, "p3" the
// worker-side producer/consumer mechanism of Section 4.2 — the
// highest-priority queued message is always transmitted next, and by
// default an in-flight message finishes before the next choice is made
// (preemption at message granularity). Config.PreemptQuantum makes egress
// transmission resumable below message granularity: an express message may
// park the in-flight transfer at a segment boundary and the remainder
// resumes later with progress retained — the true-preemption "what-if"
// upper bound that the paper's slicing approximates. Credit-gated
// disciplines see the true transmission window: a message is charged in
// flight from the moment its serialization starts until it is fully
// delivered at the receiver, so "credit:<bytes>" bounds the bytes in the
// pipe per NIC, ByteScheduler-style; the per-flow egress queue dispatches
// the most urgent admissible head, so one credit-starved destination never
// blocks traffic for the others.
//
// # Window-relaxed host credit
//
// A host credit refund is not instantaneous: when a message is fully
// delivered, the refund lands back on the sender's LP exactly one
// lookahead (Config.Lookahead) later — the width of the conservative
// engine's barrier window. Refunds therefore quantize to window
// boundaries: credit is returned conservatively late, by at most one
// lookahead, and never early. That single relaxation is what makes
// credit-gated egress disciplines shard-safe — the refund is an ordinary
// cross-LP edge satisfying the lookahead bound instead of a zero-latency
// back-edge — so credit/credit-adaptive runs shard like every other
// discipline, and an N-shard run reproduces the 1-shard Result bit for
// bit (both paths schedule the refund through the same canonical transfer
// order). Ungated disciplines schedule no refund events at all, keeping
// their schedules (and goldens) untouched.
//
// # Stages
//
// Every hop is one store-and-forward stage (type stage) on its own LP: it
// serves one message at a time, in arrival order or in a discipline's, for
// over + (bytes+hdr)·8 / (rate·scale) nanoseconds. A host ingress is a stage
// at the NIC rate with the per-message overhead and framing; a switch port
// one at its oversubscribed rate with framing and no overhead; an
// aggregator's reduce engine one at AggReduceGBps·8 bits/ns charging the
// payload only; and host egress, the fourth, one like its ingress that
// queues in the egress discipline and serves in segments of
// PreemptQuantum wire bytes. The scale is the scripted degrade factor (1
// outside a window). A segment's time is the difference of the serial
// times of its two cumulative byte offsets, so segments telescope to the
// whole message's time and the overhead is charged on the first one. What
// stays egress-only is behaviour, not data: the preemption rule at a
// segment boundary (segmentDone), the resume of a parked tail
// (pumpEgress) and credit refunds.
//
// # Tiers
//
// Topology stacks switching tiers on the machines, and the network keeps
// them as a table built bottom-up: tier 0 is the ToRs (one group per rack
// of RackSize machines, the last possibly partial), tier 1 — with
// Topology.Pods — the spine (one group per pod of racks/Pods racks); a flat
// network has no tiers. A group owns one uplink and one downlink port, each
// a stage on its own LP serializing at the group's actual aggregate NIC
// rate divided by the oversubscription of its tier and of every tier below
// (CoreOversub, SpineOversub). A port is blind FIFO by default — the
// regime where host-egress priorities die at the ToR — or, with
// CoreSched/SpineSched, a sched.Queue running a fresh instance of the
// named discipline (seeded with the port's LP index, profile-applied like
// a host NIC), so ranks survive into the fabric; "fifo" is pinned
// bit-identical to the blind queue. With Config.Aggregation every group also owns an aggregator LP —
// the Parameter Hub design point, one reduction primitive placed at each
// switch of the fabric.
//
// Routing rule. One predicate decides every hop: a message is outside
// group g of tier k when its destination machine (or the first machine
// below its destination aggregator) is not in g, or when it is addressed
// to an aggregator of a tier above k. A host sends what is outside its
// rack into the rack's uplink and everything else straight at the
// destination. An uplink climbs to the parent group's uplink while the
// message is outside the parent, lands on the parent's aggregator when
// that is the destination, and otherwise turns around into the downlink of
// the destination's group at its own tier. A downlink lands on its group's
// aggregator or (at tier 0) the destination machine's ingress, and
// otherwise descends into the destination group's downlink one tier below.
// Traffic therefore climbs only as high as its endpoints differ: a Pods=1
// topology builds the spine ports and routes nothing through them.
//
// Delay rule. A hop between two ports pays the delay of the lower of the
// two tiers (CoreDelay at tier 0, SpineDelay at tier 1, each defaulting to
// the one below), and so does an uplink's hop onto its parent's
// aggregator; every landing from a downlink, and every hop out of a host
// or an aggregator, pays PropDelay. All of them are at least
// Config.Lookahead.
//
// Numbering. LPs are the machines (0..n-1), then the port pairs tier by
// tier (uplink, downlink per group), then the aggregators tier by tier.
// Aggregators also have an ordinal in that same order — racks, then pods —
// which indexes the per-aggregator state here and in the cluster layer. A
// group's ports and aggregator ride the shard of the group's first machine
// (Config.LPShards), so only hops between groups cross shards.
//
// Aggregators. They are the application's hook, not a policy: a message
// addressed to one (Message.ToAgg, To naming the group and AggTier the
// tier) is handed to Config.AggDeliver on that aggregator's timeline, and
// the application replies with AggSend (one stream toward a machine or
// another aggregator, routed by the same predicate) or AggFanout (one
// copy per child at line rate: a rack aggregator's children are its
// machines, a higher aggregator's the aggregators of the groups below it,
// each copy entering the child group's downlink). Ingest is free by
// default — a switch-side reduction engine, not a host NIC — but
// Config.AggReduceGBps gives the engine a finite rate: payloads then pass
// the aggregator's stage, reduced at that many bytes per nanosecond, before
// AggDeliver sees them. Every aggregator hop goes through the
// canonical cross-LP transfer (xfer), so an N-shard run reproduces the
// 1-shard Result bit for bit.
//
// # Message records: lifetime and ownership
//
// Every in-flight message owns one pooled record (flight) from Send — or
// AggSend/AggFanout — until its delivery completes. The record carries the
// Message, the egress progress and the one func() the engine ever sees for
// it, bound when the record is first created: a hop only names what that
// continuation runs next (a method expression, which allocates nothing)
// and hands the same func() to Proc.After or Exec.Cross. Steady state
// therefore schedules without allocating, in exactly the call order of a
// closure per hop, so event keys and Results are unchanged.
//
// A record belongs to the LP of its pending event or of the egress queue or
// stage it waits in; ownership moves with the Cross hand-off and with
// nothing else. It is released on the LP where delivery completes — the
// destination machine after its ingress stage, the aggregator at arrival or
// after its reduce stage — except under a gated egress discipline, where
// the record rides the credit refund and is released on the sender's LP (a
// message waiting in a reduce stage lends the refund a second record).
// Handlers get the Message by value, after the release: they may keep it,
// and a Send from inside a delivery reuses the record just freed.
//
// Free lists are per shard (sim.Exec.ShardOf): a shard's list is touched
// only by events on its own LPs' timelines, which one goroutine runs, so
// no lock is needed, and the single engine is the one-shard case. A
// record released on a receiving LP — an aggregator holding a rack's
// pushes, a port, a destination NIC — serves the next send of any LP on
// its shard, so a sending host gets records back even though it never
// delivers its own messages. Records are created on demand — a run's
// first messages pay for them — and lists never shrink: traffic whose
// per-shard sends and deliveries do not balance leaves its surplus idle on
// the receiving shards' lists, at most one record per message.
//
// A host egress queue holds one flow per destination (sched.Queue). With
// Config.FlowDepth each new flow starts with the room FlowDepth gives its
// class: the flow to the host's own rack aggregator, or any other. The
// cluster layer derives both from its plan, so those flows are sized once
// instead of growing through the warm-up iteration. The ring and the
// probes leave it nil, and their flows grow on demand. A flow that
// outgrows its room takes the largest idle slab its queue holds before it
// allocates.
package netsim

import (
	"fmt"

	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/trace"
)

// Config holds the interconnect parameters.
type Config struct {
	// BandwidthGbps is the NIC rate per direction, in gigabits per second
	// (the unit of the paper's x axes).
	BandwidthGbps float64
	// PropDelay is the one-way propagation latency between machines.
	PropDelay sim.Time
	// PerMsgOverhead is the fixed software cost charged per message per
	// direction (syscall, serialization); it is what makes very small
	// parameter slices unprofitable (paper §5.7).
	PerMsgOverhead sim.Time
	// HeaderBytes is the wire framing added to every message.
	HeaderBytes int64
	// LocalBandwidthGbps is the loopback rate for messages between a worker
	// and the server co-located on the same machine (never crosses the NIC).
	LocalBandwidthGbps float64
	// LocalDelay is the fixed loopback latency.
	LocalDelay sim.Time
	// Egress names the egress queue discipline (sched registry): "" or
	// "fifo" for the baseline, "p3" for P3's priority queue, "rr",
	// "smallest", "credit[:bytes]", ... Each NIC gets a fresh discipline
	// instance, so stateful disciplines never share state across machines.
	Egress string
	// Profile optionally supplies model timing to profile-aware egress
	// disciplines (tictac); nil leaves them model-blind.
	Profile *sched.Profile
	// Topology optionally arranges the machines into racks behind an
	// oversubscribed core. The zero value keeps the flat non-blocking
	// switch of the paper's testbed: no tier is built and every path is
	// host to host.
	Topology Topology
	// Aggregation adds one in-rack aggregator LP per rack — and, when the
	// topology has a spine tier (Topology.Pods), one pod aggregator LP per
	// pod (see the package comment): messages sent with ToAgg set are
	// delivered to AggDeliver on the addressed aggregator's timeline instead
	// of a machine NIC, and the application answers through AggSend/
	// AggFanout. Requires a rack topology and an AggDeliver handler.
	Aggregation bool
	// AggDeliver receives every message addressed to an aggregator
	// (Message.ToAgg): tier is the aggregation tier (TierRack or TierPod)
	// and idx the rack or pod index. It runs on that aggregator LP's
	// timeline, so state it touches must be partitioned per aggregator to
	// stay shard-safe.
	AggDeliver func(tier, idx int, m Message)
	// AggDrop, if set, receives every aggregator-addressed message that
	// arrives while the addressed aggregator is down (ScheduleAggOutage),
	// instead of AggDeliver — including messages already queued in the
	// reduce engine when the outage begins. It runs on the aggregator LP's
	// timeline, like AggDeliver. nil drops silently.
	AggDrop func(tier, idx int, m Message)
	// AggReduceGBps is the aggregator reduction capacity in gigabytes per
	// second (== bytes per nanosecond): each aggregator LP ingests the
	// payloads addressed to it through a FIFO reduce engine at this rate, so
	// a rack's worth of concurrent gradient streams can queue at the ToR's
	// reduction ASIC just like they queue at a link. 0 models a free
	// (line-rate, zero-cost) reduction engine: a payload reaches the
	// aggregation logic the instant it arrives. Credit refunds still happen at aggregator arrival: the
	// sender's transmission window covers the wire, not the reduce queue.
	AggReduceGBps float64
	// PreemptQuantum > 0 makes egress transmission resumable: serialization
	// is charged in segments of at most this many wire bytes, and at each
	// segment boundary a strictly more urgent admissible queued message no
	// larger than the quantum (an "express" message) that is also smaller
	// than the in-flight remainder preempts the in-flight transmission,
	// which parks with its progress retained and resumes — ahead of its own
	// class, via priority inheritance — once the displacing burst drains
	// (the per-message overhead is charged only once). This models true
	// sub-message preemption, the upper bound that P3's slicing
	// approximates; 0 keeps the paper's semantics: an in-flight message
	// always finishes before the next scheduling choice. Segment timing
	// telescopes exactly, so a run in which no preemption fires is
	// bit-identical to PreemptQuantum 0.
	PreemptQuantum int64
	// FlowDepth sizes host egress: each NIC queue's new per-destination
	// flow starts with room for FlowDepth(rackAgg) messages
	// (sched.Queue.SizeFlows), rackAgg telling the flow to the sending
	// host's own rack aggregator (under Aggregation, where a host's
	// pushes go) from every other flow. It is a capacity, never a bound,
	// and moves no Result; nil, or 0 for a class, grows those flows on
	// demand. The cluster layer derives it from its plan.
	FlowDepth func(rackAgg bool) int
}

// Topology describes a multi-rack interconnect: racks of RackSize machines
// on non-blocking ToR switches, joined by a core whose capacity is the
// rack's aggregate NIC rate divided by CoreOversub — the oversubscribed
// regime Parameter Hub identifies as the dominant constraint of rack-scale
// training. An inter-rack message serializes through its source rack's
// uplink and its destination rack's downlink (FIFO, store-and-forward, no
// per-message software overhead: switch ports, not hosts); intra-rack
// traffic never touches the core.
type Topology struct {
	// RackSize is the number of machines per rack; 0 disables the rack
	// model entirely (flat single switch). The last rack may be partial.
	RackSize int
	// CoreOversub is the core oversubscription ratio: rack r's
	// uplink/downlink serializes at its actual machine count (the last
	// rack may be partial) times BandwidthGbps, divided by CoreOversub.
	// 0 means a non-blocking core (the rack hop then only adds latency and
	// per-port serialization, equivalent to CoreOversub 1); values in
	// (0, 1) are explicit undersubscription — the core ports run faster
	// than the rack's aggregate NIC rate, so the per-port hop cost shrinks
	// below the 1:1 case; values above 1 oversubscribe. Negative values
	// are rejected.
	CoreOversub float64
	// CoreDelay is the one-way propagation latency of the core hop
	// (uplink to downlink); 0 defaults to the machine-level PropDelay.
	CoreDelay sim.Time
	// CoreSched names the sched.Discipline of every rack's uplink and
	// downlink port queue. "" keeps the blind FIFO of plain switch ports
	// (a flight slice, no sched.Queue); "fifo" runs the same global
	// arrival order through a sched.Queue (pinned bit-identical to "");
	// "p3"/"damped"/"tictac"/... make the core ports expedite the same
	// ranks the hosts do. Each port gets a fresh discipline instance,
	// seeded with its LP index for source-aware disciplines.
	CoreSched string
	// Pods groups the racks into this many equal pods joined by a spine
	// tier: each pod owns a spine uplink and downlink port above its ToRs,
	// and only inter-pod traffic transits them (intra-pod inter-rack
	// traffic turns around below the spine). 0 disables the spine tier
	// (single-tier core); a Pods=1 topology builds the spine LPs but routes
	// nothing through them, so its Results equal Pods=0's. Requires RackSize > 0, and the pod count must
	// divide the rack count evenly (checked by ValidateFor, where the
	// machine count is known).
	Pods int
	// SpineOversub is the spine oversubscription ratio relative to the
	// pod's aggregate ToR-uplink rate: pod p's spine uplink/downlink
	// serializes at (pod's machine count) * BandwidthGbps / CoreOversub /
	// SpineOversub. 0 or 1 is a non-blocking spine; values in (0, 1) are
	// explicit undersubscription (the spine runs faster than the pod's
	// aggregate uplink rate); negative values are rejected.
	SpineOversub float64
	// SpineDelay is the one-way propagation latency of the inter-pod spine
	// hop (spine uplink to spine downlink); 0 defaults to the core delay.
	SpineDelay sim.Time
	// SpineSched names the sched.Discipline of every pod's spine port
	// queue, exactly as CoreSched does for the ToR ports. "" keeps blind
	// FIFO.
	SpineSched string
}

// ValidateFor reports whether the topology is usable over n machines: a
// negative RackSize, CoreOversub, Pods or SpineOversub is always an
// error, CoreSched/SpineSched must name registered scheduling
// disciplines, the core knobs require a rack topology and the spine knobs
// a spine tier, and the pod count must divide the rack count evenly (equal
// pods keep the spine port rates uniform and the routing arithmetic-only).
// The zero value is valid (flat network).
func (t Topology) ValidateFor(n int) error {
	if t.RackSize < 0 {
		return fmt.Errorf("netsim: negative rack size %d", t.RackSize)
	}
	if t.CoreOversub < 0 {
		return fmt.Errorf("netsim: negative core oversubscription %g (use values in (0,1) for an undersubscribed core, 0 or 1 for non-blocking)", t.CoreOversub)
	}
	if t.RackSize == 0 && (t.CoreOversub > 0 || t.CoreDelay > 0) {
		return fmt.Errorf("netsim: CoreOversub %g / CoreDelay %d without a rack topology (RackSize is 0, so there is no core)", t.CoreOversub, t.CoreDelay)
	}
	if t.CoreSched != "" {
		if t.RackSize <= 0 {
			return fmt.Errorf("netsim: CoreSched %q without a rack topology (RackSize is 0, so there are no core ports to schedule)", t.CoreSched)
		}
		if _, err := sched.ByName(t.CoreSched); err != nil {
			return fmt.Errorf("netsim: core scheduler: %w", err)
		}
	}
	if t.Pods < 0 {
		return fmt.Errorf("netsim: negative pod count %d", t.Pods)
	}
	if t.Pods > 0 && t.RackSize <= 0 {
		return fmt.Errorf("netsim: spine tier (Pods %d) without a rack topology (RackSize is 0, so there are no racks to group into pods)", t.Pods)
	}
	if t.SpineOversub < 0 {
		return fmt.Errorf("netsim: negative spine oversubscription %g (use values in (0,1) for an undersubscribed spine, 0 or 1 for non-blocking)", t.SpineOversub)
	}
	if t.Pods == 0 {
		if t.SpineOversub > 0 {
			return fmt.Errorf("netsim: SpineOversub %g without a spine tier (Pods is 0)", t.SpineOversub)
		}
		if t.SpineDelay > 0 {
			return fmt.Errorf("netsim: SpineDelay without a spine tier (Pods is 0)")
		}
		if t.SpineSched != "" {
			return fmt.Errorf("netsim: SpineSched %q without a spine tier (Pods is 0, so there are no spine ports to schedule)", t.SpineSched)
		}
	}
	if t.SpineSched != "" {
		if _, err := sched.ByName(t.SpineSched); err != nil {
			return fmt.Errorf("netsim: spine scheduler: %w", err)
		}
	}
	if t.Pods > 0 {
		racks := t.NumRacks(n)
		if racks%t.Pods != 0 {
			return fmt.Errorf("netsim: %d racks (%d machines / rack size %d) do not divide evenly into %d pods", racks, n, t.RackSize, t.Pods)
		}
	}
	return nil
}

// coreDelay resolves the CoreDelay default against the machine-level
// propagation delay.
func (t Topology) coreDelay(propDelay sim.Time) sim.Time {
	if t.CoreDelay > 0 {
		return t.CoreDelay
	}
	return propDelay
}

// spineDelay resolves the SpineDelay default against the (resolved) core
// delay.
func (t Topology) spineDelay(propDelay sim.Time) sim.Time {
	if t.SpineDelay > 0 {
		return t.SpineDelay
	}
	return t.coreDelay(propDelay)
}

// RackOf maps a machine to its rack.
func (t Topology) RackOf(machine int) int { return machine / t.RackSize }

// NumRacks is the rack count for n machines (the last rack may be partial).
func (t Topology) NumRacks(n int) int { return (n + t.RackSize - 1) / t.RackSize }

// tierDim is one switching tier as the Topology describes it.
type tierDim struct {
	span    int      // machines below one full group
	oversub float64  // rate divisor against the tier below (0 = none)
	delay   sim.Time // hop delay between this tier's ports
	sched   string   // port discipline ("" = blind FIFO)
}

// dims lists the topology's switching tiers over n machines bottom-up: the
// ToRs, then — with Pods — the spine. A flat network has none. The
// topology must have passed ValidateFor(n).
func (c Config) dims(n int) []tierDim {
	t := c.Topology
	if t.RackSize <= 0 {
		return nil
	}
	d := []tierDim{{t.RackSize, t.CoreOversub, t.coreDelay(c.PropDelay), t.CoreSched}}
	if t.Pods > 0 {
		d = append(d, tierDim{t.RackSize * (t.NumRacks(n) / t.Pods), t.SpineOversub, t.spineDelay(c.PropDelay), t.SpineSched})
	}
	return d
}

// groups is the group count of a tier of the given span over n machines
// (the last group may be partial).
func groups(n, span int) int { return (n + span - 1) / span }

// NumLPs returns the logical-process count of the topology over n
// machines: one LP per machine, plus per group of every tier an uplink and
// a downlink LP and — with Aggregation — an aggregator LP.
func (c Config) NumLPs(n int) int {
	perGroup := 2
	if c.Aggregation {
		perGroup = 3
	}
	lps := n
	for _, d := range c.dims(n) {
		lps += perGroup * groups(n, d.span)
	}
	return lps
}

// Lookahead returns the minimum cross-LP latency of the topology — the
// conservative-execution bound to hand sim.NewParallel.
func (c Config) Lookahead() sim.Time {
	look := c.PropDelay
	if c.Topology.RackSize > 0 {
		if cd := c.Topology.coreDelay(c.PropDelay); cd < look {
			look = cd
		}
		if c.Topology.Pods > 0 {
			if sd := c.Topology.spineDelay(c.PropDelay); sd < look {
				look = sd
			}
		}
	}
	return look
}

// LPShards returns the LP-to-shard assignment for n machines over the
// given shard count: machines in contiguous blocks, rack-aligned when the
// topology has racks, and every group's port and aggregator LPs on the
// shard of the group's first machine — so a rack's LPs share a shard and
// only hops between racks cross shards.
func (c Config) LPShards(n, shards int) []int {
	lp := make([]int, c.NumLPs(n))
	dims := c.dims(n)
	unit := 1
	if len(dims) > 0 {
		unit = dims[0].span
	}
	for m := 0; m < n; m++ {
		lp[m] = m / unit * shards / groups(n, unit)
	}
	next := n
	place := func(perGroup int) {
		for _, d := range dims {
			for g := 0; g < groups(n, d.span); g++ {
				for i := 0; i < perGroup; i++ {
					lp[next] = lp[g*d.span]
					next++
				}
			}
		}
	}
	place(2)
	if c.Aggregation {
		place(1)
	}
	return lp
}

// DefaultPreemptQuantum is the segment size used by the preemption ablation
// when preemptive transmission is enabled without an explicit quantum:
// 64 KiB is about a third of a default 50k-parameter slice, i.e. roughly
// 0.35 ms of serialization at the paper's 1.5 Gbps bottleneck bandwidth —
// the scheduling slack within which preemptive and non-preemptive timings
// of an already-sliced strategy are indistinguishable.
const DefaultPreemptQuantum = 64 << 10

// DefaultConfig returns the interconnect constants used for every experiment,
// with the bandwidth left for the caller to set. The four network constants
// — one-way propagation delay, per-message software overhead, per-message
// framing, and the loopback path between a worker and its co-located server
// — are calibration, not measurement: like the per-model compute plateau
// (model.Timing) they set absolute scale, while every comparison the
// experiments report emerges from the simulated mechanisms.
func DefaultConfig(gbps float64) Config {
	return Config{
		BandwidthGbps:      gbps,
		PropDelay:          25 * sim.Microsecond,
		PerMsgOverhead:     8 * sim.Microsecond,
		HeaderBytes:        64,
		LocalBandwidthGbps: 160,
		LocalDelay:         5 * sim.Microsecond,
	}
}

// Aggregation tiers: the rack aggregators (one per rack, ToR-side) and —
// under a spine topology — the pod aggregators (one per pod, spine-side).
const (
	TierRack = 0
	TierPod  = 1
)

// Message is one transfer unit. Application-level meaning travels in the
// Kind/Chunk/Iter/Src fields, interpreted by the cluster layer; netsim only
// reads From, To, Bytes and Priority.
type Message struct {
	From, To int   // machine indices (To is a rack or pod index when ToAgg is set)
	Bytes    int64 // payload size (headers are added by the network)
	Priority int32 // lower is more urgent; interpreted by the egress discipline

	Kind  uint8 // application tag: push, notify, pull, data, ...
	Chunk int32 // application tag: chunk id
	Iter  int32 // application tag: iteration number
	Src   int32 // application tag: originating worker

	// ToAgg addresses the message to an aggregator: To names the rack
	// (AggTier TierRack) or the pod (AggTier TierPod), and delivery is
	// Config.AggDeliver on the aggregator LP instead of a machine NIC.
	// Requires Config.Aggregation (and a spine tier for TierPod).
	ToAgg bool
	// AggTier selects the aggregation tier of a ToAgg message: TierRack
	// (the zero value, so pre-spine senders are untouched) or TierPod.
	AggTier uint8
	// FromAgg marks a message originated by an aggregator (AggSend and
	// AggFanout set it): From is informational only — no egress was charged
	// for it, so no delivery-time credit refund is owed to any NIC.
	FromAgg bool
}

// msgDest is the flow key of a message for per-destination disciplines:
// the receiving machine, or — for aggregator-addressed messages — the rack
// (or pod, offset into its own range) encoded below the machine range so
// an aggregator flow never aliases a machine flow, and a pod-aggregator
// flow never aliases a rack-aggregator flow.
func msgDest(m Message) int32 {
	if m.ToAgg {
		if m.AggTier == TierPod {
			return int32(-1 - (1 << 24) - m.To)
		}
		return int32(-1 - m.To)
	}
	return int32(m.To)
}

// item is the scheduler-visible view of a message in a host egress or
// switch port queue; the destination key makes each (queue, destination)
// pair one flow. (The queue's owner needs no field: its LP index is
// injected into source-aware disciplines via sched.ApplySource.) It reads
// only fields that never change while the element is queued (pri is raised
// only while a transmission is parked outside its egress queue, and reset
// only after its egress pop), so the view is pure and stable: the queue
// rebuilds the Item from it at dispatch.
func item(f *flight) sched.Item {
	return sched.Item{Priority: f.pri, Bytes: f.msg.Bytes, Dest: msgDest(f.msg)}
}

// Handler receives fully delivered messages.
type Handler func(Message)

// nicStats are one machine's transfer counters. They live on the nic —
// not globally — so that under the sharded engine each shard increments
// only counters it owns; Network's accessor methods sum them once the run
// is over.
type nicStats struct {
	bytesSent      int64
	msgsDelivered  int64
	bytesDelivered int64
	preemptions    int64
}

type nic struct {
	// out is the egress: a stage whose sq runs the NIC's egress discipline
	// and whose segment is Config.PreemptQuantum.
	out stage
	// parked holds preempted transmissions, most recently parked last. Each
	// entry was displaced by traffic strictly more urgent than its
	// (inherited) class, so the stack is always ordered by urgency with the
	// most urgent on top. Parked transmissions stay charged against any
	// credit window — their bytes are partially on the wire — and resume
	// before every queued element that is not strictly more urgent than
	// the class that displaced them: preemption costs a tail exactly the
	// displacing burst, never its position within its own class.
	parked []*flight
	// in is the ingress, a blind FIFO: reordering happens at the sender,
	// exactly as in the real system (the receiver drains the socket in
	// arrival order).
	in    stage
	stats nicStats
}

// stage is one store-and-forward server owned by its LP (see the package
// comment's "Stages" section). A message waits in arrival order (q) or in
// a per-flow sched.Queue running a discipline (sq). scale is read at
// segment start, so scheduled changes quantize to the LP's own timeline.
type stage struct {
	lp    int
	busy  bool
	q     flightQ
	sq    *sched.Queue[*flight] // nil: strict arrival order
	rate  float64               // bits per nanosecond (Gbps)
	over  sim.Time              // per-message overhead
	hdr   int64                 // framing bytes charged per message
	seg   int64                 // segment length in wire bytes; 0 (or less): the whole message
	scale float64
}

// port is one switch port — the uplink or downlink of one group of one
// tier: a stage serializing at the group's oversubscribed rate with no
// per-message overhead. Without a port discipline it is a blind FIFO; with
// one it runs the named discipline — the priority-aware ToR/spine.
// bytes/msgs count the payload that finished serializing (LP-owned, so
// shard-safe; summed after the run).
type port struct {
	stage
	tier        int  // index into Network.tiers
	group       int  // group within the tier: the rack at tier 0, the pod at tier 1
	up          bool // uplink (towards the tier above) or downlink (towards the group)
	bytes, msgs int64
}

// tier is one switching level of the fabric (see the package comment's
// "Tiers" section): the ports of its groups and where its aggregators sit
// in the aggregator ordinal order.
type tier struct {
	span  int      // machines below one full group
	delay sim.Time // hop delay between this tier's ports
	ports []port   // group g's uplink at 2g, its downlink at 2g+1: LP order, a sub-slice of Network.ports
	agg0  int      // ordinal of group 0's aggregator (with Aggregation)
}

// groups is the tier's group count.
func (t *tier) groups() int { return len(t.ports) / 2 }

// up is group g's uplink port.
func (t *tier) up(g int) *port { return &t.ports[2*g] }

// down is group g's downlink port.
func (t *tier) down(g int) *port { return &t.ports[2*g+1] }

// aggregator is one group's aggregator LP. Under a finite AggReduceGBps its
// stage is the reduction engine: arriving payloads queue FIFO and are
// reduced at the configured rate (payload only, no framing) on the
// aggregator's own LP before the application sees them. The credit refund
// of a gated sender happens at arrival, before the reduce queue — the
// transmission window covers the wire, not the ASIC — so capacity
// modelling composes with credit disciplines without changing the refund
// timing.
type aggregator struct {
	stage
	down bool // taken offline by ScheduleAggOutage
}

// Network simulates the interconnect for n machines.
type Network struct {
	exec    sim.Exec
	procs   []sim.Proc // one per LP: machines, then ports, then aggregators
	cfg     Config
	n       int // machines
	nics    []nic
	ports   []port       // every switch port in LP order: port i is LP n+i
	tiers   []tier       // bottom-up; empty on a flat network
	aggs    []aggregator // in ordinal order (racks, then pods); empty without Aggregation
	deliver Handler
	rec     *trace.Recorder // optional
	gated   bool            // the egress discipline admits against a credit window
	look    sim.Time        // cfg.Lookahead(): the credit-refund quantum
	shard   []int32         // LP -> shard (Exec.ShardOf): which free list an LP's events use
	free    []freeList      // released records, one list per shard (see pool)
}

// New creates a network of n machines on an Exec (a bare *sim.Engine is
// the one-shard Exec): machine i is LP i, followed by the port and
// aggregator LPs in the order of the package comment's "Tiers" section,
// matching Config.LPShards. handler is invoked (on the virtual clock) when
// a message has fully arrived. rec may be nil. Credit-gated egress
// disciplines shard like any other under the window-relaxed refund
// protocol (see the package comment), and so does a trace recorder: a
// machine's series are written on its own LP only (segmentDone,
// ingressDone). New panics on an unknown egress discipline name —
// validate names from user input with sched.ByName first.
func New(x sim.Exec, n int, cfg Config, handler Handler, rec *trace.Recorder) *Network {
	if cfg.BandwidthGbps <= 0 {
		panic(fmt.Sprintf("netsim: bandwidth %v Gbps", cfg.BandwidthGbps))
	}
	if err := cfg.Topology.ValidateFor(n); err != nil {
		panic(err.Error())
	}
	if cfg.Aggregation {
		if cfg.Topology.RackSize <= 0 {
			panic("netsim: Aggregation needs a rack topology (Topology.RackSize > 0)")
		}
		if cfg.AggDeliver == nil {
			panic("netsim: Aggregation without an AggDeliver handler")
		}
	}
	if cfg.AggReduceGBps < 0 {
		panic(fmt.Sprintf("netsim: negative aggregator reduce rate %g GB/s", cfg.AggReduceGBps))
	}
	if cfg.AggReduceGBps > 0 && !cfg.Aggregation {
		panic("netsim: AggReduceGBps without Aggregation (no aggregators to rate-limit)")
	}
	if cfg.LocalBandwidthGbps <= 0 {
		cfg.LocalBandwidthGbps = 160
	}
	nw := &Network{exec: x, cfg: cfg, n: n, deliver: handler, rec: rec}
	nw.look = cfg.Lookahead()
	nw.nics = make([]nic, n)
	for i := range nw.nics {
		disc := sched.ApplyProfile(sched.MustByName(cfg.Egress), cfg.Profile)
		// The owning machine's index seeds source-aware disciplines
		// (damped): every NIC resolves equal-rank ties toward a different
		// destination, de-synchronizing otherwise identical schedules.
		sched.ApplySource(disc, int32(i))
		in := stage{lp: i, rate: cfg.BandwidthGbps, over: cfg.PerMsgOverhead, hdr: cfg.HeaderBytes, scale: 1}
		out := in
		out.sq, out.seg = sched.NewQueue(disc, item), cfg.PreemptQuantum
		if fd := cfg.FlowDepth; fd != nil {
			// The flow key of the host's own rack aggregator. Machine keys
			// are never negative, so without aggregation no flow is it.
			own := int32(0)
			if cfg.Aggregation {
				own = msgDest(Message{To: cfg.Topology.RackOf(i), ToAgg: true})
			}
			out.sq.SizeFlows(func(dest int32) int { return fd(dest < 0 && dest == own) })
		}
		// The refund events of the window-relaxed credit protocol exist
		// only for gated disciplines; ungated runs schedule none.
		nw.gated = out.sq.Gated()
		nw.nics[i] = nic{out: out, in: in}
	}
	nw.procs = make([]sim.Proc, cfg.NumLPs(n))
	nw.shard = make([]int32, len(nw.procs))
	for lp := range nw.procs {
		nw.procs[lp] = x.Proc(lp)
		nw.shard[lp] = int32(x.ShardOf(lp))
	}
	nw.free = make([]freeList, x.Shards())
	dims := cfg.dims(n)
	nports := 0
	for _, d := range dims {
		nports += 2 * groups(n, d.span)
	}
	nw.ports = make([]port, 0, nports)
	for k, d := range dims {
		first := len(nw.ports)
		for g := range groups(n, d.span) {
			// A port's rate is its group's actual aggregate NIC rate — a
			// trailing partial group's share of the fabric is proportional
			// to the machines it holds, not to the nominal span — divided by
			// the oversubscription of every tier up to its own.
			rate := float64(min((g+1)*d.span, n)-g*d.span) * cfg.BandwidthGbps
			for _, below := range dims[:k+1] {
				if below.oversub > 0 {
					rate /= below.oversub
				}
			}
			for _, up := range []bool{true, false} {
				l := port{stage: stage{lp: n + len(nw.ports), rate: rate, hdr: cfg.HeaderBytes, scale: 1}, tier: k, group: g, up: up}
				if name := d.sched; name != "" {
					disc := sched.ApplyProfile(sched.MustByName(name), cfg.Profile)
					sched.ApplySource(disc, int32(l.lp))
					l.sq = sched.NewQueue(disc, item)
				}
				nw.ports = append(nw.ports, l)
			}
		}
		nw.tiers = append(nw.tiers, tier{span: d.span, delay: d.delay, ports: nw.ports[first:]})
	}
	if cfg.Aggregation {
		next := n + nports // the next unassigned LP
		for k := range nw.tiers {
			nw.tiers[k].agg0 = len(nw.aggs)
			for range nw.tiers[k].groups() {
				// The engine's rate is bytes per ns times 8 (exact in
				// float64), so the one service formula charges bytes/GBps.
				nw.aggs = append(nw.aggs, aggregator{stage: stage{lp: next, rate: cfg.AggReduceGBps * 8, scale: 1}})
				next++
			}
		}
	}
	return nw
}

// agg is the tier's aggregator idx (rack index at TierRack, pod index at
// TierPod).
func (nw *Network) agg(tier, idx int) *aggregator {
	return &nw.aggs[nw.tiers[tier].agg0+idx]
}

// Stats accessors: totals over the per-machine counters. Only meaningful
// from the simulation's own events or after Run returns (under the sharded
// engine the counters are written by concurrent shards mid-run).

// BytesSent is the payload volume handed to Send.
func (nw *Network) BytesSent() int64 {
	return nw.sumStats(func(s *nicStats) int64 { return s.bytesSent })
}

// MsgsDelivered is the number of fully delivered messages.
func (nw *Network) MsgsDelivered() int64 {
	return nw.sumStats(func(s *nicStats) int64 { return s.msgsDelivered })
}

// BytesDelivered is the payload volume fully delivered.
func (nw *Network) BytesDelivered() int64 {
	return nw.sumStats(func(s *nicStats) int64 { return s.bytesDelivered })
}

// Preemptions counts in-flight transmissions parked for a more urgent
// message (always 0 with PreemptQuantum 0).
func (nw *Network) Preemptions() int64 {
	return nw.sumStats(func(s *nicStats) int64 { return s.preemptions })
}

// CoreBytes is the total payload volume that serialized through the rack
// uplink and downlink ports — the core traffic the oversubscription ratio
// throttles, and the number in-rack aggregation exists to shrink. 0 on a
// flat network.
func (nw *Network) CoreBytes() int64 { b, _ := nw.tierTraffic(TierRack); return b }

// CoreMsgs is the message count behind CoreBytes (each inter-rack message
// counts once per port it transits, i.e. normally twice).
func (nw *Network) CoreMsgs() int64 { _, m := nw.tierTraffic(TierRack); return m }

// SpineBytes is the total payload volume that serialized through the spine
// uplink and downlink ports — the inter-pod traffic the spine
// oversubscription throttles, and the number hierarchical aggregation
// exists to shrink. 0 without a spine tier (CoreBytes counts only the
// rack-tier ports, so the two never double-count).
func (nw *Network) SpineBytes() int64 { b, _ := nw.tierTraffic(TierPod); return b }

// SpineMsgs is the message count behind SpineBytes (each inter-pod message
// counts once per spine port it transits, i.e. normally twice).
func (nw *Network) SpineMsgs() int64 { _, m := nw.tierTraffic(TierPod); return m }

// tierTraffic sums the port counters of tier k (0 for a tier the topology
// does not have).
func (nw *Network) tierTraffic(k int) (bytes, msgs int64) {
	if k >= len(nw.tiers) {
		return 0, 0
	}
	for _, l := range nw.tiers[k].ports {
		bytes += l.bytes
		msgs += l.msgs
	}
	return bytes, msgs
}

func (nw *Network) sumStats(f func(*nicStats) int64) int64 {
	var t int64
	for i := range nw.nics {
		t += f(&nw.nics[i].stats)
	}
	return t
}

func (nw *Network) localTime(bytes int64) sim.Time {
	bits := float64(bytes+nw.cfg.HeaderBytes) * 8
	return nw.cfg.LocalDelay + sim.Time(bits/nw.cfg.LocalBandwidthGbps)
}

// Send queues m for transmission. Loopback messages (From == To) skip the
// NIC entirely, as a co-located worker and server communicate through shared
// memory in the real system. Aggregator-addressed messages (ToAgg, with To
// naming the rack) serialize through the sender's egress like any other
// traffic and are delivered to Config.AggDeliver.
//
//p3:noescape
func (nw *Network) Send(m Message) {
	if m.ToAgg && nw.aggs == nil {
		panic("netsim: ToAgg send without Config.Aggregation") //p3:alloc-ok misuse panic, never reached by a valid run
	}
	if m.ToAgg && int(m.AggTier) >= len(nw.tiers) {
		panic("netsim: TierPod send without a spine tier (Topology.Pods is 0)") //p3:alloc-ok misuse panic, never reached by a valid run
	}
	nw.nics[m.From].stats.bytesSent += m.Bytes
	f := nw.acquire(m.From, m)
	if !m.ToAgg && m.From == m.To {
		nw.after(m.From, nw.localTime(m.Bytes), f, (*Network).deliverLocal)
		return
	}
	nw.nics[m.From].out.sq.Push(f)
	nw.pumpEgress(m.From)
}

// deliverLocal completes a loopback message on its machine's own LP.
//
//p3:noescape
func (nw *Network) deliverLocal(f *flight) {
	m := f.msg
	nw.release(m.From, f)
	st := &nw.nics[m.From].stats
	st.msgsDelivered++
	st.bytesDelivered += m.Bytes
	nw.deliver(m)
}

// destGroup is the group of tier k a message is ultimately headed for:
// the group holding the destination machine, or the first machine below
// the destination aggregator (whose tier must not be above k).
//
//p3:noescape
func (nw *Network) destGroup(k int, m Message) int {
	first := m.To
	if m.ToAgg {
		first *= nw.tiers[m.AggTier].span
	}
	return first / nw.tiers[k].span
}

// outside is the routing predicate: m cannot be delivered from inside
// group g of tier k — its destination lies in another group, or is an
// aggregator of a tier above k.
//
//p3:noescape
func (nw *Network) outside(k, g int, m Message) bool {
	return m.ToAgg && int(m.AggTier) > k || nw.destGroup(k, m) != g
}

// forward hands a fully serialized message from machine `from` to the next
// hop after the propagation delay: into its rack's uplink when the
// destination is outside the rack, directly onto the destination
// otherwise.
//
//p3:noescape
func (nw *Network) forward(from int, f *flight) {
	at := nw.procs[from].Now() + nw.cfg.PropDelay
	if len(nw.tiers) > 0 {
		if rack := from / nw.tiers[0].span; nw.outside(0, rack, f.msg) {
			nw.toPort(from, nw.tiers[0].up(rack), at, f)
			return
		}
	}
	nw.land(from, at, f)
}

// land hands f from LP src onto its destination — the addressed
// aggregator, or the destination machine's ingress — at time at. Cross
// carries every hop, even when both LPs share a shard, so same-instant
// arrival order stays canonical for any shard count.
//
//p3:noescape
func (nw *Network) land(src int, at sim.Time, f *flight) {
	if m := f.msg; m.ToAgg {
		nw.xfer(src, nw.agg(int(m.AggTier), m.To).lp, at, f, (*Network).deliverAgg)
	} else {
		nw.xfer(src, m.To, at, f, (*Network).arrive)
	}
}

// toPort hands f from LP src to switch port l, where it is queued at time at.
//
//p3:noescape
func (nw *Network) toPort(src int, l *port, at sim.Time, f *flight) {
	f.port = int32(l.lp - nw.n)
	nw.xfer(src, l.lp, at, f, (*Network).portEnqueue)
}

// enqueue queues f at stage s and pumps it; then runs when f's service
// ends, on s's LP.
//
//p3:noescape
func (nw *Network) enqueue(s *stage, f *flight, then func(*Network, *flight)) {
	if s.sq != nil {
		s.sq.Push(f)
	} else {
		s.q.push(f)
	}
	nw.pump(s, then)
}

// pump starts serving the stage's next message unless one is in service.
// With a discipline the next message is the discipline's choice: it
// respects a credit-gated discipline's window (a refused head stays queued
// until a Done repumps) and skips a credit-blocked flow's head in favour of
// the most urgent admissible other flow. A switch port's window opens and
// closes entirely on its LP — service start to service end — so port
// gating is shard-safe. Without a discipline it is strict arrival order. A
// stage's then must clear busy and pump again.
//
//p3:noescape
func (nw *Network) pump(s *stage, then func(*Network, *flight)) {
	if s.busy {
		return
	}
	var f *flight
	if s.sq != nil {
		var ok bool
		if f, ok = s.sq.PopReady(); !ok {
			return // empty, or every flow credit-blocked: Done repumps
		}
	} else if f = s.q.pop(); f == nil {
		return
	}
	nw.serve(s, f, then)
}

// segEnd is the cumulative wire-byte offset at which f's current segment
// at s ends: the end of the message, or one segment length past sent.
//
//p3:noescape
func (s *stage) segEnd(f *flight) int64 {
	if wire := f.msg.Bytes + s.hdr; s.seg <= 0 || wire-f.sent <= s.seg {
		return wire
	}
	return f.sent + s.seg
}

// serve starts f's current segment at s and runs then when it ends — the
// one place a hop's service time is computed. The time is the serial time
// of the segment's end offset minus that of its start (f.sent), so a
// message's segments telescope: never preempted, it completes at exactly
// the tick of one whole-message segment, bit-identical for any segment
// length or none, and preemption changes only the interleaving, never the
// total serialization cost. The first segment, which every unsegmented hop
// takes, adds the overhead and needs one division. The degrade scale is
// sampled here, on the owning LP: a window opening mid-message slows only
// the segments that start in it.
//
//p3:noescape
func (nw *Network) serve(s *stage, f *flight, then func(*Network, *flight)) {
	s.busy = true
	end, rate := s.segEnd(f), s.rate*s.scale
	if f.sent == 0 {
		f.dur = s.over + sim.Time(float64(end)*8/rate)
	} else {
		f.dur = sim.Time(float64(end)*8/rate) - sim.Time(float64(f.sent)*8/rate)
	}
	nw.after(s.lp, f.dur, f, then)
}

// portEnqueue queues f on the port it was handed to.
//
//p3:noescape
func (nw *Network) portEnqueue(f *flight) {
	nw.enqueue(&nw.ports[f.port].stage, f, (*Network).portDone)
}

// portDone runs when f finishes serializing at its port.
//
//p3:noescape
func (nw *Network) portDone(f *flight) {
	l := &nw.ports[f.port]
	l.busy = false
	l.bytes += f.msg.Bytes
	l.msgs++
	if l.sq != nil {
		l.sq.Done(f)
	}
	nw.routeFromPort(l, f)
	nw.pump(&l.stage, (*Network).portDone)
}

// routeFromPort hands a message that finished serializing at a switch
// port to its next hop (the routing and delay rules of the package
// comment's "Tiers" section): an uplink climbs while the destination is
// outside the parent group, lands on the parent's aggregator when that is
// the destination, and otherwise turns around into its own tier's
// downlink; a downlink lands on its group's aggregator or machine, or
// descends one tier.
//
//p3:noescape
func (nw *Network) routeFromPort(l *port, f *flight) {
	m := f.msg
	k := l.tier
	t := &nw.tiers[k]
	now := nw.procs[l.lp].Now()
	switch {
	case l.up:
		at := now + t.delay
		if k+1 < len(nw.tiers) {
			parent := l.group * t.span / nw.tiers[k+1].span
			if nw.outside(k+1, parent, m) {
				nw.toPort(l.lp, nw.tiers[k+1].up(parent), at, f)
				return
			}
			if m.ToAgg && int(m.AggTier) == k+1 {
				nw.land(l.lp, at, f)
				return
			}
		}
		nw.toPort(l.lp, t.down(nw.destGroup(k, m)), at, f)
	case k == 0 || m.ToAgg && int(m.AggTier) == k:
		nw.land(l.lp, now+nw.cfg.PropDelay, f)
	default:
		below := &nw.tiers[k-1]
		nw.toPort(l.lp, below.down(nw.destGroup(k-1, m)), now+below.delay, f)
	}
}

// refundCredit schedules the window-relaxed credit refund for a fully
// delivered message: the sender's transmission window for f.msg closes one
// lookahead after delivery, on the sender's own LP (see the package
// comment — the delay is exactly the barrier-window width, so the refund
// is an ordinary cross-LP edge on any shard count and both engines order
// it canonically). Called only for gated egress disciplines; ungated runs
// schedule no refund events at all. src is the LP the delivery completed
// on; the record rides the refund and is released on the sender's LP.
//
//p3:noescape
func (nw *Network) refundCredit(src int, f *flight) {
	nw.xfer(src, f.msg.From, nw.procs[src].Now()+nw.look, f, (*Network).refunded)
}

// refunded lands a credit refund on the sender's LP. Done reads only the
// Bytes and Dest of the Item view, which the message determines.
//
//p3:noescape
func (nw *Network) refunded(f *flight) {
	from := f.msg.From
	nw.nics[from].out.sq.Done(f)
	nw.release(from, f)
	nw.pumpEgress(from)
}

// deliverAgg hands an aggregator-addressed message to the application on
// the aggregator LP's timeline — through the FIFO reduce engine first
// when the aggregator's ingest capacity is finite (AggReduceGBps).
// Reaching the aggregator is full delivery for the sender's transmission
// window: the credit refund that ingressDone performs for machine-
// addressed traffic happens here instead, at arrival (before any reduce
// queueing — the window covers the wire, not the ASIC). The refund
// happens even at a down aggregator: the message did cross the wire.
//
//p3:noescape
func (nw *Network) deliverAgg(f *flight) {
	m := f.msg
	a := nw.agg(int(m.AggTier), m.To)
	refund := nw.gated && !m.FromAgg
	if nw.cfg.AggReduceGBps > 0 && !a.down {
		if refund {
			// f waits in the reduce queue, so the refund rides its own record.
			nw.refundCredit(a.lp, nw.acquire(a.lp, m))
		}
		nw.enqueue(&a.stage, f, (*Network).aggReduced)
		return
	}
	if refund {
		nw.refundCredit(a.lp, f)
	} else {
		nw.release(a.lp, f)
	}
	nw.handAgg(a.down, m)
}

// handAgg gives an aggregator-addressed message to the application on the
// aggregator LP's timeline: Config.AggDeliver, or — when the aggregator is
// down — Config.AggDrop (nil discards silently).
func (nw *Network) handAgg(down bool, m Message) {
	if !down {
		nw.cfg.AggDeliver(int(m.AggTier), m.To, m)
	} else if nw.cfg.AggDrop != nil {
		nw.cfg.AggDrop(int(m.AggTier), m.To, m)
	}
}

// aggReduced runs when the reduce engine finishes f's payload. A crash
// that lands mid-reduction swallows the in-flight payload: the outage
// begins the instant the event fires, not at the next queue boundary.
//
//p3:noescape
func (nw *Network) aggReduced(f *flight) {
	m := f.msg
	a := nw.agg(int(m.AggTier), m.To)
	nw.release(a.lp, f)
	a.busy = false
	nw.handAgg(a.down, m)
	nw.pump(&a.stage, (*Network).aggReduced)
}

// AggSend transmits m from the tier's aggregator idx. m.To names a
// machine unless m.ToAgg is set, in which case it names another
// aggregator at m.AggTier (a rack aggregator escalating its reduced
// stream to its pod aggregator, or a pod aggregator descending a
// broadcast to a rack aggregator) — callers forwarding a received
// aggregator message to a machine must clear ToAgg explicitly. The stream
// leaves through the group's uplink when its destination is outside the
// group; inside it, a rack aggregator lands it directly and a higher one
// hands it to the destination group's downlink one tier below — the
// reduced stream's only serialization points are switch ports. It must be
// called from an AggDeliver callback (the aggregator's LP timeline); the
// message is marked FromAgg — no NIC egress is charged, modelling a
// switch-side reduction engine.
//
//p3:noescape
func (nw *Network) AggSend(tier, idx int, m Message) {
	m.FromAgg = true
	lp := nw.agg(tier, idx).lp
	at := nw.procs[lp].Now() + nw.cfg.PropDelay
	f := nw.acquire(lp, m)
	switch {
	case nw.outside(tier, idx, m):
		nw.toPort(lp, nw.tiers[tier].up(idx), at, f)
	case tier == 0:
		nw.land(lp, at, f)
	default:
		nw.toPort(lp, nw.tiers[tier-1].down(nw.destGroup(tier-1, m)), at, f)
	}
}

// AggFanout replicates m from the tier's aggregator idx, one copy per
// child except skip (pass -1 to reach all). A rack aggregator's children
// are its rack's machines — the ToR replicates a broadcast at line rate,
// so each copy pays only propagation plus its own receiver's ingress
// serialization. A higher aggregator's children are the aggregators of
// the groups below it: each copy enters the child group's downlink
// addressed to that group's aggregator (ToAgg one tier down), so a
// pod-level broadcast pays one downlink serialization per rack instead of
// one core crossing per machine. Must be called from an AggDeliver
// callback; copies are marked FromAgg like AggSend's.
//
//p3:noescape
func (nw *Network) AggFanout(tier, idx int, m Message, skip int) {
	m.FromAgg = true
	lp := nw.agg(tier, idx).lp
	at := nw.procs[lp].Now() + nw.cfg.PropDelay
	// The children are the machines of a rack, or the groups of the tier
	// below; either way a full group spans `per` of `total`.
	per, total := nw.tiers[tier].span, nw.n
	m.ToAgg = tier > 0
	if m.ToAgg {
		below := &nw.tiers[tier-1]
		m.AggTier = uint8(tier - 1)
		per, total = per/below.span, below.groups()
	}
	for c := idx * per; c < min((idx+1)*per, total); c++ {
		if c == skip {
			continue
		}
		m.To = c
		f := nw.acquire(lp, m)
		if tier == 0 {
			nw.xfer(lp, c, at, f, (*Network).arrive)
		} else {
			nw.toPort(lp, nw.tiers[tier-1].down(c), at, f)
		}
	}
}

// pumpEgress starts the machine's egress unless it is busy. A parked
// (preempted) transmission resumes before anything that is not strictly
// more urgent than the class that displaced it; otherwise pump serves the
// discipline's choice.
//
//p3:noescape
func (nw *Network) pumpEgress(machine int) {
	n := &nw.nics[machine]
	s := &n.out
	if s.busy {
		return
	}
	// The resume path never consults the credit gate, so a parked tail
	// cannot wedge: when the window refuses everything queued, the tail —
	// whose bytes are already charged in flight — is what makes progress.
	if k := len(n.parked); k > 0 {
		tail := n.parked[k-1]
		if !s.sq.Preempts(tail) {
			n.parked = n.parked[:k-1]
			// Re-charge the resumed remainder against its flow's window
			// (credit-adaptive stopped counting it while parked).
			s.sq.Resume(tail)
			nw.serve(s, tail, (*Network).segmentDone)
			return
		}
		// Deferred again: re-inherit the displacing class, so the tail
		// resumes after this burst too instead of deferring to every later
		// (ever more urgent) arrival. Urgency is the discipline's order —
		// under tictac a numerically larger class can be strictly more
		// urgent, and a raw integer comparison here would skip the
		// inheritance and reopen the unbounded-deferral starvation.
		if h, ok := s.sq.Peek(); ok && sched.Less(s.sq.Discipline(), item(h), item(tail)) {
			tail.pri = h.pri
		}
	}
	nw.pump(s, (*Network).segmentDone)
}

// segmentDone runs when f's current egress segment (the whole message
// without a quantum) has serialized: a finished message is forwarded, an
// unfinished one continues or is preempted.
//
// At each segment boundary the most urgent admissible queued message
// preempts when it wins the exchange outright: it must be strictly more
// urgent than the in-flight transmission AND shorter than the
// transmission's remaining wire bytes. The second condition is the
// shortest-remaining-first test that makes preemption a genuine upper
// bound: the urgent message saves up to the whole remainder while the
// parked tail loses only the preemptor's (smaller) service time.
// Preempting for an equal-or-larger message — e.g. one uniform parameter
// slice overtaking another — trades a delay for an equal delay and only
// churns the schedule, so slices that P3 has already cut to the preemption
// scale pass untouched: slicing itself is the approximation of preemption,
// which is the paper's claim.
//
//p3:noescape
func (nw *Network) segmentDone(f *flight) {
	machine := f.msg.From
	n := &nw.nics[machine]
	s := &n.out
	end := s.segEnd(f)
	if nw.rec != nil {
		now := nw.procs[machine].Now() // the segment began f.dur earlier
		nw.rec.AddRange(machine, trace.Out, now-f.dur, now, end-f.sent)
	}
	f.sent = end
	wire := f.msg.Bytes + s.hdr
	if end == wire {
		s.busy = false
		// Leave egress as the message's own class with nothing sent: the
		// next stages read both.
		f.pri, f.sent = f.msg.Priority, 0
		// Hand off to the next hop after propagation.
		nw.forward(machine, f)
		nw.pumpEgress(machine)
		return
	}
	d := s.sq.Discipline()
	if pre, ok := s.sq.PopReadyIf(func(c *flight) bool {
		cw := c.msg.Bytes + s.hdr
		return sched.Less(d, item(c), item(f)) && cw <= s.seg && cw < wire-end
	}); ok {
		// Inherit the displacing class unconditionally: pre is strictly
		// more urgent than f by the discipline's order (the preemption
		// condition), which under tictac need not mean a numerically
		// smaller class.
		f.pri = pre.pri
		n.parked = append(n.parked, f)
		// credit-adaptive stops counting the parked remainder against
		// its flow's window until it resumes (credit keeps it charged).
		s.sq.Park(f)
		n.stats.preemptions++
		nw.serve(s, pre, (*Network).segmentDone)
		return
	}
	nw.serve(s, f, (*Network).segmentDone)
}

// arrive queues f at its destination machine's ingress.
//
//p3:noescape
func (nw *Network) arrive(f *flight) {
	nw.enqueue(&nw.nics[f.msg.To].in, f, (*Network).ingressDone)
}

// ingressDone runs when f has fully serialized into its destination
// machine: the message is delivered.
//
//p3:noescape
func (nw *Network) ingressDone(f *flight) {
	m := f.msg
	machine := m.To
	n := &nw.nics[machine]
	if nw.rec != nil {
		end := nw.procs[machine].Now() // service began f.dur earlier
		nw.rec.AddRange(machine, trace.In, end-f.dur, end, m.Bytes+n.in.hdr)
	}
	n.in.busy = false
	n.stats.msgsDelivered++
	n.stats.bytesDelivered += m.Bytes
	if nw.gated && !m.FromAgg {
		// Full delivery closes the sender's transmission window for
		// this message: the window-relaxed refund lands on the
		// sender's LP one lookahead from now (see refundCredit).
		// Ungated disciplines skip the refund entirely — for them
		// both Done and the pump are no-ops (an ungated egress never
		// idles with queued work), so scheduling nothing changes
		// nothing. Aggregator-originated messages (FromAgg) charged
		// no egress and own no credit: their senders' windows closed
		// at the aggregator (deliverAgg).
		nw.refundCredit(machine, f)
	} else {
		nw.release(machine, f)
	}
	nw.deliver(m)
	nw.pump(&n.in, (*Network).ingressDone)
}

// QueuedEgress reports how many messages wait in machine m's egress queue
// (not counting one in flight). Used by tests.
func (nw *Network) QueuedEgress(m int) int { return nw.nics[m].out.sq.Len() }

// EgressGrown reports how many messages machine m's egress queue had to
// grow a flow slab for (sched.Queue.Grown): 0 when FlowDepth's room
// covered every flow the host opened.
func (nw *Network) EgressGrown(m int) int { return nw.nics[m].out.sq.Grown() }

// AggNow is the current virtual time on the tier's aggregator LP. Only
// meaningful from a callback already running on that LP (AggDeliver /
// AggDrop and the code they call) — reading another LP's clock mid-run
// would break shard determinism.
func (nw *Network) AggNow(tier, idx int) sim.Time {
	return nw.procs[nw.agg(tier, idx).lp].Now()
}

// Fault scheduling. Each Schedule* call installs ordinary discrete events
// on the affected state's own LP; they must run before the engine does
// (construction time), so the events sort before every runtime delivery
// at the same tick on that LP under both the single-shard and sharded
// engines — the LP-quantization rule that makes fault plans compose
// bit-identically with any shard count. A run with no Schedule* calls
// schedules nothing.

// ScheduleHostDegrade multiplies machine's NIC serialization rate (both
// directions: its egress and ingress stages) by factor during [at, until),
// with one event per window edge. Windows compose multiplicatively; a lone
// window restores the rate exactly (f/f == 1).
func (nw *Network) ScheduleHostDegrade(machine int, at, until sim.Time, factor float64) {
	nw.degrade(at, until, factor, &nw.nics[machine].out, &nw.nics[machine].in)
}

// ScheduleTierDegrade multiplies the uplink and downlink serialization
// rates of the tier's group idx — a rack's ToR ports at TierRack, a pod's
// spine ports at TierPod — by factor during [at, until), with one event
// per boundary on each port's own LP.
func (nw *Network) ScheduleTierDegrade(tier, idx int, at, until sim.Time, factor float64) {
	t := &nw.tiers[tier]
	nw.degrade(at, until, factor, &t.up(idx).stage)
	nw.degrade(at, until, factor, &t.down(idx).stage)
}

// degrade scales the rates of stages, which share one LP, by factor during
// [at, until): one event per window edge on that LP. Dividing by factor,
// not multiplying by its inverse, restores a lone window's scale exactly.
func (nw *Network) degrade(at, until sim.Time, factor float64, stages ...*stage) {
	if factor <= 0 {
		panic(fmt.Sprintf("netsim: degrade factor %g", factor))
	}
	p := nw.procs[stages[0].lp]
	p.At(at, func() {
		for _, s := range stages {
			s.scale *= factor
		}
	})
	p.At(until, func() {
		for _, s := range stages {
			s.scale /= factor
		}
	})
}

// ScheduleAggOutage takes the tier's aggregator idx offline during
// [at, until) — or permanently when until <= at. While down, arriving
// aggregator-addressed messages go to Config.AggDrop instead of
// AggDeliver; payloads queued (or mid-reduction) in the reduce engine at
// the crash instant are dropped the same way. onCrash (if non-nil) runs
// on the aggregator's LP at the crash instant; the application uses it to
// discard its partial-reduction state.
func (nw *Network) ScheduleAggOutage(tier, idx int, at, until sim.Time, onCrash func()) {
	if nw.aggs == nil {
		panic("netsim: ScheduleAggOutage without Config.Aggregation")
	}
	if tier >= len(nw.tiers) {
		panic("netsim: TierPod outage without a spine tier (Topology.Pods is 0)")
	}
	a := nw.agg(tier, idx)
	p := nw.procs[a.lp]
	p.At(at, func() {
		a.down = true
		// Drain the reduce queue: everything waiting behind the ASIC is
		// lost with it. A payload mid-reduction drops at its own
		// completion event (aggReduced checks down).
		for f := a.q.pop(); f != nil; f = a.q.pop() {
			m := f.msg
			nw.release(a.lp, f)
			nw.handAgg(true, m)
		}
		if onCrash != nil {
			onCrash()
		}
	})
	if until > at {
		p.At(until, func() { a.down = false })
	}
}
