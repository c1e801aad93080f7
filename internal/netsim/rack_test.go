package netsim

import (
	"slices"
	"testing"

	"p3/internal/sim"
)

// rackCfg is cleanCfg (8 Gbps = 1 byte/ns, zero delays and overheads) over
// racks of two machines, so hop costs are exact round numbers: host NICs
// serialize 1000 bytes in 1000 ns, a rack's uplink/downlink port runs at
// the rack-aggregate 16 Gbps divided by the oversubscription ratio.
func rackCfg(oversub float64) Config {
	cfg := cleanCfg("fifo")
	cfg.Topology = Topology{RackSize: 2, CoreOversub: oversub}
	return cfg
}

// TestRackInterRackTiming pins the four-hop store-and-forward path of an
// inter-rack message: host egress, source-rack uplink, destination-rack
// downlink, host ingress — with the two core ports serializing at the
// oversubscribed rate.
func TestRackInterRackTiming(t *testing.T) {
	for _, tc := range []struct {
		oversub float64
		want    sim.Time
	}{
		// Non-blocking core: 1000 (egress) + 500 (uplink at 2 B/ns) +
		// 500 (downlink) + 1000 (ingress).
		{1, 3000},
		// 4:1 core: the two port hops slow to 0.5 B/ns, 2000 ns each.
		{4, 6000},
	} {
		got := runNet(t, rackCfg(tc.oversub), 4, func(nw *Network) {
			nw.Send(Message{From: 0, To: 2, Bytes: 1000})
		})
		if len(got) != 1 {
			t.Fatalf("oversub %g: %d deliveries", tc.oversub, len(got))
		}
		if got[0].at != tc.want {
			t.Errorf("oversub %g: inter-rack delivery at %v ns, want %v", tc.oversub, got[0].at, tc.want)
		}
	}
}

// TestRackIntraRackMatchesFlat pins that intra-rack traffic never touches
// the core: same-rack delivery times are identical to the flat network no
// matter how oversubscribed the core is.
func TestRackIntraRackMatchesFlat(t *testing.T) {
	flat := runNet(t, cleanCfg("fifo"), 4, func(nw *Network) {
		nw.Send(Message{From: 0, To: 1, Bytes: 1000})
	})
	racked := runNet(t, rackCfg(4), 4, func(nw *Network) {
		nw.Send(Message{From: 0, To: 1, Bytes: 1000})
	})
	if flat[0].at != racked[0].at {
		t.Errorf("intra-rack delivery at %v ns, flat network %v — the core leaked into a rack-local path", racked[0].at, flat[0].at)
	}
	if flat[0].at != 2000 {
		t.Errorf("flat delivery at %v ns, want 2000", flat[0].at)
	}
}

// TestRackCoreFIFOSerializes pins the contention the oversubscribed core
// creates and host-egress scheduling cannot see: two hosts in one rack
// send concurrently to the other rack, and both transit the shared uplink
// in FIFO order regardless of NIC-level parallelism. It also pins the
// canonical arrival order: the simultaneous uplink arrivals are served in
// source-LP order.
func TestRackCoreFIFOSerializes(t *testing.T) {
	got := runNet(t, rackCfg(4), 4, func(nw *Network) {
		nw.Send(Message{From: 0, To: 2, Bytes: 1000})
		nw.Send(Message{From: 1, To: 3, Bytes: 1000})
	})
	if len(got) != 2 {
		t.Fatalf("%d deliveries", len(got))
	}
	// Both egresses finish at 1000 and reach the uplink together; the
	// uplink serializes them back to back (2000 ns each at 0.5 B/ns), the
	// downlink likewise, and each host ingress adds 1000: machine 0's
	// message (lower source LP) lands at 6000, machine 1's at 8000.
	if got[0].m.From != 0 || got[0].at != 6000 {
		t.Errorf("first delivery from %d at %v, want from 0 at 6000", got[0].m.From, got[0].at)
	}
	if got[1].m.From != 1 || got[1].at != 8000 {
		t.Errorf("second delivery from %d at %v, want from 1 at 8000", got[1].m.From, got[1].at)
	}
}

// TestRackConservation pins that the rack path loses and duplicates
// nothing: every byte sent across an all-to-all burst is delivered, with
// the stats agreeing between sent and delivered.
func TestRackConservation(t *testing.T) {
	var eng sim.Engine
	delivered := 0
	cfg := rackCfg(4)
	nw := New(&eng, 6, cfg, func(m Message) { delivered++ }, nil)
	sent := 0
	for from := 0; from < 6; from++ {
		for to := 0; to < 6; to++ {
			if from != to {
				nw.Send(Message{From: from, To: to, Bytes: 1000 + int64(from)*10})
				sent++
			}
		}
	}
	eng.Run()
	if delivered != sent {
		t.Fatalf("delivered %d of %d messages", delivered, sent)
	}
	if nw.MsgsDelivered() != int64(sent) || nw.BytesDelivered() != nw.BytesSent() {
		t.Fatalf("stats disagree: %d/%d msgs, %d/%d bytes",
			nw.MsgsDelivered(), sent, nw.BytesDelivered(), nw.BytesSent())
	}
}

// TestRackLookaheadAndLPs pins the sharding contract of the topology: the
// lookahead is the minimum cross-LP latency (prop delay vs core delay),
// the LP count includes one uplink and one downlink per rack, and the
// shard assignment keeps a rack's machines and its two core ports on one
// shard so only the core hop crosses shards.
func TestRackLookaheadAndLPs(t *testing.T) {
	cfg := cleanCfg("fifo")
	cfg.PropDelay = 500

	if got := cfg.Lookahead(); got != 500 {
		t.Errorf("flat lookahead %v, want 500", got)
	}
	if got := cfg.NumLPs(5); got != 5 {
		t.Errorf("flat NumLPs(5) = %d, want 5", got)
	}

	cfg.Topology = Topology{RackSize: 2, CoreOversub: 4}
	if got := cfg.Lookahead(); got != 500 {
		t.Errorf("rack lookahead %v, want 500 (core delay defaults to prop delay)", got)
	}
	cfg.Topology.CoreDelay = 100
	if got := cfg.Lookahead(); got != 100 {
		t.Errorf("rack lookahead %v, want 100 (core hop is the tighter bound)", got)
	}
	// 5 machines in racks of 2 -> 3 racks (last partial), 2 port LPs each.
	if got := cfg.NumLPs(5); got != 11 {
		t.Errorf("rack NumLPs(5) = %d, want 11", got)
	}

	got := cfg.LPShards(4, 2)
	want := []int{0, 0, 1, 1 /* machines */, 0, 0 /* rack 0 ports */, 1, 1 /* rack 1 ports */}
	if !slices.Equal(got, want) {
		t.Errorf("LPShards(4, 2) = %v, want %v", got, want)
	}
}

// TestRackPartialRackRate pins the partial-rack bugfix: a trailing rack
// with fewer than RackSize machines gets core ports sized by its ACTUAL
// population, not RackSize. Three machines in racks of two leave machine 2
// alone in rack 1, whose ports run at 1x8/4 = 2 Gbps (0.25 B/ns) under the
// 4:1 core — not the 2x8/4 = 4 Gbps a full rack gets. Before the fix the
// lone machine's rack was granted a full rack's core share.
func TestRackPartialRackRate(t *testing.T) {
	got := runNet(t, rackCfg(4), 3, func(nw *Network) {
		nw.Send(Message{From: 0, To: 2, Bytes: 1000})
	})
	if len(got) != 1 {
		t.Fatalf("%d deliveries", len(got))
	}
	// egress 1000 + full rack 0 uplink 2000 + partial rack 1 downlink 4000
	// + ingress 1000.
	if got[0].at != 8000 {
		t.Errorf("partial-rack delivery at %v ns, want 8000 (lone machine's ports at 2 Gbps)", got[0].at)
	}
}

// TestRackUndersubscribedCore pins explicit undersubscription: CoreOversub
// in (0,1) multiplies the core share, and 0 means a non-blocking core
// identical to 1. Before the fix, values in (0,1] were silently ignored.
func TestRackUndersubscribedCore(t *testing.T) {
	under := runNet(t, rackCfg(0.5), 4, func(nw *Network) {
		nw.Send(Message{From: 0, To: 2, Bytes: 1000})
	})
	// egress 1000 + uplink 250 (2x8/0.5 = 32 Gbps = 4 B/ns) + downlink 250
	// + ingress 1000.
	if under[0].at != 2500 {
		t.Errorf("2:1-undersubscribed delivery at %v ns, want 2500", under[0].at)
	}
	zero := runNet(t, rackCfg(0), 4, func(nw *Network) {
		nw.Send(Message{From: 0, To: 2, Bytes: 1000})
	})
	one := runNet(t, rackCfg(1), 4, func(nw *Network) {
		nw.Send(Message{From: 0, To: 2, Bytes: 1000})
	})
	if zero[0].at != one[0].at {
		t.Errorf("CoreOversub 0 delivered at %v, CoreOversub 1 at %v — 0 should mean non-blocking", zero[0].at, one[0].at)
	}
}

// TestTopologyValidate pins the topology validation surface over 16
// machines: negative sizes and ratios are rejected, CoreSched needs both a
// rack topology and a registered discipline, and the zero value (flat
// network) is valid.
func TestTopologyValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		top     Topology
		wantErr bool
	}{
		{"zero value", Topology{}, false},
		{"racks only", Topology{RackSize: 4}, false},
		{"undersubscribed", Topology{RackSize: 4, CoreOversub: 0.5}, false},
		{"core sched", Topology{RackSize: 4, CoreSched: "p3"}, false},
		{"negative rack size", Topology{RackSize: -1}, true},
		{"negative oversub", Topology{RackSize: 4, CoreOversub: -2}, true},
		{"core sched without racks", Topology{CoreSched: "fifo"}, true},
		{"unknown core sched", Topology{RackSize: 4, CoreSched: "nosuch"}, true},
		{"pods", Topology{RackSize: 4, Pods: 2}, false},
		{"full spine", Topology{RackSize: 4, Pods: 2, SpineOversub: 4, SpineDelay: 100, SpineSched: "p3"}, false},
		{"undersubscribed spine", Topology{RackSize: 4, Pods: 2, SpineOversub: 0.5}, false},
		{"negative pods", Topology{RackSize: 4, Pods: -1}, true},
		{"pods without racks", Topology{Pods: 2}, true},
		{"negative spine oversub", Topology{RackSize: 4, Pods: 2, SpineOversub: -2}, true},
		{"spine oversub without pods", Topology{RackSize: 4, SpineOversub: 4}, true},
		{"spine delay without pods", Topology{RackSize: 4, SpineDelay: 100}, true},
		{"spine sched without pods", Topology{RackSize: 4, SpineSched: "p3"}, true},
		{"unknown spine sched", Topology{RackSize: 4, Pods: 2, SpineSched: "nosuch"}, true},
	} {
		err := tc.top.ValidateFor(16)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: ValidateFor(16) = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
	// The pods must divide the racks evenly: the "pods" row's 4 racks in 2
	// pods do, 3 racks do not.
	if err := (Topology{RackSize: 4, Pods: 2}).ValidateFor(12); err == nil {
		t.Error("ValidateFor(12) accepted 3 racks in 2 pods")
	}
}

// TestRackCoreSchedPriority pins that a discipline-scheduled core port
// reorders by rank where the blind FIFO port cannot. Machine 0 sends an
// urgent filler then a bulk message (priority 9); machine 1 sends an
// urgent message (priority 1) sized so it reaches the uplink AFTER the
// bulk message but while the port is still busy with the filler. The
// blind port serves arrival order (bulk first); the p3 port serves the
// urgent message first.
func TestRackCoreSchedPriority(t *testing.T) {
	send := func(nw *Network) {
		nw.Send(Message{From: 0, To: 2, Bytes: 1000, Priority: 0}) // filler: occupies the uplink 1000-3000
		nw.Send(Message{From: 0, To: 3, Bytes: 1000, Priority: 9}) // bulk: reaches the uplink at 2000
		nw.Send(Message{From: 1, To: 2, Bytes: 2500, Priority: 1}) // urgent: reaches the uplink at 2500
	}
	order := func(cfg Config) []int32 {
		var prios []int32
		for _, d := range runNet(t, cfg, 4, send) {
			prios = append(prios, d.m.Priority)
		}
		return prios
	}
	blind := order(rackCfg(4))
	if !slices.Equal(blind, []int32{0, 9, 1}) {
		t.Errorf("blind core served priorities %v, want arrival order [0 9 1]", blind)
	}
	p3cfg := rackCfg(4)
	p3cfg.Topology.CoreSched = "p3"
	ranked := order(p3cfg)
	if !slices.Equal(ranked, []int32{0, 1, 9}) {
		t.Errorf("p3 core served priorities %v, want rank order [0 1 9]", ranked)
	}
}

// TestAggTopologyLPs pins the LP layout with aggregation on: one extra LP
// per rack appended after the port LPs (so non-aggregated LP numbering is
// unchanged), each assigned to its rack's shard.
func TestAggTopologyLPs(t *testing.T) {
	cfg := cleanCfg("fifo")
	cfg.Topology = Topology{RackSize: 2, CoreOversub: 4}
	cfg.Aggregation = true
	// 5 machines -> 3 racks: 5 + 2*3 ports + 3 aggregators.
	if got := cfg.NumLPs(5); got != 14 {
		t.Errorf("agg NumLPs(5) = %d, want 14", got)
	}
	got := cfg.LPShards(4, 2)
	want := []int{0, 0, 1, 1 /* machines */, 0, 0, 1, 1 /* ports */, 0, 1 /* aggregators */}
	if !slices.Equal(got, want) {
		t.Errorf("agg LPShards(4, 2) = %v, want %v", got, want)
	}
}

// TestAggDeliverAndSend pins the aggregator data path at the netsim layer:
// ToAgg sends land in AggDeliver on the aggregator's timeline without core
// transit for rack-local pushes, AggSend forwards one reduced stream whose
// only serialization points are the two core ports, and AggFanout copies
// pay only propagation plus each receiver's own ingress.
func TestAggDeliverAndSend(t *testing.T) {
	var eng sim.Engine
	type aggDelivery struct {
		rack int
		m    Message
		at   sim.Time
	}
	var aggGot []aggDelivery
	var got []delivery
	cfg := rackCfg(4)
	cfg.Aggregation = true
	var nw *Network
	cfg.AggDeliver = func(tier, rack int, m Message) {
		if tier != TierRack {
			t.Fatalf("aggregator delivery at tier %d, want TierRack", tier)
		}
		aggGot = append(aggGot, aggDelivery{rack, m, eng.Now()})
		if len(aggGot) == 2 {
			// Both of rack 0's pushes are in: forward one reduced stream
			// across the core and fan a notify back out within the rack.
			nw.AggSend(TierRack, rack, Message{From: 0, To: 2, Bytes: 1000})
			nw.AggFanout(TierRack, rack, Message{From: 0, Bytes: 500}, -1)
		}
	}
	nw = New(&eng, 4, cfg, func(m Message) {
		got = append(got, delivery{m, eng.Now()})
	}, nil)
	// Machines 0 and 1 push to their own rack's aggregator (rack 0).
	nw.Send(Message{From: 0, To: 0, ToAgg: true, Bytes: 1000})
	nw.Send(Message{From: 1, To: 0, ToAgg: true, Bytes: 1000})
	eng.Run()
	if len(aggGot) != 2 {
		t.Fatalf("%d aggregator deliveries, want 2", len(aggGot))
	}
	// Rack-local pushes pay only host egress (1000 ns): no core transit.
	for i, d := range aggGot {
		if d.rack != 0 || d.at != 1000 {
			t.Errorf("agg delivery %d: rack %d at %v, want rack 0 at 1000", i, d.rack, d.at)
		}
	}
	if len(got) != 3 {
		t.Fatalf("%d machine deliveries, want 3 (2 fanout copies + 1 reduced stream)", len(got))
	}
	// Fanout copies: no egress, no core — propagation (0) + 500 ns ingress.
	for _, d := range got[:2] {
		if d.at != 1500 || !d.m.FromAgg {
			t.Errorf("fanout copy to %d at %v (FromAgg=%v), want 1500 ns, FromAgg", d.m.To, d.at, d.m.FromAgg)
		}
	}
	// Reduced stream: uplink 1000-3000, downlink 3000-5000, ingress -> 6000.
	if last := got[2]; last.m.To != 2 || last.at != 6000 || !last.m.FromAgg {
		t.Errorf("reduced stream to %d at %v (FromAgg=%v), want machine 2 at 6000 ns, FromAgg", last.m.To, last.at, last.m.FromAgg)
	}
}

// spineCfg is rackCfg with the four racks of an 8-machine run grouped
// into two pods behind a spine tier.
func spineCfg(coreOversub, spineOversub float64) Config {
	cfg := rackCfg(coreOversub)
	cfg.Topology.Pods = 2
	cfg.Topology.SpineOversub = spineOversub
	return cfg
}

// TestSpineInterPodTiming pins the six-hop path of an inter-pod message:
// host egress, rack uplink, spine uplink, spine downlink, rack downlink,
// host ingress — with the spine ports serializing at the pod-aggregate
// ToR-uplink rate divided by SpineOversub.
func TestSpineInterPodTiming(t *testing.T) {
	for _, tc := range []struct {
		spineOversub float64
		want         sim.Time
	}{
		// Non-blocking spine: pod rate = 4 machines x 8 Gbps / 4 core
		// oversub = 8 Gbps = 1 B/ns, so 1000 ns per spine hop. Total:
		// 1000 (egress) + 2000 (uplink) + 1000 + 1000 (spine) +
		// 2000 (downlink) + 1000 (ingress).
		{1, 8000},
		// 4:1 spine: 2 Gbps = 0.25 B/ns, 4000 ns per spine hop.
		{4, 14000},
		// 0 means non-blocking, like CoreOversub.
		{0, 8000},
	} {
		got := runNet(t, spineCfg(4, tc.spineOversub), 8, func(nw *Network) {
			nw.Send(Message{From: 0, To: 4, Bytes: 1000})
		})
		if len(got) != 1 {
			t.Fatalf("spine oversub %g: %d deliveries", tc.spineOversub, len(got))
		}
		if got[0].at != tc.want {
			t.Errorf("spine oversub %g: inter-pod delivery at %v ns, want %v", tc.spineOversub, got[0].at, tc.want)
		}
	}
}

// TestSpineIntraPodBitIdentical pins the turn-around contract: traffic
// between racks of the same pod never touches the spine, so its timing is
// identical to the single-tier core — and a Pods=1 topology, where every
// rack shares the one pod, is bit-identical to no spine at all.
func TestSpineIntraPodBitIdentical(t *testing.T) {
	send := func(nw *Network) {
		nw.Send(Message{From: 0, To: 2, Bytes: 1000}) // rack 0 -> rack 1, same pod
	}
	single := runNet(t, rackCfg(4), 8, send)
	twoPod := runNet(t, spineCfg(4, 4), 8, send)
	if single[0].at != twoPod[0].at {
		t.Errorf("intra-pod inter-rack delivery at %v ns, single-tier %v — the spine leaked into an intra-pod path", twoPod[0].at, single[0].at)
	}
	onePod := rackCfg(4)
	onePod.Topology.Pods = 1
	onePod.Topology.SpineOversub = 4
	got := runNet(t, onePod, 8, send)
	if single[0].at != got[0].at {
		t.Errorf("Pods=1 delivery at %v ns, no-spine %v — a one-pod spine must route nothing", got[0].at, single[0].at)
	}
	spine := runNet(t, spineCfg(4, 4), 8, func(nw *Network) {
		nw.Send(Message{From: 0, To: 4, Bytes: 1000}) // pod 0 -> pod 1
	})
	if spine[0].at == single[0].at {
		t.Errorf("inter-pod delivery at %v ns matches the intra-pod path — the spine hops were skipped", spine[0].at)
	}
}

// TestSpineBytesAccounting pins the spine-tier traffic counters: only
// inter-pod traffic transits the spine ports, and CoreBytes still counts
// the ToR ports alone.
func TestSpineBytesAccounting(t *testing.T) {
	var eng sim.Engine
	nw := New(&eng, 8, spineCfg(4, 1), func(Message) {}, nil)
	nw.Send(Message{From: 0, To: 2, Bytes: 1000}) // intra-pod
	nw.Send(Message{From: 0, To: 4, Bytes: 1000}) // inter-pod
	eng.Run()
	if got := nw.SpineBytes(); got != 2000 {
		t.Errorf("SpineBytes = %d, want 2000 (only the inter-pod message, uplink + downlink)", got)
	}
	if got := nw.SpineMsgs(); got != 2 {
		t.Errorf("SpineMsgs = %d, want 2 (one spine uplink + one downlink transit)", got)
	}
	if got := nw.CoreBytes(); got != 4000 {
		t.Errorf("CoreBytes = %d, want 4000 (two messages x uplink + downlink)", got)
	}
}

// TestSpineLookaheadAndLPs pins the sharding contract of the two-tier
// topology: the lookahead folds in the spine delay, the LP count includes
// two spine ports per pod (and a pod aggregator under Aggregation), and
// spine LPs ride the shard of their pod's first rack.
func TestSpineLookaheadAndLPs(t *testing.T) {
	cfg := cleanCfg("fifo")
	cfg.PropDelay = 500
	cfg.Topology = Topology{RackSize: 2, CoreOversub: 4, Pods: 2, CoreDelay: 100}
	if got := cfg.Lookahead(); got != 100 {
		t.Errorf("two-tier lookahead %v, want 100 (spine delay defaults to core delay)", got)
	}
	cfg.Topology.SpineDelay = 50
	if got := cfg.Lookahead(); got != 50 {
		t.Errorf("two-tier lookahead %v, want 50 (spine hop is the tighter bound)", got)
	}
	// 8 machines in racks of 2 -> 4 racks + 2 pods: 8 + 2*4 + 2*2 ports.
	if got := cfg.NumLPs(8); got != 20 {
		t.Errorf("spine NumLPs(8) = %d, want 20", got)
	}
	cfg.Aggregation = true
	if got := cfg.NumLPs(8); got != 26 {
		t.Errorf("spine+agg NumLPs(8) = %d, want 26", got)
	}
	got := cfg.LPShards(8, 2)
	want := []int{
		0, 0, 0, 0, 1, 1, 1, 1, // machines
		0, 0, 0, 0, 1, 1, 1, 1, // rack ports
		0, 0, 1, 1, // spine ports: pod p on the shard of rack p*rpp
		0, 0, 1, 1, // rack aggregators
		0, 1, // pod aggregators
	}
	if !slices.Equal(got, want) {
		t.Errorf("spine LPShards(8, 2) = %v, want %v", got, want)
	}
}

// TestPodAggregatorPath pins the hierarchical data path at the netsim
// layer: a rack aggregator's escalation (ToAgg at TierPod) rides its own
// rack's uplink and turns into the pod aggregator below the spine, a pod
// aggregator's AggSend to a machine of another pod crosses the spine, and
// its AggFanout re-enters each destination rack's downlink as
// rack-aggregator traffic.
func TestPodAggregatorPath(t *testing.T) {
	var eng sim.Engine
	cfg := spineCfg(4, 1)
	cfg.Aggregation = true
	type aggDelivery struct {
		tier, idx int
		at        sim.Time
	}
	var aggGot []aggDelivery
	var got []delivery
	var nw *Network
	cfg.AggDeliver = func(tier, idx int, m Message) {
		aggGot = append(aggGot, aggDelivery{tier, idx, eng.Now()})
		if tier == TierRack && !m.FromAgg {
			// Escalate the reduced rack stream to the own pod's aggregator.
			nw.AggSend(TierRack, idx, Message{From: 0, To: 0, ToAgg: true, AggTier: TierPod, Bytes: 1000})
			return
		}
		if tier == TierPod {
			// Reduced once more: one stream to a machine across the spine,
			// and a fanout to the pod's other rack.
			nw.AggSend(TierPod, idx, Message{From: 0, To: 5, Bytes: 1000})
			nw.AggFanout(TierPod, idx, Message{From: 0, Bytes: 500}, 0)
		}
	}
	nw = New(&eng, 8, cfg, func(m Message) {
		got = append(got, delivery{m, eng.Now()})
	}, nil)
	nw.Send(Message{From: 0, To: 0, ToAgg: true, Bytes: 1000})
	eng.Run()
	if len(aggGot) != 3 {
		t.Fatalf("%d aggregator deliveries, want 3 (rack push, pod escalation, fanout copy)", len(aggGot))
	}
	// Rack-local push: host egress only -> 1000.
	if d := aggGot[0]; d.tier != TierRack || d.idx != 0 || d.at != 1000 {
		t.Errorf("rack push delivered at tier %d idx %d at %v, want rack 0 at 1000", d.tier, d.idx, d.at)
	}
	// Escalation: rack 0 uplink 1000-3000 (0.5 B/ns), same pod -> turns
	// around into pod aggregator 0 below the spine.
	if d := aggGot[1]; d.tier != TierPod || d.idx != 0 || d.at != 3000 {
		t.Errorf("pod escalation delivered at tier %d idx %d at %v, want pod 0 at 3000", d.tier, d.idx, d.at)
	}
	// Fanout copy: rack 1 downlink serializes 500 B 3000-4000, lands on
	// rack aggregator 1 as TierRack traffic.
	if d := aggGot[2]; d.tier != TierRack || d.idx != 1 || d.at != 4000 {
		t.Errorf("fanout copy delivered at tier %d idx %d at %v, want rack 1 at 4000", d.tier, d.idx, d.at)
	}
	// Machine stream: spine uplink 3000-4000, spine downlink 4000-5000,
	// rack 2 downlink 5000-7000, ingress -> 8000.
	if len(got) != 1 || got[0].m.To != 5 || got[0].at != 8000 || !got[0].m.FromAgg {
		t.Fatalf("machine deliveries %v, want one FromAgg stream to machine 5 at 8000", got)
	}
}

// TestPodTierSendWithoutSpinePanics pins the addressing contract: a
// pod-tier aggregator send on a single-tier topology has no LP to land on
// and must refuse loudly.
func TestPodTierSendWithoutSpinePanics(t *testing.T) {
	var eng sim.Engine
	cfg := rackCfg(4)
	cfg.Aggregation = true
	cfg.AggDeliver = func(int, int, Message) {}
	nw := New(&eng, 4, cfg, func(Message) {}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("TierPod send without a spine tier did not panic")
		}
	}()
	nw.Send(Message{From: 0, To: 0, ToAgg: true, AggTier: TierPod, Bytes: 1000})
}

// TestAggReduceRate pins the aggregator capacity model: with a finite
// AggReduceGBps the aggregator serializes ingest at that rate before the
// reduction sees each message (FIFO, canonical arrival order), and rate 0
// keeps the free instantaneous reduction.
func TestAggReduceRate(t *testing.T) {
	run := func(rate float64) []sim.Time {
		var eng sim.Engine
		cfg := rackCfg(4)
		cfg.Aggregation = true
		cfg.AggReduceGBps = rate
		var at []sim.Time
		var from []int
		cfg.AggDeliver = func(tier, rack int, m Message) {
			at = append(at, eng.Now())
			from = append(from, m.From)
		}
		nw := New(&eng, 4, cfg, func(Message) {}, nil)
		nw.Send(Message{From: 0, To: 0, ToAgg: true, Bytes: 1000})
		nw.Send(Message{From: 1, To: 0, ToAgg: true, Bytes: 1000})
		eng.Run()
		if len(at) != 2 || from[0] != 0 || from[1] != 1 {
			t.Fatalf("rate %g: deliveries from %v, want [0 1]", rate, from)
		}
		return at
	}
	// Free reduction: both pushes land as their egresses finish, at 1000.
	free := run(0)
	if free[0] != 1000 || free[1] != 1000 {
		t.Errorf("free-reduce deliveries at %v, want [1000 1000]", free)
	}
	// 1 GB/s = 1 B/ns: the two simultaneous arrivals serialize through the
	// reduce engine back to back, 1000 ns each.
	paced := run(1)
	if paced[0] != 2000 || paced[1] != 3000 {
		t.Errorf("1 GB/s deliveries at %v, want [2000 3000]", paced)
	}
}

// TestAggReduceRateValidation pins the config cross-checks of the
// capacity model: a negative rate and a rate without aggregators both
// panic at construction.
func TestAggReduceRateValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		var eng sim.Engine
		New(&eng, 4, cfg, func(Message) {}, nil)
	}
	neg := rackCfg(4)
	neg.Aggregation = true
	neg.AggDeliver = func(int, int, Message) {}
	neg.AggReduceGBps = -1
	mustPanic("negative AggReduceGBps", neg)
	bare := rackCfg(4)
	bare.AggReduceGBps = 8
	mustPanic("AggReduceGBps without Aggregation", bare)
}

// TestDegradeWindows pins the scripted rate windows against closed-form
// times. Each case sends 1000-byte messages at 1000, inside a window open
// over [0, 100000) unless the case says otherwise, and again at 200000,
// after it: hosts serialize at 1 B/ns and rack ports at 2 B/ns. A host
// window slows both directions of its NIC, a ToR window both of its rack's
// ports, and every rate comes back exactly: the late sends take the
// undegraded times and every stage's scale, each host's egress and
// ingress included, is 1.
func TestDegradeWindows(t *testing.T) {
	const early, later = 1000, 200000
	for _, tc := range []struct {
		name    string
		quantum int64 // Config.PreemptQuantum
		window  func(nw *Network)
		sends   [][2]int         // from, to
		during  map[int]sim.Time // sender → transit time of its early send
		after   sim.Time         // transit time of every later send
	}{
		// Machine 0's NIC at half rate, machine 1's at a quarter: 0→1 pays
		// egress 2000 + ingress 4000, 1→0 egress 4000 + ingress 2000.
		{"host", 0, func(nw *Network) {
			nw.ScheduleHostDegrade(0, 0, 100000, 0.5)
			nw.ScheduleHostDegrade(1, 0, 100000, 0.25)
		}, [][2]int{{0, 1}, {1, 0}}, map[int]sim.Time{0: 6000, 1: 6000}, 2000},
		// 250-byte segments, and machine 0's window opens at 1400, in the
		// message's second segment: the two segments that start before it
		// take 250 each, the two that start inside it 500 each, so egress
		// takes 1500 and machine 1's undegraded ingress 1000 more. Sampled
		// once per message the send would take 2000; slowed from its
		// first byte, 3000.
		{"host-segmented", 250, func(nw *Network) {
			nw.ScheduleHostDegrade(0, 1400, 100000, 0.5)
		}, [][2]int{{0, 1}}, map[int]sim.Time{0: 2500}, 2000},
		// Rack 0's ports at half rate: 0→2 crosses its uplink (1000 instead
		// of 500), 2→0 its downlink; each path is 1000 + 1000 + 500 + 1000.
		{"tor", 0, func(nw *Network) {
			nw.ScheduleTierDegrade(TierRack, 0, 0, 100000, 0.5)
		}, [][2]int{{0, 2}, {2, 0}}, map[int]sim.Time{0: 3500, 2: 3500}, 3000},
	} {
		var eng sim.Engine
		at := map[int][]sim.Time{}
		cfg := rackCfg(1)
		cfg.PreemptQuantum = tc.quantum
		nw := New(&eng, 4, cfg, func(m Message) { at[m.From] = append(at[m.From], eng.Now()) }, nil)
		tc.window(nw)
		for _, start := range []sim.Time{early, later} {
			eng.At(start, func() {
				for _, s := range tc.sends {
					nw.Send(Message{From: s[0], To: s[1], Bytes: 1000})
				}
			})
		}
		eng.Run()
		for from, d := range tc.during {
			if want := []sim.Time{early + d, later + tc.after}; !slices.Equal(at[from], want) {
				t.Errorf("%s: deliveries from %d at %d ns, want %d", tc.name, from, at[from], want)
			}
		}
		stages := []*stage{}
		for i := range nw.nics {
			stages = append(stages, &nw.nics[i].out, &nw.nics[i].in)
		}
		for g := range nw.tiers[0].groups() {
			stages = append(stages, &nw.tiers[0].up(g).stage, &nw.tiers[0].down(g).stage)
		}
		for _, s := range stages {
			if s.scale != 1 {
				t.Errorf("%s: LP %d scale %v after its window, want exactly 1", tc.name, s.lp, s.scale)
			}
		}
	}
}
