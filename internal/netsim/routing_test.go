package netsim

import (
	"fmt"
	"testing"

	"p3/internal/sim"
)

// The routing property: one message alone in the network, between any two
// addresses of a topology, arrives at the closed-form time of the ports
// its endpoints' racks and pods imply, and moves the counters of exactly
// those ports. The model below is written out case by case from the
// topology's meaning (racks, pods), not from the tier table, and
// complements the pair-specific exact-ns tests of rack_test.go.

// fabric is a topology under test: n machines, racks of `rack` (0 = flat),
// grouped into `pods` pods (0 = no spine).
type fabric struct{ n, rack, pods int }

// endpoint is a machine (tier -1) or the aggregator idx of a tier.
type endpoint struct{ tier, idx int }

func (e endpoint) String() string {
	return map[int]string{-1: "machine", TierRack: "rack-agg", TierPod: "pod-agg"}[e.tier] + fmt.Sprint(e.idx)
}

// hop is one switch port of a path.
type hop struct {
	tier, group int
	up          bool
}

const (
	routeProp, routeCore, routeSpine = 7, 11, 13 // ns: all distinct, so a wrong delay shows
	routeBytes, routeHeader          = 1000, 24
	routeOverhead                    = 5
)

func (fb fabric) config() Config {
	cfg := cleanCfg("fifo") // 8 Gbps = 1 B/ns
	cfg.PropDelay, cfg.PerMsgOverhead, cfg.HeaderBytes = routeProp, routeOverhead, routeHeader
	if fb.rack > 0 {
		cfg.Topology = Topology{RackSize: fb.rack, CoreOversub: 4, CoreDelay: routeCore, Pods: fb.pods}
		cfg.Aggregation = true
	}
	if fb.pods > 0 {
		cfg.Topology.SpineOversub, cfg.Topology.SpineDelay = 2, routeSpine
	}
	return cfg
}

func (fb fabric) racks() int { return (fb.n + fb.rack - 1) / fb.rack }

// racksPerPod is the whole fabric's rack count without a spine: one
// imaginary pod that nothing ever leaves.
func (fb fabric) racksPerPod() int {
	if fb.pods == 0 {
		return fb.racks()
	}
	return fb.racks() / fb.pods
}

// endpoints lists every address of the fabric: machines, rack aggregators,
// pod aggregators.
func (fb fabric) endpoints() []endpoint {
	var es []endpoint
	for m := 0; m < fb.n; m++ {
		es = append(es, endpoint{-1, m})
	}
	if fb.rack > 0 {
		for r := 0; r < fb.racks(); r++ {
			es = append(es, endpoint{TierRack, r})
		}
		for p := 0; p < fb.pods; p++ {
			es = append(es, endpoint{TierPod, p})
		}
	}
	return es
}

// where places an endpoint: its rack (-1 for a pod aggregator, which sits
// above the racks) and its pod.
func (fb fabric) where(e endpoint) (rack, pod int) {
	switch e.tier {
	case -1:
		if fb.rack == 0 {
			return 0, 0 // flat: one rack nothing ever leaves
		}
		rack = e.idx / fb.rack
	case TierRack:
		rack = e.idx
	case TierPod:
		return -1, e.idx
	}
	return rack, rack / fb.racksPerPod()
}

// path is the closed form: the ports a message from src to dst serializes
// through, in order, and the propagation it pays between them.
func (fb fabric) path(src, dst endpoint) (hops []hop, wire sim.Time) {
	srcRack, srcPod := fb.where(src)
	dstRack, dstPod := fb.where(dst)
	wire = routeProp // leaving the source: a host's NIC or an aggregator
	if srcRack >= 0 {
		if dstRack == srcRack {
			return nil, wire // stays under the ToR
		}
		hops = append(hops, hop{TierRack, srcRack, true})
		wire += routeCore
		if dstPod == srcPod {
			if dstRack >= 0 { // turn around into the destination rack
				hops = append(hops, hop{TierRack, dstRack, false})
				wire += routeProp
			}
			return hops, wire // or it was the pod's own aggregator
		}
	} else if dstPod == srcPod { // a pod aggregator descending into its pod
		return []hop{{TierRack, dstRack, false}}, wire + routeProp
	}
	hops = append(hops, hop{TierPod, srcPod, true}, hop{TierPod, dstPod, false})
	wire += routeSpine
	if dstRack >= 0 {
		hops = append(hops, hop{TierRack, dstRack, false})
		wire += routeCore
	}
	return hops, wire + routeProp
}

// portTime is how long a port of the hop's group serializes the message:
// the group's machines' aggregate rate over the 4:1 core (and the 2:1
// spine above it).
func (fb fabric) portTime(h hop) sim.Time {
	span := fb.rack
	if h.tier == TierPod {
		span *= fb.racksPerPod()
	}
	machines := min((h.group+1)*span, fb.n) - h.group*span
	rate := float64(machines) * 8 / 4
	if h.tier == TierPod {
		rate /= 2
	}
	return sim.Time(float64(routeBytes+routeHeader) * 8 / rate)
}

const routeHostTime = routeOverhead + routeBytes + routeHeader // a NIC at 1 B/ns

// arrival is when the message is delivered, per the closed form.
func (fb fabric) arrival(src, dst endpoint) sim.Time {
	hops, at := fb.path(src, dst)
	for _, h := range hops {
		at += fb.portTime(h)
	}
	if src.tier < 0 {
		at += routeHostTime // egress
	}
	if dst.tier < 0 {
		at += routeHostTime // ingress
	}
	return at
}

// observed is one delivery: where and when.
type observed struct {
	to endpoint
	at sim.Time
}

// route runs one injection alone in a fresh network and returns what was
// delivered plus the network for its counters.
func (fb fabric) route(inject func(nw *Network)) ([]observed, *Network) {
	var eng sim.Engine
	var got []observed
	cfg := fb.config()
	cfg.AggDeliver = func(tier, idx int, m Message) {
		got = append(got, observed{endpoint{tier, idx}, eng.Now()})
	}
	nw := New(&eng, fb.n, cfg, func(m Message) {
		got = append(got, observed{endpoint{-1, m.To}, eng.Now()})
	}, nil)
	inject(nw)
	eng.Run()
	return got, nw
}

// checkPorts asserts that exactly the ports of hops carried one message
// each, and that the tier totals agree.
func checkPorts(t *testing.T, name string, nw *Network, hops []hop) {
	t.Helper()
	want := map[hop]int64{}
	perTier := [2]int64{}
	for _, h := range hops {
		want[h]++
		perTier[h.tier]++
	}
	for k := range nw.tiers {
		for g := range nw.tiers[k].groups() {
			for _, l := range []*port{nw.tiers[k].up(g), nw.tiers[k].down(g)} {
				if w := want[hop{k, g, l.up}]; l.msgs != w || l.bytes != w*routeBytes {
					t.Errorf("%s: tier %d group %d up=%v carried %d msgs / %d B, want %d msgs", name, k, g, l.up, l.msgs, l.bytes, w)
				}
			}
		}
	}
	if nw.CoreMsgs() != perTier[TierRack] || nw.CoreBytes() != perTier[TierRack]*routeBytes ||
		nw.SpineMsgs() != perTier[TierPod] || nw.SpineBytes() != perTier[TierPod]*routeBytes {
		t.Errorf("%s: core %d msgs / %d B, spine %d msgs / %d B, want %d and %d msgs", name,
			nw.CoreMsgs(), nw.CoreBytes(), nw.SpineMsgs(), nw.SpineBytes(), perTier[TierRack], perTier[TierPod])
	}
}

// sweep sends one message between every ordered pair of addresses — Send
// from a machine, AggSend from an aggregator — and returns the arrival
// times by pair.
func (fb fabric) sweep(t *testing.T) map[[2]endpoint]sim.Time {
	times := map[[2]endpoint]sim.Time{}
	for _, src := range fb.endpoints() {
		for _, dst := range fb.endpoints() {
			if src == dst {
				continue // loopback, or an aggregator addressing itself
			}
			name := fmt.Sprintf("%+v: %v -> %v", fb, src, dst)
			m := Message{From: src.idx, To: dst.idx, Bytes: routeBytes}
			if dst.tier >= 0 {
				m.ToAgg, m.AggTier = true, uint8(dst.tier)
			}
			got, nw := fb.route(func(nw *Network) {
				if src.tier < 0 {
					nw.Send(m)
				} else {
					nw.AggSend(src.tier, src.idx, m)
				}
			})
			if want := fb.arrival(src, dst); len(got) != 1 || got[0].to != dst || got[0].at != want {
				t.Errorf("%s: delivered %v, want one delivery to %v at %d", name, got, dst, want)
				continue
			}
			hops, _ := fb.path(src, dst)
			checkPorts(t, name, nw, hops)
			if src.tier < 0 && dst.tier < 0 {
				// Between machines a tier's ports move iff the endpoints differ
				// at that tier, uplink and downlink together.
				srcRack, srcPod := fb.where(src)
				dstRack, dstPod := fb.where(dst)
				wantCore, wantSpine := int64(0), int64(0)
				if srcRack != dstRack {
					wantCore = 2
				}
				if srcPod != dstPod {
					wantSpine = 2
				}
				if nw.CoreMsgs() != wantCore || nw.SpineMsgs() != wantSpine {
					t.Errorf("%s: %d core / %d spine port transits, want %d / %d", name, nw.CoreMsgs(), nw.SpineMsgs(), wantCore, wantSpine)
				}
			}
			times[[2]endpoint{src, dst}] = got[0].at
		}
	}
	return times
}

// TestRoutingClosedForm sweeps every ordered address pair of a flat
// network, a one-tier fabric with a partial last rack, and a two-tier
// fabric with a partial last rack and pod.
func TestRoutingClosedForm(t *testing.T) {
	for _, fb := range []fabric{{n: 3}, {n: 5, rack: 2}, {n: 7, rack: 2, pods: 2}} {
		fb.sweep(t)
	}
}

// TestRoutingFanout: AggFanout from every aggregator reaches each child
// once — a rack's machines directly, a pod's rack aggregators through
// their downlinks — at the closed-form time, except the skipped child.
func TestRoutingFanout(t *testing.T) {
	fb := fabric{n: 7, rack: 2, pods: 2}
	for _, src := range fb.endpoints() {
		if src.tier < 0 {
			continue
		}
		var kids []endpoint
		for _, e := range fb.endpoints() {
			rack, pod := fb.where(e)
			if e.tier == src.tier-1 && (src.tier == TierRack && rack == src.idx || src.tier == TierPod && pod == src.idx) {
				kids = append(kids, e)
			}
		}
		for _, skip := range []int{-1, kids[0].idx} {
			name := fmt.Sprintf("%v fanout, skip %d", src, skip)
			got, nw := fb.route(func(nw *Network) {
				nw.AggFanout(src.tier, src.idx, Message{From: 0, Bytes: routeBytes}, skip)
			})
			var want []observed
			var hops []hop
			for _, k := range kids {
				if k.idx == skip {
					continue
				}
				want = append(want, observed{k, fb.arrival(src, k)})
				h, _ := fb.path(src, k)
				hops = append(hops, h...)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: delivered %v, want %v", name, got, want)
			}
			checkPorts(t, name, nw, hops)
		}
	}
}

// TestRoutingOnePodEqualsNoSpine: a Pods=1 topology builds the spine tier
// and routes nothing through it — every pair both fabrics have arrives at
// the same time (sweep already pins the spine counters at zero).
func TestRoutingOnePodEqualsNoSpine(t *testing.T) {
	noSpine := fabric{n: 5, rack: 2}.sweep(t)
	onePod := fabric{n: 5, rack: 2, pods: 1}.sweep(t)
	for pair, at := range noSpine {
		if onePod[pair] != at {
			t.Errorf("%v -> %v: %d with Pods 1, %d without a spine", pair[0], pair[1], onePod[pair], at)
		}
	}
	if len(onePod) <= len(noSpine) {
		t.Errorf("Pods 1 swept %d pairs, no more than the %d without a spine: the pod aggregator was not addressed", len(onePod), len(noSpine))
	}
}
