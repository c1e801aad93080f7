package netsim

import (
	"fmt"
	"testing"

	"p3/internal/sim"
)

// twoTier is 16 machines in 4 racks of 4, two pods of two racks each.
func twoTier(coreSched string) Config {
	cfg := DefaultConfig(8)
	cfg.Egress = "p3"
	cfg.Topology = Topology{RackSize: 4, CoreOversub: 2, CoreSched: coreSched, Pods: 2, SpineOversub: 2, SpineSched: coreSched}
	return cfg
}

// TestSteadyStateAllocatesNothing pins the tentpole contract per hop type:
// once a first wave has populated the record pools, the queues' flow shells
// and the event slab, sending the same wave again allocates nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const n = 16
	to := func(f func(from int) int) func(nw *Network, from, i int) {
		return func(nw *Network, from, i int) {
			nw.Send(Message{From: from, To: f(from), Bytes: int64(2000 + 64*i), Priority: int32(i % 4), Chunk: int32(i)})
		}
	}
	toRackAgg := func(nw *Network, from, i int) {
		nw.Send(Message{From: from, To: from / 4, ToAgg: true, Bytes: 4096, Priority: int32(i % 4)})
	}
	credit := func(c Config) Config { c.Egress = "credit:8192"; return c }
	agg := func(c Config, reduceGBps float64) Config {
		c.Aggregation, c.AggReduceGBps = true, reduceGBps
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		send func(nw *Network, from, i int)
	}{
		{"loopback", DefaultConfig(8), to(func(from int) int { return from })},
		{"same-switch", DefaultConfig(8), to(func(from int) int { return (from + 1) % n })},
		{"tor-blind", twoTier(""), to(func(from int) int { return from ^ 4 })},
		{"tor-damped", twoTier("damped"), to(func(from int) int { return from ^ 4 })},
		{"spine", twoTier("damped"), to(func(from int) int { return (from + n/2) % n })},
		{"agg-fanout", agg(twoTier("damped"), 0), toRackAgg},
		{"credit-refund", credit(DefaultConfig(8)), to(func(from int) int { return (from + 1) % n })},
		{"credit-spine", credit(twoTier("")), to(func(from int) int { return (from + n/2) % n })},
		{"credit-agg-reduce", credit(agg(twoTier(""), 1)), toRackAgg},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var eng sim.Engine
			var nw *Network
			delivered := 0
			cfg := c.cfg
			if cfg.Aggregation {
				cfg.AggDeliver = func(tier, idx int, m Message) { nw.AggFanout(tier, idx, m, -1) }
			}
			nw = New(&eng, n, cfg, func(Message) { delivered++ }, nil)
			wave := func() {
				for i := 0; i < 6; i++ {
					for from := 0; from < n; from++ {
						c.send(nw, from, i)
					}
				}
				eng.Run()
			}
			wave()
			if delivered == 0 {
				t.Fatal("warm-up wave delivered nothing")
			}
			if a := testing.AllocsPerRun(5, wave); a != 0 {
				t.Fatalf("%v allocs per steady-state wave, want 0", a)
			}
			if nw.MsgsDelivered() != int64(delivered) {
				t.Fatalf("%d delivered, handler saw %d", nw.MsgsDelivered(), delivered)
			}
		})
	}
}

// TestPreemptionAllocatesNothing covers the resumable-egress path with a
// preemption actually firing: a bulk transfer is parked for an express
// message at a segment boundary and resumed, wave after wave, without
// allocating.
func TestPreemptionAllocatesNothing(t *testing.T) {
	cfg := cleanCfg("p3")
	cfg.PreemptQuantum = 1000
	var eng sim.Engine
	nw := New(&eng, 2, cfg, func(Message) {}, nil)
	express := func() { nw.Send(Message{From: 0, To: 1, Bytes: 200, Priority: 0}) }
	wave := func() {
		nw.Send(Message{From: 0, To: 1, Bytes: 10000, Priority: 5})
		eng.After(1500, express) // lands mid-bulk; preempts at the 2000-byte boundary
		eng.Run()
	}
	wave()
	if nw.Preemptions() != 1 {
		t.Fatalf("%d preemptions in the warm-up wave, want 1", nw.Preemptions())
	}
	if a := testing.AllocsPerRun(5, wave); a != 0 {
		t.Fatalf("%v allocs per preempting wave, want 0", a)
	}
	if nw.Preemptions() != 7 {
		t.Fatalf("%d preemptions after 7 waves, want 7", nw.Preemptions())
	}
}

// TestRecycledRecordsNeverCorruptDelivery is the recycle-safety check: the
// handlers keep every delivered Message by value and answer from inside the
// delivery (so the record just released is immediately reused). After the
// run the multiset delivered must equal the multiset sent — a record freed
// while still queued, or a free list raced across shards, would deliver a
// message twice, drop one, or deliver another message's fields. Run under
// -race this also checks the per-shard free lists need no lock.
func TestRecycledRecordsNeverCorruptDelivery(t *testing.T) {
	const n = 16
	rackAgg := twoTier("")
	rackAgg.Topology.Pods, rackAgg.Topology.SpineOversub, rackAgg.Topology.SpineSched = 0, 0, ""
	rackAgg.Aggregation, rackAgg.AggReduceGBps = true, 2
	cases := []struct {
		name string
		cfg  Config
	}{
		{"flat", DefaultConfig(8)},
		{"rack+agg", rackAgg},
		{"two-tier", twoTier("damped")},
	}
	for _, c := range cases {
		for _, egress := range []string{"p3", "credit:16384"} {
			for _, shards := range []int{1, 4} {
				cfg := c.cfg
				cfg.Egress = egress
				t.Run(fmt.Sprintf("%s/%s/shards%d", c.name, egress, shards), func(t *testing.T) {
					checkRecycling(t, cfg, n, shards)
				})
			}
		}
	}
}

func checkRecycling(t *testing.T, cfg Config, n, shards int) *Network {
	x, err := sim.NewParallel(shards, cfg.LPShards(n, shards), cfg.Lookahead())
	if err != nil {
		t.Fatal(err)
	}
	// Everything below is indexed by the LP that writes it, so shards never
	// share a slice header.
	sent := make([][]Message, cfg.NumLPs(n))
	got := make([][]Message, cfg.NumLPs(n))
	var nw *Network
	send := func(m Message) {
		sent[m.From] = append(sent[m.From], m)
		nw.Send(m)
	}
	if cfg.Aggregation {
		cfg.AggDeliver = func(tier, idx int, m Message) {
			lp := nw.agg(tier, idx).lp
			got[lp] = append(got[lp], m)
			// The fan-out's copies are what the rack's machines must see.
			c := m
			c.FromAgg, c.ToAgg = true, false
			for w := idx * cfg.Topology.RackSize; w < (idx+1)*cfg.Topology.RackSize; w++ {
				c.To = w
				sent[lp] = append(sent[lp], c)
			}
			nw.AggFanout(tier, idx, m, -1)
		}
	}
	nw = New(x, n, cfg, func(m Message) {
		got[m.To] = append(got[m.To], m)
		if m.Iter > 0 && !m.FromAgg {
			// Answer from inside the delivery: reuses the record just freed.
			send(Message{From: m.To, To: m.From, Bytes: m.Bytes / 2, Priority: m.Priority, Kind: 2, Chunk: m.Chunk, Iter: m.Iter - 1, Src: m.Src})
		}
	}, nil)
	for from := 0; from < n; from++ {
		from := from
		x.Proc(from).At(0, func() {
			for i := 0; i < 24; i++ {
				m := Message{From: from, To: (from + 1 + i) % n, Bytes: int64(512 + 97*i), Priority: int32(i % 5), Kind: 1, Chunk: int32(i), Iter: 3, Src: int32(from)}
				if cfg.Aggregation && i%3 == 0 {
					m.To, m.ToAgg, m.Iter = from/cfg.Topology.RackSize, true, 0
				}
				send(m)
			}
		})
	}
	x.Run()

	count := func(lists [][]Message) (map[Message]int, int) {
		set, total := make(map[Message]int), 0
		for _, l := range lists {
			for _, m := range l {
				set[m]++
				total++
			}
		}
		return set, total
	}
	want, nWant := count(sent)
	have, nHave := count(got)
	if nWant != nHave || nWant < 24*n {
		t.Fatalf("%d messages sent, %d delivered", nWant, nHave)
	}
	for m, k := range want {
		if have[m] != k {
			t.Fatalf("message %+v sent %d times, delivered %d times", m, k, have[m])
		}
	}
	records(t, nw)
	return nw
}
