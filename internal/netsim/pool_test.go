package netsim

import (
	"fmt"
	"testing"

	"p3/internal/sim"
)

// Message kinds of driveAllReduce's protocol.
const (
	kindPush    = iota + 1 // machine -> its rack aggregator
	kindReduced            // rack aggregator -> its pod aggregator
	kindDown               // pod aggregator -> its rack aggregators
	kindResult             // rack aggregator -> its machines
	kindAsk                // machine -> a machine in the other pod
	kindAnswer             // the answer, sent from inside the delivery
)

// driveAllReduce runs iters iterations of a hierarchical all-reduce on a
// rack-aggregated network of n machines (cfg must have racks, Pods > 1 and
// Aggregation) at the given shard count, and returns the drained network.
// Each iteration every machine pushes chunks slices to its rack
// aggregator, gap apart — a backward pass's trickle, not one burst — and
// asks a machine in the other pod once per slice. A rack aggregator sends
// a slice up once all its machines pushed it; a pod aggregator fans it
// back down once all its racks did; the rack aggregators fan it out to
// their machines. Every counter is indexed by the LP that writes it, so
// shards never share one. With crash set, rack 0's aggregator is down for
// a stretch of the second iteration, which drops what it holds and what
// reaches it (so the slices of its pod that lost a push never come back).
func driveAllReduce(t *testing.T, cfg Config, n, shards, iters int, crash bool) *Network {
	t.Helper()
	const chunks, gap, period = 8, 40 * sim.Microsecond, 2 * sim.Millisecond
	x, err := sim.NewParallel(shards, cfg.LPShards(n, shards), cfg.Lookahead())
	if err != nil {
		t.Fatal(err)
	}
	var nw *Network
	top := cfg.Topology
	racksPerPod := top.NumRacks(n) / top.Pods
	seen := make([][]int, cfg.NumLPs(n)) // per aggregator LP: arrivals per (iteration, slice)
	results := make([]int, n)            // per machine: slices received back
	cfg.AggDeliver = func(tier, idx int, m Message) {
		lp := nw.agg(tier, idx).lp
		if seen[lp] == nil {
			seen[lp] = make([]int, iters*chunks)
		}
		k := int(m.Iter)*chunks + int(m.Chunk)
		up := Message{Bytes: m.Bytes, Priority: m.Priority, Chunk: m.Chunk, Iter: m.Iter}
		switch m.Kind {
		case kindPush:
			if seen[lp][k]++; seen[lp][k] == min(top.RackSize, n-idx*top.RackSize) {
				up.To, up.ToAgg, up.AggTier, up.Kind = idx/racksPerPod, true, TierPod, kindReduced
				nw.AggSend(tier, idx, up)
			}
		case kindReduced:
			if seen[lp][k]++; seen[lp][k] == racksPerPod {
				up.Kind = kindDown
				nw.AggFanout(tier, idx, up, -1)
			}
		case kindDown:
			up.Kind = kindResult
			nw.AggFanout(tier, idx, up, -1)
		default:
			t.Errorf("aggregator %d/%d got kind %d", tier, idx, m.Kind)
		}
	}
	nw = New(x, n, cfg, func(m Message) {
		switch m.Kind {
		case kindResult:
			results[m.To]++
		case kindAsk:
			nw.Send(Message{From: m.To, To: m.From, Bytes: m.Bytes, Priority: m.Priority, Kind: kindAnswer, Chunk: m.Chunk, Iter: m.Iter})
		}
	}, nil)
	for it := 0; it < iters; it++ {
		for c := 0; c < chunks; c++ {
			for from := 0; from < n; from++ {
				m := Message{From: from, Bytes: int64(2048 + 512*c), Priority: int32(chunks - c), Chunk: int32(c), Iter: int32(it)}
				x.Proc(from).At(sim.Time(it)*period+sim.Time(c)*gap, func() {
					push, ask := m, m
					push.To, push.ToAgg, push.Kind = top.RackOf(from), true, kindPush
					ask.To, ask.Kind = (from+n/2)%n, kindAsk
					nw.Send(push)
					nw.Send(ask)
				})
			}
		}
	}
	if crash {
		nw.ScheduleAggOutage(TierRack, 0, period+100*sim.Microsecond, period+300*sim.Microsecond, nil)
	}
	x.Run()
	for w, got := range results {
		if crash {
			break
		}
		if got != iters*chunks {
			t.Fatalf("machine %d got %d reduced slices back, want %d", w, got, iters*chunks)
		}
	}
	return nw
}

// allReduceCfg is 16 machines in 4 racks of 4, two pods, with rack and
// pod aggregators; reduceGBps > 0 puts a reduce engine in front of them
// (and, under a gated egress, makes the credit refund lend a second
// record).
func allReduceCfg(egress string, reduceGBps float64) Config {
	cfg := twoTier("damped")
	cfg.Egress = egress
	cfg.Aggregation, cfg.AggReduceGBps = true, reduceGBps
	return cfg
}

// records sums what the drained network's free lists hold and what its
// pool misses made, failing on a record listed twice.
func records(t *testing.T, nw *Network) (listed, made int) {
	t.Helper()
	onFree := make(map[*flight]bool)
	for _, l := range nw.free {
		made += l.made
		for f := l.head; f != nil; f = f.next {
			if onFree[f] {
				t.Fatal("a record sits on the free lists twice")
			}
			onFree[f] = true
			listed++
		}
	}
	return listed, made
}

// TestRecordsConserved is the record-conservation invariant at the
// netsim layer: once a run has drained, every record a pool miss made sits
// on exactly one free list, so the lists' lengths sum to the records made.
// A release that is dropped leaks a record and one that runs twice lists
// it twice; either breaks the sum. Flat, rack + spine + aggregation (with
// and without a reduce engine, and through an aggregator crash) and
// credit-gated networks run at 1, 2 and 3 shards, so records released on another shard than the one whose list
// made them are counted too. The preempt cells segment host egress, so
// records are parked mid-message and resumed later; they must preempt at
// least once.
func TestRecordsConserved(t *testing.T) {
	const n = 16
	flat := func(egress string) Config {
		cfg := DefaultConfig(8)
		cfg.Egress = egress
		return cfg
	}
	preempt := func(egress string) Config {
		cfg := flat(egress)
		cfg.PreemptQuantum = 1024
		return cfg
	}
	cases := []struct {
		name  string
		cfg   Config
		crash bool
	}{
		{"flat", flat("p3"), false},
		{"credit-flat", flat("credit:16384"), false},
		{"preempt-flat", preempt("p3"), false},
		{"credit-adaptive-preempt-flat", preempt("credit-adaptive:16384"), false},
		{"rack+spine+agg", allReduceCfg("p3", 0), false},
		{"rack+spine+agg-reduce", allReduceCfg("p3", 2), false},
		{"credit-rack+spine+agg", allReduceCfg("credit:16384", 0), false},
		{"credit-rack+spine+agg-reduce", allReduceCfg("credit:16384", 2), false},
		// A reduce engine slower than the pushes reach it, so the crash
		// finds a queue to drain.
		{"agg-crash", allReduceCfg("p3", 0.1), true},
	}
	for _, c := range cases {
		for shards := 1; shards <= 3; shards++ {
			t.Run(fmt.Sprintf("%s/shards%d", c.name, shards), func(t *testing.T) {
				var nw *Network
				if c.cfg.Aggregation {
					nw = driveAllReduce(t, c.cfg, n, shards, 3, c.crash)
				} else {
					nw = checkRecycling(t, c.cfg, n, shards)
				}
				listed, made := records(t, nw)
				if made == 0 || listed != made {
					t.Fatalf("%d records made, %d on the free lists after the run drained", made, listed)
				}
				if c.cfg.PreemptQuantum > 0 && nw.Preemptions() == 0 {
					t.Fatal("no transmission was preempted: the park and resume paths did not run")
				}
			})
		}
	}
}

// TestShardedPoolsReuseRecords pins the free lists to one per shard. On
// the rack-aggregated all-reduce a machine's pushes are released on its
// rack aggregator's LP, which also answers them, and under a gated egress
// a push's record returns to the sender only with its refund. A shard's
// list hands what its aggregators and NICs release straight to the
// shard's next send, so at 2 and 3 shards the run makes no more records
// than on one engine, where every LP shares one list: measured equal, 172
// (p3) and 206 (credit) records at 1, 2 and 3 shards. Lists per LP — a
// pushing host's own list refilled only by what is delivered to it — made
// 208 (+21 %) and 642 (+3x) at 2 and 3 shards, the credit cell growing
// every iteration. The tolerance, 1/16 of the one-engine count (10 and 12
// records), leaves room for a change in the cell's cross-shard mix and
// still fails lists per LP.
func TestShardedPoolsReuseRecords(t *testing.T) {
	const n, iters = 16, 4
	for _, egress := range []string{"p3", "credit:16384"} {
		cfg := allReduceCfg(egress, 0)
		_, one := records(t, driveAllReduce(t, cfg, n, 1, iters, false))
		for _, shards := range []int{2, 3} {
			if _, made := records(t, driveAllReduce(t, cfg, n, shards, iters, false)); made > one+one/16 {
				t.Errorf("%s at %d shards: %d records made, one engine %d (tolerance %d)", egress, shards, made, one, one/16)
			}
		}
	}
}
