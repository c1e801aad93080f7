package cluster

import (
	"reflect"
	"testing"

	"p3/internal/netsim"
)

// aggCfg is shardedCfg over a rack topology with an oversubscribed core,
// with the core discipline and aggregation switch exposed.
func aggCfg(t *testing.T, n, rackSize int, sched, core string, agg bool) Config {
	t.Helper()
	cfg := shardedCfg(t, n, sched)
	cfg.Topology = netsim.Topology{RackSize: rackSize, CoreOversub: 4, CoreSched: core}
	cfg.RackAggregation = agg
	return cfg
}

// TestCoreSchedFifoBitIdentical pins the parity base case of the
// priority-aware core: a ToR port running the "fifo" discipline through
// the sched.Queue machinery must be bit-identical to the blind FIFO slice
// it replaces — same Result, same event count — for every host discipline,
// with and without aggregation. Ranked core disciplines may then diverge;
// fifo may not.
func TestCoreSchedFifoBitIdentical(t *testing.T) {
	for _, sched := range []string{"fifo", "p3", "damped", "tictac"} {
		for _, agg := range []bool{false, true} {
			blind := Run(aggCfg(t, 16, 4, sched, "", agg))
			fifo := Run(aggCfg(t, 16, 4, sched, "fifo", agg))
			if !reflect.DeepEqual(fifo, blind) {
				t.Errorf("%s/agg=%v: fifo-disciplined core diverges from blind FIFO core:\n got %+v\nwant %+v",
					sched, agg, fifo, blind)
			}
		}
	}
}

// TestShardedAggregationMatchesSingle extends the cluster-level
// determinism contract to the aggregator LPs: an N-shard run with
// RackAggregation (and with disciplined core ports) produces the same
// Result as the single-engine run. The aggregator LP rides its rack's
// shard, so the reduced stream is the only aggregation traffic that
// crosses shards; this must not perturb a single bit. 64 machines is left
// to the non-race CI step.
func TestShardedAggregationMatchesSingle(t *testing.T) {
	type size struct{ n, rackSize int }
	sizes := []size{{4, 2}, {16, 4}}
	if !raceEnabled && !testing.Short() {
		sizes = append(sizes, size{64, 8})
	}
	for _, sz := range sizes {
		for _, sched := range []string{"fifo", "p3", "damped"} {
			for _, core := range []string{"", sched} {
				base := aggCfg(t, sz.n, sz.rackSize, sched, core, true)
				want := Run(base)
				if want.CoreBytes <= 0 {
					t.Fatalf("%d machines/%s/core=%q: no core traffic recorded", sz.n, sched, core)
				}
				for _, shards := range []int{2, 4} {
					cfg := base
					cfg.Shards = shards
					if got := Run(cfg); !reflect.DeepEqual(got, want) {
						t.Errorf("%d machines/%s/core=%q/shards=%d diverges from single engine:\n got %+v\nwant %+v",
							sz.n, sched, core, shards, got, want)
					}
				}
			}
		}
	}
}

// TestAggregationShrinksCoreTraffic pins the mechanism at cluster level:
// with one server per rack, aggregation strictly reduces the bytes that
// serialize through the core ports while still completing the same number
// of iterations.
func TestAggregationShrinksCoreTraffic(t *testing.T) {
	flat := Run(aggCfg(t, 16, 4, "fifo", "", false))
	agg := Run(aggCfg(t, 16, 4, "fifo", "", true))
	if agg.CoreBytes >= flat.CoreBytes {
		t.Errorf("aggregation moved %d core bytes, flat moved %d — the reduced streams should shrink core traffic",
			agg.CoreBytes, flat.CoreBytes)
	}
	if agg.MeasuredIters != flat.MeasuredIters {
		t.Errorf("aggregation changed iteration count: %d vs %d", agg.MeasuredIters, flat.MeasuredIters)
	}
}
