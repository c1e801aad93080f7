package cluster

import (
	"reflect"
	"testing"

	"p3/internal/netsim"
	"p3/internal/strategy"
)

// hierCfg is aggCfg over a two-tier topology: racks of rackSize behind a
// 4:1 core, grouped into pods behind a 4:1 spine, with hierarchical
// aggregation on.
func hierCfg(t *testing.T, n, rackSize, pods int, sched string) Config {
	t.Helper()
	cfg := shardedCfg(t, n, sched)
	cfg.Topology = netsim.Topology{RackSize: rackSize, CoreOversub: 4, Pods: pods, SpineOversub: 4}
	cfg.RackAggregation = true
	cfg.HierAggregation = true
	return cfg
}

// pullCfg swaps the sliced Immediate-broadcast strategy for the
// NotifyPull baseline, the mode that actually issues parameter pulls.
func pullCfg(cfg Config) Config {
	st := strategy.Baseline()
	st.Name = "baseline-pull"
	cfg.Strategy = st
	return cfg
}

// TestShardedHierMatchesSingle extends the cluster-level determinism
// contract to the full two-tier stack: hierarchical aggregation (rack and
// pod aggregator LPs, spine ports), the rack-local parameter cache under
// a pull-mode strategy, and a credit-gated host discipline — sharded runs
// of each must reproduce the single-engine Result bit for bit.
func TestShardedHierMatchesSingle(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"hier/fifo", hierCfg(t, 16, 4, 2, "fifo")},
		{"hier/p3", hierCfg(t, 16, 4, 2, "p3")},
		{"hier/credit", hierCfg(t, 16, 4, 2, "credit")},
	}
	local := hierCfg(t, 16, 4, 2, "fifo")
	local.RackLocalPS = true
	cases = append(cases, struct {
		name string
		cfg  Config
	}{"hier/racklocal/pull", pullCfg(local)})
	paced := hierCfg(t, 16, 4, 2, "p3")
	paced.AggReduceGBps = 1
	cases = append(cases, struct {
		name string
		cfg  Config
	}{"hier/paced", paced})
	for _, tc := range cases {
		want := Run(tc.cfg)
		if want.SpineBytes <= 0 {
			t.Fatalf("%s: no spine traffic recorded", tc.name)
		}
		for _, shards := range []int{2, 4} {
			cfg := tc.cfg
			cfg.Shards = shards
			if got := Run(cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/shards=%d diverges from single engine:\n got %+v\nwant %+v",
					tc.name, shards, got, want)
			}
		}
	}
}

// TestHierShrinksSpineTraffic pins the second reduction stage's
// mechanism: on the same two-tier topology, hierarchical aggregation
// moves strictly fewer bytes through the spine ports than rack-only
// aggregation (one stream per pod instead of one per rack, both ways),
// while completing the same iterations.
func TestHierShrinksSpineTraffic(t *testing.T) {
	rackOnly := hierCfg(t, 16, 4, 2, "fifo")
	rackOnly.HierAggregation = false
	flat := Run(rackOnly)
	hier := Run(hierCfg(t, 16, 4, 2, "fifo"))
	if flat.SpineBytes <= 0 || hier.SpineBytes <= 0 {
		t.Fatalf("no spine traffic: rack-only %d, hier %d", flat.SpineBytes, hier.SpineBytes)
	}
	if hier.SpineBytes >= flat.SpineBytes {
		t.Errorf("hierarchical aggregation moved %d spine bytes, rack-only moved %d — the pod reduction should shrink spine traffic",
			hier.SpineBytes, flat.SpineBytes)
	}
	if hier.MeasuredIters != flat.MeasuredIters {
		t.Errorf("hierarchical aggregation changed iteration count: %d vs %d", hier.MeasuredIters, flat.MeasuredIters)
	}
}

// TestRackLocalPSKeepsPullsInRack pins the placement co-design: under a
// pull-mode strategy, the rack-local parameter cache answers every
// non-loopback pull inside the rack, shrinking core traffic versus the
// same topology without it — and under an Immediate-broadcast strategy
// (which issues no pulls) the switch is a bit-identical no-op.
func TestRackLocalPSKeepsPullsInRack(t *testing.T) {
	base := aggCfg(t, 16, 4, "fifo", "", true)
	plain := Run(pullCfg(base))
	localCfg := base
	localCfg.RackLocalPS = true
	local := Run(pullCfg(localCfg))
	if local.CoreBytes >= plain.CoreBytes {
		t.Errorf("rack-local PS moved %d core bytes, plain moved %d — pulls and replies should stay in-rack",
			local.CoreBytes, plain.CoreBytes)
	}
	if local.MeasuredIters != plain.MeasuredIters {
		t.Errorf("rack-local PS changed iteration count: %d vs %d", local.MeasuredIters, plain.MeasuredIters)
	}
	// Immediate-broadcast strategies never pull: the cache must not
	// perturb a single bit.
	imm := Run(base)
	immLocal := Run(localCfg)
	if !reflect.DeepEqual(immLocal, imm) {
		t.Errorf("RackLocalPS under an Immediate strategy diverges:\n got %+v\nwant %+v", immLocal, imm)
	}
}

// TestAggCapacitySlowsIteration pins the capacity model at cluster level:
// a starved reduction engine strictly lengthens the iteration versus the
// free switch-side engine, without changing the protocol (same messages,
// same iterations).
func TestAggCapacitySlowsIteration(t *testing.T) {
	base := aggCfg(t, 16, 4, "fifo", "", true)
	free := Run(base)
	starved := base
	starved.AggReduceGBps = 0.05
	slow := Run(starved)
	if slow.MeanIterTime <= free.MeanIterTime {
		t.Errorf("0.05 GB/s reduction iterates in %v, free engine in %v — starved aggregators should be slower",
			slow.MeanIterTime, free.MeanIterTime)
	}
	if slow.Msgs != free.Msgs || slow.MeasuredIters != free.MeasuredIters {
		t.Errorf("capacity model changed the protocol: %d msgs/%d iters vs %d/%d",
			slow.Msgs, slow.MeasuredIters, free.Msgs, free.MeasuredIters)
	}
}

// TestShardedCreditHierMatchesSingle runs the full two-tier LP population
// (machines, ports, spine ports, rack and pod aggregators) under a
// credit-gated discipline: a sharded run, and its repeat, must be
// bit-identical to the single engine.
func TestShardedCreditHierMatchesSingle(t *testing.T) {
	base := hierCfg(t, 16, 4, 2, "credit")
	want := Run(base)
	sharded := base
	sharded.Shards = 4
	for i := 1; i <= 2; i++ {
		if got := Run(sharded); !reflect.DeepEqual(got, want) {
			t.Errorf("sharded run %d diverges from the single engine:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
