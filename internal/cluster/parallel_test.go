package cluster

import (
	"reflect"
	"testing"

	"p3/internal/netsim"
	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/zoo"
)

// shardedCfg builds the config used by the shard-equality property: the
// sliced strategy under the named discipline at the bottleneck bandwidth,
// small iteration counts, on the hand-sized model.
func shardedCfg(t *testing.T, n int, sched string) Config {
	t.Helper()
	st, err := strategy.SlicingOnly(0).WithSched(sched)
	if err != nil {
		t.Fatal(err)
	}
	st.Name = "sliced+" + sched
	return Config{
		Model: smallModel(), Machines: n, Strategy: st, BandwidthGbps: 1.5,
		WarmupIters: 1, MeasureIters: 2, Seed: 1,
	}
}

// TestShardedMatchesSingleResult is the simulator's determinism contract at
// cluster level: an N-shard conservative-lookahead run produces the same
// Result — same floats, same event count, same message count — as the
// single-engine run, for every discipline of the scale sweep, at several
// shard counts, on both the flat and the rack topology. 64 machines is left
// to the non-race CI step; under the race detector the sharded runs are an
// order of magnitude slower.
func TestShardedMatchesSingleResult(t *testing.T) {
	sizes := []int{4, 16}
	if !raceEnabled && !testing.Short() {
		sizes = append(sizes, 64)
	}
	topos := []struct {
		name string
		topo netsim.Topology
	}{
		{"flat", netsim.Topology{}},
		{"racks", netsim.Topology{RackSize: 8, CoreOversub: 4}},
	}
	for _, n := range sizes {
		for _, tp := range topos {
			if tp.topo.RackSize > 0 && n < 2*tp.topo.RackSize {
				continue // a single rack is just the flat switch with extra hops
			}
			for _, sched := range []string{"fifo", "p3", "damped", "tictac"} {
				base := shardedCfg(t, n, sched)
				base.Topology = tp.topo
				want := Run(base)
				for _, shards := range []int{2, 4, 8} {
					cfg := base
					cfg.Shards = shards
					got := Run(cfg)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%d machines/%s/%s/shards=%d diverges from single engine:\n got %+v\nwant %+v",
							n, tp.name, sched, shards, got, want)
					}
				}
			}
		}
	}
}

// TestShardedRecorderMatchesSingle pins that utilization tracing runs at
// any shard count: machine m's series are written only on m's LP
// (segmentDone on the sender, ingressDone on the receiver), so every
// series — not only the Result — equals the one-shard run's. Named in the
// CI -race determinism step.
func TestShardedRecorderMatchesSingle(t *testing.T) {
	sockeye := shardedCfg(t, 8, "fifo")
	sockeye.Model, sockeye.Strategy = zoo.ByName("sockeye"), strategy.Baseline()
	hier := hierCfg(t, 32, 4, 2, "damped")
	hier.Topology.CoreSched, hier.Topology.SpineSched = "damped", "damped"
	cases := []struct {
		name string
		cfg  Config
	}{
		{"flat/16/p3", shardedCfg(t, 16, "p3")},
		{"flat/8/sockeye-baseline", sockeye},
		{"hier/32/damped-ports", hier},
		{"flat/16/credit-adaptive", shardedCfg(t, 16, "credit-adaptive")},
	}
	for _, tc := range cases {
		n := tc.cfg.Machines
		run := func(shards int) (Result, [][]float64) {
			cfg := tc.cfg
			cfg.Shards = shards
			cfg.Recorder = trace.NewRecorder(n, 0)
			r := Run(cfg)
			var series [][]float64
			for m := 0; m < n; m++ {
				series = append(series, cfg.Recorder.Series(m, trace.Out), cfg.Recorder.Series(m, trace.In))
			}
			return r, series
		}
		want, wantSeries := run(1)
		if len(wantSeries[0]) == 0 {
			t.Fatalf("%s: nothing recorded", tc.name)
		}
		for _, shards := range []int{2, 4, 7} {
			got, gotSeries := run(shards)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/shards=%d: recorded run diverges from single engine:\n got %+v\nwant %+v", tc.name, shards, got, want)
			}
			if !reflect.DeepEqual(gotSeries, wantSeries) {
				t.Errorf("%s/shards=%d: utilization series diverge from the single engine's", tc.name, shards)
			}
		}
	}
}

// TestShardedGatedMatchesSingle is the determinism contract for
// credit-gated egress under the window-relaxed refund protocol (refunds
// land one lookahead after delivery, the barrier-window width): an
// N-shard credit/credit-adaptive run reproduces the single-engine Result
// bit for bit, on the flat network and on a rack topology — the property
// that lifted the historical shards=1 rejection for gated disciplines.
func TestShardedGatedMatchesSingle(t *testing.T) {
	topos := []struct {
		name string
		topo netsim.Topology
	}{
		{"flat", netsim.Topology{}},
		{"racks", netsim.Topology{RackSize: 4, CoreOversub: 4}},
	}
	for _, sched := range []string{"credit", "credit-adaptive"} {
		for _, tp := range topos {
			base := shardedCfg(t, 16, sched)
			base.Topology = tp.topo
			want := Run(base)
			for _, shards := range []int{2, 4} {
				cfg := base
				cfg.Shards = shards
				if got := Run(cfg); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/shards=%d diverges from single engine:\n got %+v\nwant %+v",
						sched, tp.name, shards, got, want)
				}
			}
		}
	}
}

// TestServerPlacement pins the ServerMachines axis: an explicit identity
// placement is bit-identical to the default, a spread placement still
// completes and conserves protocol traffic, and invalid placements fail
// loudly.
func TestServerPlacement(t *testing.T) {
	base := shardedCfg(t, 8, "p3")
	base.Servers = 2
	want := Run(base)

	identity := base
	identity.ServerMachines = []int{0, 1}
	if got := Run(identity); !reflect.DeepEqual(got, want) {
		t.Errorf("explicit identity placement diverges from default:\n got %+v\nwant %+v", got, want)
	}

	spread := base
	spread.ServerMachines = []int{3, 6}
	r := Run(spread)
	if r.Msgs != want.Msgs {
		t.Errorf("spread placement changed protocol traffic: %d msgs, want %d", r.Msgs, want.Msgs)
	}

	for _, c := range []struct {
		name string
		bad  []int
	}{
		{"wrong length", []int{0}},
		{"out of range", []int{0, 8}},
		{"duplicate", []int{3, 3}},
	} {
		name, bad := c.name, c.bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s placement did not panic", name)
				}
			}()
			cfg := base
			cfg.ServerMachines = bad
			Run(cfg)
		}()
	}
}
