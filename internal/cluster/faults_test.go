package cluster

import (
	"reflect"
	"testing"

	"p3/internal/faults"
	"p3/internal/netsim"
	"p3/internal/strategy"
	"p3/internal/worker"
)

// quickPlan returns p with fast detection/recovery latencies so the small
// test cells recover well inside their few-iteration runs.
func quickPlan(p *faults.Plan) *faults.Plan {
	p.DetectNs = 1e6  // 1 ms
	p.TimeoutNs = 2e6 // 2 ms
	return p
}

// TestNilRecoveryIsNoFault pins the seam's contract: without a crash plan
// cs.rec is nil, and each method the protocol code calls on it answers as a
// run without crashes does — no aggregator is down, every install is the
// first, a push's arrival at its barrier needs no recovery step — without
// allocating.
func TestNilRecoveryIsNoFault(t *testing.T) {
	cfg := aggCfg(t, 16, 4, "fifo", "", true)
	cfg.Faults = &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindStraggler, At: 0, Until: 1e6, Machine: 1, Factor: 2},
	}}
	if cs := newClusterSim(cfg.withDefaults()); cs.rec != nil {
		t.Fatal("a plan without an aggregator crash built a recovery component")
	}
	var r *recovery
	rack := &aggNode{ord: 1, idx: 1, lo: 4, hi: 8}
	push := worker.Item{Chunk: 3, Iter: 2, Src: 5}
	slots := worker.NewSlots(2, 16, nil)
	slots[1].Add(2, 0, 1, -1) // iteration 2 open
	allocs := testing.AllocsPerRun(100, func() {
		if r.down(rack, 5) || r.down(rack, rack.lp()) {
			t.Error("nil recovery reports an aggregator down")
		}
		r.failover(5)
		r.failover(rack.lp())
		r.pushed(5, 3, 2)
		if !r.firstInstall(5, 3, 2) || !r.firstInstall(5, 3, 2) {
			t.Error("nil recovery dedups an install")
		}
		r.arrived(0, push, &slots[0]) // a push that opens a barrier: no re-push timer
		r.arrived(0, push, &slots[1]) // a push into the open barrier
	})
	if allocs != 0 {
		t.Errorf("nil recovery allocates %.0f times per call round", allocs)
	}
}

// TestFaultZeroPlanMatchesNoPlan is the fault layer's determinism base
// case: a zero-event plan schedules nothing and must be byte-identical to
// no plan at every shard count, on the flat, rack, and hierarchical
// topologies. Named in the CI -race determinism step.
func TestFaultZeroPlanMatchesNoPlan(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"flat", shardedCfg(t, 16, "damped")},
		{"racks", aggCfg(t, 16, 4, "credit", "", true)},
		{"hier", hierCfg(t, 16, 4, 2, "p3")},
	}
	for _, tc := range cases {
		want := Run(tc.cfg)
		for _, shards := range []int{1, 2, 4} {
			cfg := tc.cfg
			cfg.Shards = shards
			cfg.Faults = &faults.Plan{}
			if got := Run(cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/shards=%d: zero-event plan diverges from no plan:\n got %+v\nwant %+v",
					tc.name, shards, got, want)
			}
		}
	}
}

// TestFaultAggCrashShardDeterminism pins the tentpole's determinism
// contract on a small cell: a rack-aggregator crash mid-run recovers via
// failover (the run completes, failovers happen, lost reductions are
// counted) and the whole faulted Result is bit-identical across shard
// counts. Named in the CI -race determinism step.
func TestFaultAggCrashShardDeterminism(t *testing.T) {
	base := aggCfg(t, 16, 4, "fifo", "", true)
	base.Faults = quickPlan(&faults.Plan{Events: []faults.Event{
		{Kind: faults.KindAggCrash, At: 20e6, Until: 120e6, Tier: faults.TierRack, Index: 1},
	}})
	want := Run(base)
	if want.AggFailovers < 1 {
		t.Errorf("rack-aggregator crash caused no failovers: %+v", want)
	}
	if want.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", want.FaultsInjected)
	}
	for _, shards := range []int{2, 4} {
		cfg := base
		cfg.Shards = shards
		if got := Run(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: faulted run diverges from single engine:\n got %+v\nwant %+v",
				shards, got, want)
		}
	}

	// The hierarchical tier: a pod-aggregator crash re-parents rack
	// streams to the server, with the same shard contract.
	hier := hierCfg(t, 16, 4, 2, "fifo")
	hier.Faults = quickPlan(&faults.Plan{Events: []faults.Event{
		{Kind: faults.KindAggCrash, At: 20e6, Until: 120e6, Tier: faults.TierPod, Index: 1},
	}})
	hwant := Run(hier)
	if hwant.AggFailovers < 1 {
		t.Errorf("pod-aggregator crash caused no failovers: %+v", hwant)
	}
	for _, shards := range []int{2, 4} {
		cfg := hier
		cfg.Shards = shards
		if got := Run(cfg); !reflect.DeepEqual(got, hwant) {
			t.Errorf("hier/shards=%d: faulted run diverges from single engine:\n got %+v\nwant %+v",
				shards, got, hwant)
		}
	}
}

// TestFaultPlanReplayIdentical is the replay property: serializing a
// plan to JSON and running the decoded copy reproduces the original
// faulted Result exactly.
func TestFaultPlanReplayIdentical(t *testing.T) {
	plan := faults.Scripted(7, 16, netsim.Topology{RackSize: 4, CoreOversub: 4}, true, false, 50e6)
	plan.DetectNs = 1e6
	plan.TimeoutNs = 2e6
	cfg := aggCfg(t, 16, 4, "damped", "", true)
	cfg.Faults = plan
	want := Run(cfg)
	if want.FaultsInjected != len(plan.Events) {
		t.Fatalf("FaultsInjected = %d, want %d", want.FaultsInjected, len(plan.Events))
	}

	buf, err := plan.Encode()
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := faults.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = replayed
	if got := Run(cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed plan diverges from original:\n got %+v\nwant %+v", got, want)
	}
}

// TestFaultStragglerAndDegradeSlowRun pins the non-crash fault kinds'
// mechanisms: a straggler window and a link degradation each slow the
// run, a worker-leave window stalls it, and all complete.
func TestFaultStragglerAndDegradeSlowRun(t *testing.T) {
	base := shardedCfg(t, 4, "fifo")
	clean := Run(base)
	window := int64(10 * clean.MeanIterTime * 4) // safely covers the run

	straggle := base
	straggle.Faults = &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindStraggler, At: 0, Until: window, Machine: 1, Factor: 2},
	}}
	if got := Run(straggle); got.MeanIterTime <= clean.MeanIterTime {
		t.Errorf("2x straggler did not slow the run: %v <= %v", got.MeanIterTime, clean.MeanIterTime)
	}

	degrade := base
	degrade.Faults = &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindLinkDegrade, At: 0, Until: window, Link: faults.LinkHost, Index: 0, Factor: 0.25},
	}}
	if got := Run(degrade); got.MeanIterTime <= clean.MeanIterTime {
		t.Errorf("4x NIC degradation did not slow the run: %v <= %v", got.MeanIterTime, clean.MeanIterTime)
	} else if got.DegradedNs != window {
		t.Errorf("DegradedNs = %d, want %d", got.DegradedNs, window)
	}

	// The leave window opens inside the measured iterations (warmup ends
	// around one clean iteration in): the barrier stall must land where
	// MeanIterTime can see it.
	leave := base
	leave.Faults = &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindWorkerLeave, At: int64(clean.MeanIterTime) * 3 / 2, Until: int64(clean.MeanIterTime) * 3, Machine: 2},
	}}
	if got := Run(leave); got.MeanIterTime <= clean.MeanIterTime {
		t.Errorf("a worker-leave window did not stall the run: %v <= %v", got.MeanIterTime, clean.MeanIterTime)
	}
}

// TestHierCrashFailover256 is the tentpole acceptance run: an aggregator
// crash mid-run on the 256-machine hierarchical topology completes via
// failover — no hang, failovers observed, throughput degraded but
// positive — bit-identically across shard counts. Too big instrumented:
// left to the non-race CI step.
func TestHierCrashFailover256(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("256-machine hierarchy cell: non-race CI step only")
	}
	st, err := strategy.SlicingOnly(0).WithSched("damped")
	if err != nil {
		t.Fatal(err)
	}
	st.Name = "sliced+damped"
	base := Config{
		Model: smallModel(), Machines: 256, Servers: 8, Strategy: st, BandwidthGbps: 1.5,
		WarmupIters: 1, MeasureIters: 2, Seed: 1,
		Topology:        netsim.Topology{RackSize: 32, CoreOversub: 4, Pods: 2, SpineOversub: 4},
		ServerMachines:  []int{0, 32, 64, 96, 128, 160, 192, 224},
		RackAggregation: true,
		HierAggregation: true,
	}
	clean := Run(base)

	crashed := base
	crashed.Faults = &faults.Plan{
		DetectNs: 2e6, TimeoutNs: 10e6,
		Events: []faults.Event{
			{Kind: faults.KindAggCrash, At: 30e6, Until: 300e6, Tier: faults.TierRack, Index: 1},
		},
	}
	want := Run(crashed)
	if want.AggFailovers < 1 {
		t.Errorf("crash caused no failovers: %+v", want)
	}
	if want.Throughput <= 0 {
		t.Errorf("faulted throughput %v not positive", want.Throughput)
	}
	if want.Throughput >= clean.Throughput {
		t.Errorf("crash did not degrade throughput: faulted %v >= clean %v", want.Throughput, clean.Throughput)
	}
	for _, shards := range []int{4} {
		cfg := crashed
		cfg.Shards = shards
		if got := Run(cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: 256-machine faulted run diverges from single engine:\n got %+v\nwant %+v",
				shards, got, want)
		}
	}
}
