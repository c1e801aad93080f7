package experiments

import (
	"strings"
	"sync"
	"testing"

	"p3/internal/cluster"
	"p3/internal/netsim"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// rackProto identifies the protocol-determining axes of a rack cell: rows
// that differ only in placement, host discipline or port discipline send
// the same messages and must process the same event count; anything that
// changes the protocol (aggregation, the spine tier and its extensions,
// the strategy's pull mode, a finite reduce rate) forms its own group.
type rackProto struct {
	agg, hier, local, pull bool
	pods                   int
	aggGBps                float64
}

// TestRackSweepFast runs the CI-sized rack sweep end to end: every cell
// completes with sane throughput, the event volume depends only on the
// protocol axes (placement, discipline and core queueing only move their
// timing), the reduction tiers shrink the traffic they exist to shrink
// (aggregation the core bytes, hierarchical aggregation the spine bytes,
// the rack-local cache the pull-mode core bytes), and the table renders
// every axis.
func TestRackSweepFast(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rack sweep in -short mode")
	}
	tb := Rack(Options{Fast: true, Seed: 1})
	if len(tb.Rows) == 0 {
		t.Fatal("no rack rows")
	}
	events := map[rackProto]uint64{}
	byProto := map[rackProto]Row{}
	for _, r := range tb.Rows {
		if r.PerMachine <= 0 || r.IterMs <= 0 {
			t.Fatalf("degenerate row: %+v", r.Config)
		}
		key := rackProto{r.RackAggregation, r.HierAggregation, r.RackLocalPS,
			r.Config.Strategy.Pull == strategy.NotifyPull, r.Topology.Pods, r.AggReduceGBps}
		if want, ok := events[key]; !ok {
			events[key] = r.Events
		} else if r.Events != want {
			t.Errorf("event volume should depend only on the protocol axes: %+v has %d, want %d", r.Config, r.Events, want)
		}
		if r.CoreBytes <= 0 {
			t.Errorf("no core traffic recorded: %+v", r.Config)
		}
		if r.Topology.Pods > 0 && r.SpineBytes <= 0 {
			t.Errorf("no spine traffic recorded on a two-tier cell: %+v", r.Config)
		}
		if r.Topology.Pods == 0 && r.SpineBytes != 0 {
			t.Errorf("spine traffic on a single-tier cell: %+v", r.Config)
		}
		byProto[key] = r
	}
	pair := func(what string, a, b rackProto) (Row, Row) {
		ra, okA := byProto[a]
		rb, okB := byProto[b]
		if !okA || !okB {
			t.Fatalf("fast sweep lost the %s pair", what)
		}
		return ra, rb
	}
	flat, agg := pair("single-tier agg on/off", rackProto{}, rackProto{agg: true})
	if agg.CoreBytes >= flat.CoreBytes {
		t.Errorf("aggregation moved %d bytes through the core, flat moved %d — aggregation should shrink core traffic",
			agg.CoreBytes, flat.CoreBytes)
	}
	twoTier, hier := pair("two-tier rack-only/hier", rackProto{agg: true, pods: 2}, rackProto{agg: true, pods: 2, hier: true})
	if hier.SpineBytes >= twoTier.SpineBytes {
		t.Errorf("hierarchical aggregation moved %d bytes through the spine, rack-only moved %d — the pod reduction should shrink spine traffic",
			hier.SpineBytes, twoTier.SpineBytes)
	}
	pull, local := pair("pull-mode local on/off", rackProto{agg: true, pull: true}, rackProto{agg: true, pull: true, local: true})
	if local.CoreBytes >= pull.CoreBytes {
		t.Errorf("rack-local PS moved %d bytes through the core, plain pull moved %d — pulls should stay in-rack",
			local.CoreBytes, pull.CoreBytes)
	}
	table := tb.TSV()
	checkGolden(t, "rack", stripWall(t, tb))
	checkSection(t, "rack", nil, table, "Extension — rack-scale topology", "| --- |")
	for _, want := range []string{"spread", "packed", "4:1", "blind", "damped", "baseline", "sliced", "inf", "\ton\t", "\toff\t"} {
		if !strings.Contains(table, want) {
			t.Fatalf("rack table missing %q:\n%s", want, table)
		}
	}
}

// rackFindingRun is one cell of the pinned 256-machine findings, at the
// same topology the full Rack sweep uses but with smoke-test iteration
// counts. core names the ToR port discipline ("" = blind FIFO) and agg
// toggles in-rack aggregation.
func rackFindingRun(t *testing.T, sched, placement, core string, agg bool) cluster.Result {
	t.Helper()
	return hierFindingRun(t, findingCell{sched: sched, placement: placement, core: core, agg: agg})
}

// findingCell parameterizes the 256-machine finding cells across every
// axis of the extended sweep: the spine tier (pods, with a 4:1 spine and
// the core discipline on the spine ports), hierarchical aggregation, the
// aggregator reduce rate, and the rack-local cache under the pull-mode
// baseline strategy.
type findingCell struct {
	sched, placement, core string
	agg, hier, local, pull bool
	pods                   int
	aggGBps                float64
}

// findingRuns memoizes hierFindingRun: a Result is a function of its cell
// alone, and the findings share cells (flat fifo under both placements in
// the oversubscription and aggregation findings, damped+hier in the
// hierarchical and capacity findings), so each runs once per test binary.
var findingRuns = struct {
	sync.Mutex
	m map[findingCell]cluster.Result
}{m: map[findingCell]cluster.Result{}}

func hierFindingRun(t *testing.T, c findingCell) cluster.Result {
	t.Helper()
	findingRuns.Lock()
	r, ok := findingRuns.m[c]
	findingRuns.Unlock()
	if ok {
		return r
	}
	base := strategy.SlicingOnly(0)
	name := "sliced"
	if c.pull {
		base = strategy.Baseline()
		name = "baseline"
	}
	st, err := base.WithSched(c.sched)
	if err != nil {
		t.Fatal(err)
	}
	st.Name = name + "+" + c.sched
	topo := netsim.Topology{RackSize: 32, CoreOversub: 4, CoreSched: c.core, Pods: c.pods}
	if c.pods > 0 {
		topo.SpineOversub = 4
		topo.SpineSched = c.core
	}
	r = cluster.Run(cluster.Config{
		Model: zoo.ByName("resnet50"), Machines: 256, Servers: 8,
		Strategy: st, BandwidthGbps: 1.5,
		WarmupIters: 1, MeasureIters: 2, Seed: 2,
		Topology:        topo,
		ServerMachines:  rackPlacement(c.placement, 8, 256, 32),
		RackAggregation: c.agg,
		HierAggregation: c.hier,
		RackLocalPS:     c.local,
		AggReduceGBps:   c.aggGBps,
	})
	findingRuns.Lock()
	findingRuns.m[c] = r
	findingRuns.Unlock()
	return r
}

// TestRackOversubDampingFinding pins the 256-machine multi-rack result,
// measured on this tree: under a 4:1 oversubscribed core the damped rank
// does NOT carry its flat-network win over fifo (the PR-5 inversion fix).
// With the bottleneck moved from the end-host NICs to the priority-blind
// FIFO core links, reordering at host egress cannot expedite anything —
// the core serializes in arrival order regardless — while damped's bounded
// deferral still delays bulk traffic's entry into the core pipeline. fifo
// beat damped by ~33% under the spread placement (1.57 vs 1.05
// samples/s/machine) and ~3% under packed (1.54 vs 1.49) when this was
// captured. The assertion is directional (fifo strictly faster), not
// bit-pinned, so unrelated timing changes don't thrash it; if a future
// core-aware discipline closes the gap, re-measure and re-pin.
func TestRackOversubDampingFinding(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("256-machine cells are for the non-race suite")
	}
	for _, placement := range []string{"spread", "packed"} {
		fifo := rackFindingRun(t, "fifo", placement, "", false)
		damped := rackFindingRun(t, "damped", placement, "", false)
		if damped.Throughput >= fifo.Throughput {
			t.Errorf("%s: damped %.2f >= fifo %.2f samples/s — damping now beats fifo under the 4:1 core; the rack finding flipped, re-pin it",
				placement, damped.Throughput/256, fifo.Throughput/256)
		}
	}
}

// TestRackAggregationFinding pins the reversal of that negative result,
// measured on this tree: at the same 256-machine 4:1 cell, in-rack
// aggregation beats flat fifo by an order of magnitude under BOTH
// placements (fifo+agg 27.7 vs flat fifo 1.57/1.54 samples/s/machine —
// each rack's 32 gradient streams reduce to one before crossing the core,
// cutting core traffic 32x), and once the core is unclogged, priority
// damping matters again: damped hosts + damped ToR queues + aggregation
// beat fifo + aggregation (29.6 vs 27.7) under both placements. The
// assertions are directional with a wide margin (10x for aggregation vs
// flat), not bit-pinned.
func TestRackAggregationFinding(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("256-machine cells are for the non-race suite")
	}
	for _, placement := range []string{"spread", "packed"} {
		flat := rackFindingRun(t, "fifo", placement, "", false)
		agg := rackFindingRun(t, "fifo", placement, "", true)
		if agg.Throughput < 10*flat.Throughput {
			t.Errorf("%s: fifo+agg %.2f < 10x flat fifo %.2f samples/s/machine — aggregation stopped paying for itself, re-measure",
				placement, agg.Throughput/256, flat.Throughput/256)
		}
		if agg.CoreBytes >= flat.CoreBytes {
			t.Errorf("%s: agg moved %d core bytes >= flat's %d — aggregation should shrink core traffic",
				placement, agg.CoreBytes, flat.CoreBytes)
		}
		damped := rackFindingRun(t, "damped", placement, "damped", true)
		if damped.Throughput <= agg.Throughput {
			t.Errorf("%s: damped+agg+core-damped %.2f <= fifo+agg %.2f samples/s/machine — priority scheduling no longer helps on the unclogged core, re-pin",
				placement, damped.Throughput/256, agg.Throughput/256)
		}
	}
}

// TestHierAggregationFinding pins the two-tier result, measured on this
// tree: at 256 machines (8 racks of 32, two pods) behind a 4:1 core AND a
// 4:1 spine, hierarchical aggregation beats rack-only aggregation in
// samples/s/machine by reducing the per-rack streams once more at the pod
// aggregators — one stream per pod transits the spine instead of one per
// rack, both ways. When this was captured, rack-only aggregation ran at
// 29.61 samples/s/machine moving 4907 MB through the spine; hierarchical
// aggregation ran at 33.91 (+15%) moving 1227 MB (4x less). The
// assertions are directional (hier strictly faster, strictly fewer spine
// bytes); the measured values are logged so the ROADMAP numbers stay
// anchored to a real run.
func TestHierAggregationFinding(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("256-machine cells are for the non-race suite")
	}
	rackOnly := hierFindingRun(t, findingCell{sched: "damped", placement: "spread", core: "damped", agg: true, pods: 2})
	hier := hierFindingRun(t, findingCell{sched: "damped", placement: "spread", core: "damped", agg: true, pods: 2, hier: true})
	t.Logf("2-tier 256-machine damped+agg: rack-only %.2f samples/s/machine (spine %.0f MB), hier %.2f (spine %.0f MB)",
		rackOnly.Throughput/256, float64(rackOnly.SpineBytes)/1e6,
		hier.Throughput/256, float64(hier.SpineBytes)/1e6)
	if rackOnly.SpineBytes <= 0 || hier.SpineBytes <= 0 {
		t.Fatalf("no spine traffic: rack-only %d, hier %d", rackOnly.SpineBytes, hier.SpineBytes)
	}
	if hier.SpineBytes >= rackOnly.SpineBytes {
		t.Errorf("hier moved %d spine bytes >= rack-only's %d — the pod reduction should shrink spine traffic",
			hier.SpineBytes, rackOnly.SpineBytes)
	}
	if hier.Throughput <= rackOnly.Throughput {
		t.Errorf("hier %.2f <= rack-only %.2f samples/s/machine on the 4:1 spine — hierarchical aggregation stopped paying for itself, re-measure",
			hier.Throughput/256, rackOnly.Throughput/256)
	}
}

// TestAggCapacityCliffFinding pins the reduce-rate capacity cliff,
// measured on this tree: a 32-machine rack pushing at 1.5 Gbps line rate
// demands 32 x 1.5/8 = 6 GB/s of aggregator ingest. An 8 GB/s reduction
// engine sits above that demand and stays within a few percent of the
// free (instantaneous) engine; a 1 GB/s engine sits 6x below it and
// falls off the cliff. Measured when captured: free 33.91, 8 GB/s 33.87
// (-0.1%), 1 GB/s 8.51 samples/s/machine (-75%) — the cliff sits between
// 8 and 1 GB/s, at the ~6 GB/s line-rate demand. The assertions bracket
// the cliff directionally; measured values are logged.
func TestAggCapacityCliffFinding(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("256-machine cells are for the non-race suite")
	}
	cell := findingCell{sched: "damped", placement: "spread", core: "damped", agg: true, pods: 2, hier: true}
	free := hierFindingRun(t, cell)
	cell.aggGBps = 8
	above := hierFindingRun(t, cell)
	cell.aggGBps = 1
	below := hierFindingRun(t, cell)
	t.Logf("2-tier 256-machine hier reduce-rate axis: free %.2f, 8 GB/s %.2f, 1 GB/s %.2f samples/s/machine",
		free.Throughput/256, above.Throughput/256, below.Throughput/256)
	if above.Throughput < 0.9*free.Throughput {
		t.Errorf("8 GB/s reduction %.2f < 90%% of free %.2f samples/s/machine — the engine above the 6 GB/s demand should be nearly free, re-measure",
			above.Throughput/256, free.Throughput/256)
	}
	if below.Throughput >= 0.8*above.Throughput {
		t.Errorf("1 GB/s reduction %.2f >= 80%% of 8 GB/s %.2f samples/s/machine — the capacity cliff flattened, re-measure",
			below.Throughput/256, above.Throughput/256)
	}
}

// TestRackLocalPSFinding pins the placement co-design result, measured on
// this tree: under the pull-mode baseline strategy at the 256-machine 4:1
// cell, serving pulls from the rack-local parameter cache strictly
// shrinks core traffic (no pull or data reply crosses the core) without
// costing throughput. When captured: plain pull 1.42 samples/s/machine
// moving 141,693 MB through the core; rack-local 19.43 (13.7x) moving
// 8,587 MB (16x less) — the per-worker data replies were the dominant
// core traffic, and the cache replaces them with one kCache stream per
// rack. Directional assertions; measured values logged.
func TestRackLocalPSFinding(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("256-machine cells are for the non-race suite")
	}
	plain := hierFindingRun(t, findingCell{sched: "fifo", placement: "spread", agg: true, pull: true})
	local := hierFindingRun(t, findingCell{sched: "fifo", placement: "spread", agg: true, pull: true, local: true})
	t.Logf("256-machine baseline-pull: plain %.2f samples/s/machine (core %.0f MB), rack-local %.2f (core %.0f MB)",
		plain.Throughput/256, float64(plain.CoreBytes)/1e6,
		local.Throughput/256, float64(local.CoreBytes)/1e6)
	if local.CoreBytes >= plain.CoreBytes {
		t.Errorf("rack-local PS moved %d core bytes >= plain's %d — pulls should stay in-rack", local.CoreBytes, plain.CoreBytes)
	}
	if local.Throughput < plain.Throughput {
		t.Errorf("rack-local PS %.2f < plain %.2f samples/s/machine — the cache slowed the run down, re-measure",
			local.Throughput/256, plain.Throughput/256)
	}
}

// TestScale1024Smoke drives the largest cell of the extended scale axis —
// 1024 machines on the parameter-server path — through a minimal run: the
// protocol must complete (cluster.Run panics if any worker wedges) with
// sane throughput. ~17M events; kept out of -short and the race-detector
// suite.
func TestScale1024Smoke(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("1024-machine smoke is for the non-race suite")
	}
	st, err := strategy.SlicingOnly(0).WithSched("fifo")
	if err != nil {
		t.Fatal(err)
	}
	st.Name = "sliced+fifo"
	r := cluster.Run(cluster.Config{
		Model: zoo.ByName("resnet50"), Machines: 1024, Strategy: st,
		BandwidthGbps: 1.5, WarmupIters: 1, MeasureIters: 1, Seed: 2,
	})
	if r.Throughput <= 0 || r.MeanIterTime <= 0 {
		t.Fatalf("degenerate 1024-machine result: %+v", r)
	}
	if r.Events < 10_000_000 {
		t.Fatalf("1024-machine run processed only %d events — the cell shrank", r.Events)
	}
}
