package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"p3/internal/faults"
	"p3/internal/netsim"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// topoGolden is the part of a Result that topoGoldens pins, captured at
// commit 97ba762 (the last tree with per-tier rack/spine code) — absolute
// values, where TestSharded*MatchesSingle only compares a tree with itself.
// Throughput is stored as float64 bits so the comparison is exact.
type topoGolden struct {
	ThroughputBits uint64
	MeanIterTime   sim.Time
	Events         uint64
	Msgs           int64
	WireBytes      int64
	CoreBytes      int64
	SpineBytes     int64
	TotalStall     sim.Time
	FaultsInjected int
	AggFailovers   int64
	DegradedNs     int64
	LostReductions int64
}

func topoGoldenOf(r Result) topoGolden {
	return topoGolden{
		ThroughputBits: math.Float64bits(r.Throughput), MeanIterTime: r.MeanIterTime,
		Events: r.Events, Msgs: r.Msgs, WireBytes: r.WireBytes,
		CoreBytes: r.CoreBytes, SpineBytes: r.SpineBytes, TotalStall: r.TotalStall(),
		FaultsInjected: r.FaultsInjected, AggFailovers: r.AggFailovers,
		DegradedNs: r.DegradedNs, LostReductions: r.LostReductions,
	}
}

// topoCell is one rack-scale configuration: resnet50 at 1.5 Gbps on racks
// of 4 behind a 4:1 core (2:1 spine when pods > 0), warm-up 1 + 2 measured
// iterations. 18 machines leave a trailing partial rack of 2.
type topoCell struct {
	name     string
	machines int
	pods     int
	agg      string // "", "rack" or "hier"
	port     string // CoreSched, and SpineSched when pods > 0
	// strat is "baseline"/"tensorflow", or a host discipline the slicing
	// strategy runs under.
	strat string
	// spread places 4 servers, one per rack (the last on the last machine),
	// instead of one per machine.
	spread bool
	local  bool // RackLocalPS
	reduce bool // AggReduceGBps 4
	delays bool // CoreDelay 10 us (below PropDelay: it becomes the lookahead), SpineDelay 70 us
	faults []faults.Event
	want   topoGolden
	// sum, where set, is the FNV-1a hash of the whole Result printed %+v —
	// every iteration time and layer stall, not only what topoGolden names.
	sum uint64
}

func (c topoCell) config(t *testing.T) Config {
	t.Helper()
	var st strategy.Strategy
	switch c.strat {
	case "baseline":
		st = strategy.Baseline()
	case "tensorflow":
		st = strategy.TFStyle()
	default:
		var err error
		if st, err = strategy.SlicingOnly(0).WithSched(c.strat); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		Model: zoo.ByName("resnet50"), Machines: c.machines, Strategy: st, BandwidthGbps: 1.5,
		WarmupIters: 1, MeasureIters: 2, Seed: 1,
		Topology:        netsim.Topology{RackSize: 4, CoreOversub: 4, CoreSched: c.port, Pods: c.pods},
		RackAggregation: c.agg != "", HierAggregation: c.agg == "hier",
	}
	if c.pods > 0 {
		cfg.Topology.SpineOversub = 2
		cfg.Topology.SpineSched = c.port
	}
	if c.delays {
		cfg.Topology.CoreDelay = 10 * sim.Microsecond
		if c.pods > 0 {
			cfg.Topology.SpineDelay = 70 * sim.Microsecond
		}
	}
	if c.spread {
		cfg.Servers = 4
		cfg.ServerMachines = []int{1, 6, 11, c.machines - 1}
	}
	cfg.RackLocalPS = c.local
	if c.reduce {
		cfg.AggReduceGBps = 4
	}
	if c.faults != nil {
		cfg.Faults = &faults.Plan{DetectNs: 2e6, TimeoutNs: 20e6, Events: c.faults}
	}
	return cfg
}

// crash scripts one aggregator outage over [at, until); until 0 is permanent.
func crash(tier string, idx int, at, until int64) faults.Event {
	return faults.Event{Kind: faults.KindAggCrash, At: at, Until: until, Tier: tier, Index: idx}
}

// rackCrash and podCrash script a transient 50 ms aggregator outage that
// swallows contributions and recovers inside the warm-up iteration, under a
// half-rate window on one of the tier's port pairs. (Windows are picked per
// cell: many others wedge the recovery protocol — ROADMAP item 4b.)
func rackCrash(at int64, rack int) []faults.Event {
	return []faults.Event{
		crash(faults.TierRack, rack, at, at+50e6),
		{Kind: faults.KindLinkDegrade, At: 100e6, Until: 400e6, Link: faults.LinkToR, Index: 2, Factor: 0.5},
	}
}

func podCrash(at int64, pod int) []faults.Event {
	return []faults.Event{
		crash(faults.TierPod, pod, at, at+50e6),
		{Kind: faults.KindLinkDegrade, At: 250e6, Until: 600e6, Link: faults.LinkSpine, Index: 0, Factor: 0.5},
	}
}

var topoGoldens = []topoCell{
	{name: "16/flat-core/fifo", machines: 16, strat: "fifo",
		want: topoGolden{ThroughputBits: 0x4062b83f3ee73b98, MeanIterTime: 3418855459, Events: 439836, Msgs: 61728, WireBytes: 9813900288, CoreBytes: 14720850432, TotalStall: 6225517053}},
	{name: "16/damped-core/damped/spread", machines: 16, port: "damped", strat: "damped", spread: true,
		want: topoGolden{ThroughputBits: 0x4063401dab630f35, MeanIterTime: 3324597137, Events: 439836, Msgs: 61728, WireBytes: 9813900288, CoreBytes: 14720850432, TotalStall: 6027335809}},
	{name: "16/rackagg/credit", machines: 16, agg: "rack", strat: "credit",
		want: topoGolden{ThroughputBits: 0x4081c4d9c4943fcd, MeanIterTime: 900447236, Events: 289374, Msgs: 40509, WireBytes: 6440372064, CoreBytes: 3680212608, TotalStall: 1179873345}},
	{name: "16/rackagg/damped-core/fifo/spread", machines: 16, agg: "rack", port: "damped", strat: "fifo", spread: true,
		want: topoGolden{ThroughputBits: 0x407d784fccbf3db9, MeanIterTime: 1085851209, Events: 252723, Msgs: 40509, WireBytes: 6440372064, CoreBytes: 3680212608, TotalStall: 1555010292}},
	{name: "16/pods1/damped", machines: 16, pods: 1, strat: "damped",
		want: topoGolden{ThroughputBits: 0x4063131e38e294d8, MeanIterTime: 3355233237, Events: 439836, Msgs: 61728, WireBytes: 9813900288, CoreBytes: 14720850432, TotalStall: 6084937648}},
	{name: "16/pods1/rackagg/damped-core/credit/spread", machines: 16, pods: 1, agg: "rack", port: "damped", strat: "credit", spread: true,
		want: topoGolden{ThroughputBits: 0x40803b3f769a5ab8, MeanIterTime: 985741427, Events: 289374, Msgs: 40509, WireBytes: 6440372064, CoreBytes: 3680212608, TotalStall: 1358896793}},
	{name: "16/pods1/hier/fifo", machines: 16, pods: 1, agg: "hier", strat: "fifo",
		want: topoGolden{ThroughputBits: 0x407d5d3adcc6018f, MeanIterTime: 1089763127, Events: 231504, Msgs: 34722, WireBytes: 5520318912, CoreBytes: 3066843840, TotalStall: 1567917470}},
	{name: "16/pods2/fifo/spread", machines: 16, pods: 2, strat: "fifo", spread: true,
		want: topoGolden{ThroughputBits: 0x405ca901615bed1d, MeanIterTime: 4466127289, Events: 563292, Msgs: 61728, WireBytes: 9813900288, CoreBytes: 14720850432, SpineBytes: 9813900288, TotalStall: 8321152738}},
	{name: "16/pods2/damped-core/credit/delays", machines: 16, pods: 2, port: "damped", strat: "credit", delays: true,
		want: topoGolden{ThroughputBits: 0x405d44adf48e1392, MeanIterTime: 4373335326, Events: 621162, Msgs: 61728, WireBytes: 9813900288, CoreBytes: 14720850432, SpineBytes: 9813900288, TotalStall: 8103453250}},
	{name: "16/pods2/rackagg/damped", machines: 16, pods: 2, agg: "rack", strat: "damped",
		want: topoGolden{ThroughputBits: 0x407c7665976b0f73, MeanIterTime: 1124286829, Events: 283587, Msgs: 40509, WireBytes: 6440372064, CoreBytes: 3680212608, SpineBytes: 2453475072, TotalStall: 1636141731}},
	{name: "16/pods2/rackagg/damped-core/fifo/spread", machines: 16, pods: 2, agg: "rack", port: "damped", strat: "fifo", spread: true,
		want: topoGolden{ThroughputBits: 0x407cab1f2353dfb1, MeanIterTime: 1116209869, Events: 283587, Msgs: 40509, WireBytes: 6440372064, CoreBytes: 3680212608, SpineBytes: 2453475072, TotalStall: 1621581046}},
	{name: "16/pods2/hier/credit/spread", machines: 16, pods: 2, agg: "hier", strat: "credit", spread: true,
		want: topoGolden{ThroughputBits: 0x4081b2a4c1bfdfc0, MeanIterTime: 904065819, Events: 297090, Msgs: 36651, WireBytes: 5827003296, CoreBytes: 3680212608, SpineBytes: 1226737536, TotalStall: 1197826668}},
	{name: "16/pods2/hier/damped-core/damped/delays", machines: 16, pods: 2, agg: "hier", port: "damped", strat: "damped", delays: true,
		want: topoGolden{ThroughputBits: 0x407f8bdf30c61c74, MeanIterTime: 1014379644, Events: 264297, Msgs: 36651, WireBytes: 5827003296, CoreBytes: 3680212608, SpineBytes: 1226737536, TotalStall: 1413470618}},
	{name: "16/pods2/hier/damped-core/fifo/spread", machines: 16, pods: 2, agg: "hier", port: "damped", strat: "fifo", spread: true,
		want: topoGolden{ThroughputBits: 0x407cdd698df2bc2a, MeanIterTime: 1108613194, Events: 264297, Msgs: 36651, WireBytes: 5827003296, CoreBytes: 3680212608, SpineBytes: 1226737536, TotalStall: 1604102083}},
	{name: "16/pods4/hier/damped", machines: 16, pods: 4, agg: "hier", strat: "damped",
		want: topoGolden{ThroughputBits: 0x4072dfd64baad9f1, MeanIterTime: 1695421398, Events: 329883, Msgs: 40509, WireBytes: 6440372064, CoreBytes: 4906950144, SpineBytes: 3680212608, TotalStall: 2773960919}},
	{name: "18/damped/spread", machines: 18, strat: "damped", spread: true,
		want: topoGolden{ThroughputBits: 0x40584b876a428480, MeanIterTime: 5927136959, Events: 511176, Msgs: 69444, WireBytes: 11040637824, CoreBytes: 17772534528, TotalStall: 11238790533}},
	{name: "18/damped-core/fifo/delays", machines: 18, port: "damped", strat: "fifo", delays: true,
		want: topoGolden{ThroughputBits: 0x40636314d76a186f, MeanIterTime: 3713821811, Events: 506856, Msgs: 69444, WireBytes: 11040637824, CoreBytes: 17413778688, TotalStall: 6771171565}},
	{name: "18/rackagg/fifo/spread", machines: 18, agg: "rack", strat: "fifo", spread: true,
		want: topoGolden{ThroughputBits: 0x40721612010fe414, MeanIterTime: 1990466525, Events: 299022, Msgs: 46296, WireBytes: 7360425216, CoreBytes: 4906950144, TotalStall: 3370883010}},
	{name: "18/rackagg/damped-core/credit", machines: 18, agg: "rack", port: "damped", strat: "credit",
		want: topoGolden{ThroughputBits: 0x40783821b01c5cdb, MeanIterTime: 1486420064, Events: 341460, Msgs: 46296, WireBytes: 7360425216, CoreBytes: 4906950144, TotalStall: 2356888026}},
	{name: "18/pods1/rackagg/damped/spread", machines: 18, pods: 1, agg: "rack", strat: "damped", spread: true,
		want: topoGolden{ThroughputBits: 0x4072d5f965d19dc0, MeanIterTime: 1911250371, Events: 299022, Msgs: 46296, WireBytes: 7360425216, CoreBytes: 4906950144, TotalStall: 3211430989}},
	{name: "18/pods1/hier/damped-core/credit", machines: 18, pods: 1, agg: "hier", port: "damped", strat: "credit",
		want: topoGolden{ThroughputBits: 0x407b6d1b95df4b70, MeanIterTime: 1312613382, Events: 299022, Msgs: 38580, WireBytes: 6133687680, CoreBytes: 3680212608, TotalStall: 1982932145}},
	{name: "18/pods5/hier/fifo/spread", machines: 18, pods: 5, agg: "hier", strat: "fifo", spread: true,
		want: topoGolden{ThroughputBits: 0x40628b5f725ef680, MeanIterTime: 3882568449, Events: 395472, Msgs: 46296, WireBytes: 7360425216, CoreBytes: 6133687680, SpineBytes: 4906950144, TotalStall: 7154560522}},

	{name: "16/rackagg/local/baseline", machines: 16, agg: "rack", strat: "baseline", local: true, reduce: true,
		want: topoGolden{ThroughputBits: 0x4079a70550b7c1f9, MeanIterTime: 1247445424, Events: 242175, Msgs: 35454, WireBytes: 6440625840, CoreBytes: 3680302176, TotalStall: 1849461339}},
	{name: "16/pods2/hier/local/tensorflow", machines: 16, pods: 2, agg: "hier", strat: "tensorflow", local: true, reduce: true,
		want: topoGolden{ThroughputBits: 0x407afe7adc519cd9, MeanIterTime: 1185445886, Events: 202056, Msgs: 18660, WireBytes: 5827018224, CoreBytes: 3680212608, SpineBytes: 1226737536, TotalStall: 1752272215}},
	{name: "16/pods2/rackagg/local/baseline/spread", machines: 16, pods: 2, agg: "rack", strat: "baseline", spread: true, local: true, reduce: true,
		want: topoGolden{ThroughputBits: 0x4075cc13de9e4fe0, MeanIterTime: 1468079938, Events: 168447, Msgs: 21774, WireBytes: 6440527920, CoreBytes: 3680267616, SpineBytes: 2453511744, TotalStall: 2021992084}},
	{name: "18/rackagg/local/tensorflow/spread", machines: 18, agg: "rack", strat: "tensorflow", spread: true, local: true, reduce: true,
		want: topoGolden{ThroughputBits: 0x407195feec8517a3, MeanIterTime: 2047092093, Events: 143448, Msgs: 14325, WireBytes: 7360434384, CoreBytes: 4906950144, TotalStall: 3483941548}},
	{name: "18/pods1/hier/damped-core/local/baseline", machines: 18, pods: 1, agg: "hier", port: "damped", strat: "baseline", local: true, reduce: true,
		want: topoGolden{ThroughputBits: 0x4073bba57e5d5670, MeanIterTime: 1824355697, Events: 283512, Msgs: 38727, WireBytes: 6133989552, CoreBytes: 3680307936, TotalStall: 3002737598}},

	{name: "16/pods2/hier/fifo/rack-crash", machines: 16, pods: 2, agg: "hier", strat: "fifo", faults: rackCrash(150e6, 1),
		want: topoGolden{ThroughputBits: 0x406f4aa4a5837011, MeanIterTime: 2045278973, Events: 450499, Msgs: 57668, WireBytes: 7031934352, CoreBytes: 5631058176, SpineBytes: 2557089312, TotalStall: 3472691278, FaultsInjected: 2, AggFailovers: 6315, DegradedNs: 300000000, LostReductions: 196}},
	{name: "16/pods2/hier/credit/pod-crash", machines: 16, pods: 2, agg: "hier", strat: "credit", faults: podCrash(150e6, 1),
		want: topoGolden{ThroughputBits: 0x40735a8dd9b1dc33, MeanIterTime: 1653428306, Events: 479714, Msgs: 55441, WireBytes: 6684885088, CoreBytes: 5076273344, SpineBytes: 2189275104, TotalStall: 2685151470, FaultsInjected: 2, AggFailovers: 5218, DegradedNs: 350000000, LostReductions: 42}},
	{name: "16/pods2/hier/damped-core/damped/both-crash/spread", machines: 16, pods: 2, agg: "hier", port: "damped", strat: "damped", spread: true, faults: append(rackCrash(150e6, 1), podCrash(150e6, 1)...),
		want: topoGolden{ThroughputBits: 0x4066f246c8550b53, MeanIterTime: 2789109436, Events: 663978, Msgs: 81525, WireBytes: 8144625072, CoreBytes: 7519485024, SpineBytes: 3857090720, TotalStall: 4966765094, FaultsInjected: 4, AggFailovers: 10833, DegradedNs: 650000000, LostReductions: 255}},
	{name: "18/rackagg/fifo/rack-crash", machines: 18, agg: "rack", strat: "fifo", faults: rackCrash(200e6, 4),
		want: topoGolden{ThroughputBits: 0x406e4ce50c1fea8b, MeanIterTime: 2376208608, Events: 340448, Msgs: 51625, WireBytes: 7678304176, CoreBytes: 5522989120, TotalStall: 4022224760, FaultsInjected: 2, AggFailovers: 2958, DegradedNs: 300000000, LostReductions: 100}},
	{name: "16/rackagg/damped/reduce/rack-crash", machines: 16, agg: "rack", strat: "damped", reduce: true, faults: rackCrash(150e6, 1),
		want: topoGolden{ThroughputBits: 0x4072a1ee087c1575, MeanIterTime: 1717425688, Events: 361166, Msgs: 50910, WireBytes: 7109111952, CoreBytes: 4801230912, TotalStall: 2820649891, FaultsInjected: 2, AggFailovers: 4049, DegradedNs: 300000000, LostReductions: 96}},
	{name: "16/pods2/rackagg/credit/rack-crash/spread", machines: 16, pods: 2, agg: "rack", strat: "credit", spread: true, faults: rackCrash(150e6, 1),
		want: topoGolden{ThroughputBits: 0x406ec0e3d0d39b76, MeanIterTime: 2081065555, Events: 429634, Msgs: 51522, WireBytes: 6964238496, CoreBytes: 4485356640, SpineBytes: 2997105440, TotalStall: 3550473388, FaultsInjected: 2, AggFailovers: 4643, DegradedNs: 300000000, LostReductions: 47}},
}

// crashGoldens were captured at commit 6076667, the last tree where crash
// recovery was a second barrier function plus guards in worker.go, server.go
// and aggtree.go. Between them the cells take every branch that now sits
// behind the recovery seam (faults.go): a worker rerouting around its down
// rack aggregator, a rack stream re-parented past a down pod aggregator, the
// per-machine failover fan below a pod, a server broadcast streamed per child
// node and per machine, re-pushes the seen bitmap drops, stale re-pushes
// answered with data, late streams counted in part, and recovery pulls whose
// answer arrives twice. The permanent crash keeps all of it running through
// the measured iterations. Windows are clear of the ROADMAP 4(b) wedge.
var crashGoldens = []topoCell{
	{name: "16/pods2/hier/fifo/rack1@250-300", machines: 16, pods: 2, agg: "hier", strat: "fifo",
		faults: []faults.Event{crash(faults.TierRack, 1, 250e6, 300e6)},
		want:   topoGolden{ThroughputBits: 0x407091ff1e5a2226, MeanIterTime: 1931166112, Events: 405833, Msgs: 52397, WireBytes: 6850790864, CoreBytes: 5339189664, SpineBytes: 2363366464, TotalStall: 3245519332, FaultsInjected: 1, AggFailovers: 5153, LostReductions: 197}, sum: 0x1d7aac7a12a00c9c},
	{name: "16/pods2/hier/damped-core/damped/pod0@550-570", machines: 16, pods: 2, agg: "hier", port: "damped", strat: "damped",
		faults: []faults.Event{crash(faults.TierPod, 0, 550e6, 570e6)},
		want:   topoGolden{ThroughputBits: 0x407d805f7f9307ad, MeanIterTime: 1084692183, Events: 276829, Msgs: 37665, WireBytes: 5925372880, CoreBytes: 3855532032, SpineBytes: 1367769088, TotalStall: 1553376883, FaultsInjected: 1, AggFailovers: 554, LostReductions: 213}, sum: 0x6b7cbec385117a43},
	{name: "16/pods2/hier/credit/pod1@125-225", machines: 16, pods: 2, agg: "hier", strat: "credit",
		faults: []faults.Event{crash(faults.TierPod, 1, 125e6, 225e6)},
		want:   topoGolden{ThroughputBits: 0x407343a7a6b8556a, MeanIterTime: 1661105691, Events: 497000, Msgs: 57201, WireBytes: 6695809392, CoreBytes: 5096063712, SpineBytes: 2258346240, TotalStall: 2696521873, FaultsInjected: 1, AggFailovers: 5911, LostReductions: 30}, sum: 0x2f285640bc3179f4},
	{name: "18/rackagg/damped/rack2@175-225/spread", machines: 18, agg: "rack", strat: "damped", spread: true,
		faults: []faults.Event{crash(faults.TierRack, 2, 175e6, 225e6)},
		want:   topoGolden{ThroughputBits: 0x406db42465d1cacc, MeanIterTime: 2423942052, Events: 369619, Msgs: 56263, WireBytes: 7978004704, CoreBytes: 5959320160, TotalStall: 4236814351, FaultsInjected: 1, AggFailovers: 4088, LostReductions: 92}, sum: 0x934a19b5aab118e6},
	{name: "16/pods2/hier/fifo/rack1@300-", machines: 16, pods: 2, agg: "hier", strat: "fifo",
		faults: []faults.Event{crash(faults.TierRack, 1, 300e6, 0)},
		want:   topoGolden{ThroughputBits: 0x4061e6ea544e12ec, MeanIterTime: 3575016938, Events: 1023139, Msgs: 120381, WireBytes: 9001398384, CoreBytes: 9671535552, SpineBytes: 4797352128, TotalStall: 5730839460, FaultsInjected: 1, AggFailovers: 29518, LostReductions: 1632}, sum: 0xd39052405c16aa74},
}

// TestTopologyGoldens pins every topoGoldens cell at 1 and at 3 shards. A
// mismatch prints the Result as a table literal, which is also how the
// table is regenerated when a change means to move it.
func TestTopologyGoldens(t *testing.T) { checkGoldens(t, topoGoldens) }

// TestCrashGoldens pins the crashGoldens cells the same way, whole Result
// included. Named in the CI -race fault determinism step.
func TestCrashGoldens(t *testing.T) { checkGoldens(t, crashGoldens) }

func checkGoldens(t *testing.T, cells []topoCell) {
	for _, c := range cells {
		for _, shards := range []int{1, 3} {
			cfg := c.config(t)
			cfg.Shards = shards
			r := Run(cfg)
			if got := topoGoldenOf(r); got != c.want {
				t.Errorf("%s, %d shard(s):\n got %#v\nwant %#v", c.name, shards, got, c.want)
			}
			if c.sum != 0 {
				h := fnv.New64a()
				fmt.Fprintf(h, "%+v", r)
				if got := h.Sum64(); got != c.sum {
					t.Errorf("%s, %d shard(s): whole-Result sum %#x, want %#x", c.name, shards, got, c.sum)
				}
			}
		}
	}
}
