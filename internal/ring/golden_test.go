package ring

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"p3/internal/cluster"
	"p3/internal/netsim"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// ringGolden is one pre-refactor reference result, captured from the tree
// before the model-aware scheduling wiring (sched.Profile threading, the
// tictac/credit-adaptive disciplines) on resnet110, 4 machines, warmup 2,
// measure 4, seed 1 — mirroring internal/cluster/golden_test.go so the ring
// path's wiring cannot drift either. Throughput is stored as float64 bits
// so the comparison is exact.
type ringGolden struct {
	Strategy       string
	Granularity    strategy.Granularity
	Sched          string
	ThroughputBits uint64
	MeanIterTime   sim.Time
	ComputeIter    sim.Time
	Events         uint64
}

// ringGoldens10 was captured at 10 Gbps (compute-bound) and ringGoldens15
// at 1.5 Gbps (communication-bound: priority separates from fifo). Together
// they pin both regimes for the fifo and p3 disciplines.
var ringGoldens10 = []ringGolden{
	{
		Strategy: "ar-layer", Granularity: strategy.Shards, Sched: "fifo",
		ThroughputBits: 0x40ac114a15bd87d8,
		MeanIterTime:   142513397,
		ComputeIter:    142221830,
		Events:         209040,
	},
	{
		Strategy: "ar-sliced", Granularity: strategy.Slices, Sched: "fifo",
		ThroughputBits: 0x40ac114a15bd87d8,
		MeanIterTime:   142513397,
		ComputeIter:    142221830,
		Events:         209040,
	},
	{
		Strategy: "ar-p3", Granularity: strategy.Slices, Sched: "p3",
		ThroughputBits: 0x40ac114a15bd87d8,
		MeanIterTime:   142513397,
		ComputeIter:    142221830,
		Events:         209040,
	},
}

var ringGoldens15 = []ringGolden{
	{
		Strategy: "ar-layer", Granularity: strategy.Shards, Sched: "fifo",
		ThroughputBits: 0x40ac0c8f8331d64f,
		MeanIterTime:   142607250,
		ComputeIter:    142221830,
		Events:         209040,
	},
	{
		Strategy: "ar-sliced", Granularity: strategy.Slices, Sched: "fifo",
		ThroughputBits: 0x40ac0c8f8331d64f,
		MeanIterTime:   142607250,
		ComputeIter:    142221830,
		Events:         209040,
	},
	{
		Strategy: "ar-p3", Granularity: strategy.Slices, Sched: "p3",
		ThroughputBits: 0x40ac0d68c328083c,
		MeanIterTime:   142590398,
		ComputeIter:    142221830,
		Events:         209040,
	},
}

// TestRingGoldenParity asserts that the fifo and p3 disciplines produce
// bit-identical ring all-reduce Results through the profile-threaded wiring
// that they produced before it existed — threading model knowledge to the
// disciplines that want it must not move a single event for the ones that
// do not.
func TestRingGoldenParity(t *testing.T) {
	cases := []struct {
		gbps    float64
		goldens []ringGolden
	}{
		{10, ringGoldens10},
		{1.5, ringGoldens15},
	}
	for _, c := range cases {
		for _, g := range c.goldens {
			st := strategy.Strategy{Name: g.Strategy, Granularity: g.Granularity, Sched: g.Sched}
			for _, preempt := range []int64{0, 1 << 30} {
				r := runGolden(t, st, c.gbps, preempt)
				checkGolden(t, g, c.gbps, preempt, r)
			}
		}
	}
}

// runGolden executes one golden configuration; preempt > 0 exercises the
// segmented egress path (an over-size quantum: one segment per message,
// which must stay bit-identical — the refactor may only change behaviour
// when a preemption actually fires).
func runGolden(t *testing.T, st strategy.Strategy, gbps float64, preempt int64) Result {
	t.Helper()
	return Run(Config{
		Model:          zoo.ByName("resnet110"),
		Machines:       4,
		Strategy:       st,
		BandwidthGbps:  gbps,
		PreemptQuantum: preempt,
		WarmupIters:    2,
		MeasureIters:   4,
		Seed:           1,
	})
}

func checkGolden(t *testing.T, g ringGolden, gbps float64, preempt int64, r Result) {
	t.Helper()
	if got := math.Float64bits(r.Throughput); got != g.ThroughputBits {
		t.Errorf("%s@%g preempt=%d: throughput bits %#x, want %#x (%.6f vs %.6f)",
			g.Strategy, gbps, preempt, got, g.ThroughputBits,
			r.Throughput, math.Float64frombits(g.ThroughputBits))
	}
	if r.MeanIterTime != g.MeanIterTime {
		t.Errorf("%s@%g preempt=%d: mean iter %d, want %d", g.Strategy, gbps, preempt, r.MeanIterTime, g.MeanIterTime)
	}
	if r.ComputeIter != g.ComputeIter {
		t.Errorf("%s@%g preempt=%d: compute iter %d, want %d", g.Strategy, gbps, preempt, r.ComputeIter, g.ComputeIter)
	}
	if r.Events != g.Events {
		t.Errorf("%s@%g preempt=%d: events %d, want %d", g.Strategy, gbps, preempt, r.Events, g.Events)
	}
}

// ringCellGolden is everything a Result carries beyond the echo of its
// Config, captured at commit e07e2c0 (the last tree in which ring.go had
// its own worker loop, reduction pump and summary). LayerStalls is pinned
// entry by entry through an FNV-1a hash, Throughput as float64 bits.
type ringCellGolden struct {
	ThroughputBits uint64
	MeanIterTime   sim.Time
	ComputeIter    sim.Time
	MeasuredIters  int
	Events         uint64
	Msgs           int64
	Bytes          int64
	TotalStall     sim.Time
	StallHash      uint64
}

// String renders g as the table literal.
func (g ringCellGolden) String() string {
	return fmt.Sprintf("ringCellGolden{ThroughputBits: %#x, MeanIterTime: %d, ComputeIter: %d, MeasuredIters: %d, Events: %d, Msgs: %d, Bytes: %d, TotalStall: %d, StallHash: %#x}",
		g.ThroughputBits, g.MeanIterTime, g.ComputeIter, g.MeasuredIters, g.Events, g.Msgs, g.Bytes, g.TotalStall, g.StallHash)
}

func ringCellGoldenOf(r Result) ringCellGolden {
	g := ringCellGolden{
		ThroughputBits: math.Float64bits(r.Throughput), MeanIterTime: r.MeanIterTime,
		ComputeIter: r.ComputeIter, MeasuredIters: r.MeasuredIters,
		Events: r.Events, Msgs: r.Msgs, Bytes: r.WireBytes,
	}
	h := fnv.New64a()
	for _, s := range r.LayerStalls {
		g.TotalStall += s
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(s)))
	}
	g.StallHash = h.Sum64()
	return g
}

// ringCell is one all-reduce configuration at warm-up 1 + 2 measured
// iterations, seed 1. Together the cells cover what the shared worker
// loop, consumer pool and summary touch: the jitter stream (sockeye), both
// granularities, 4/8/16 machines, ranking, gated and profile-driven
// disciplines, the calibrated second pass, and real egress preemption.
type ringCell struct {
	name       string
	model      string
	machines   int
	gbps       float64
	layer      bool // layer granularity instead of slices
	sched      string
	preempt    int64
	calibrated bool // pin the second pass of RunCalibrated
	want       ringCellGolden
}

var ringCells = []ringCell{
	{name: "sockeye/4/p3", model: "sockeye", machines: 4, gbps: 4, sched: "p3",
		want: ringCellGolden{ThroughputBits: 0x407894d3b749bc3f, MeanIterTime: 650899824, ComputeIter: 376470552, MeasuredIters: 2, Events: 237624, Msgs: 59184, Bytes: 2889600768, TotalStall: 517163488, StallHash: 0xd82224877409317f}},
	{name: "sockeye/8/layer/fifo", model: "sockeye", machines: 8, gbps: 4, layer: true, sched: "fifo",
		want: ringCellGolden{ThroughputBits: 0x408261d01ee4b1c3, MeanIterTime: 870412833, ComputeIter: 376470552, MeasuredIters: 2, Events: 51504, Msgs: 12432, Bytes: 6742401792, TotalStall: 963431513, StallHash: 0x57d663aae626f6bf}},
	{name: "sockeye/4/damped:tictac/calibrated", model: "sockeye", machines: 4, gbps: 4, sched: "damped:tictac", calibrated: true,
		want: ringCellGolden{ThroughputBits: 0x4075077f0d08f84a, MeanIterTime: 760843841, ComputeIter: 376470552, MeasuredIters: 2, Events: 237624, Msgs: 59184, Bytes: 2889600768, TotalStall: 733093735, StallHash: 0x589179d75f3501c0}},
	{name: "resnet50/8/damped", model: "resnet50", machines: 8, gbps: 1.5, sched: "damped",
		want: ringCellGolden{ThroughputBits: 0x406ef5844050bb72, MeanIterTime: 1033623473, ComputeIter: 304761853, MeasuredIters: 2, Events: 871920, Msgs: 216048, Bytes: 4293581376, TotalStall: 1457723240, StallHash: 0xda953841a217ec48}},
	{name: "resnet50/4/tictac", model: "resnet50", machines: 4, gbps: 1.5, sched: "tictac",
		want: ringCellGolden{ThroughputBits: 0x406251324f4fb6af, MeanIterTime: 873497193, ComputeIter: 304761853, MeasuredIters: 2, Events: 189048, Msgs: 46296, Bytes: 1840106304, TotalStall: 1137470680, StallHash: 0xaf1a5892900085b4}},
	{name: "resnet50/4/tictac/calibrated", model: "resnet50", machines: 4, gbps: 1.5, sched: "tictac", calibrated: true,
		want: ringCellGolden{ThroughputBits: 0x406250d7a2c53367, MeanIterTime: 873563177, ComputeIter: 304761853, MeasuredIters: 2, Events: 189048, Msgs: 46296, Bytes: 1840106304, TotalStall: 1137602648, StallHash: 0x4d042a4b6366b058}},
	{name: "resnet50/8/credit:1048576", model: "resnet50", machines: 8, gbps: 1.5, sched: "credit:1048576",
		want: ringCellGolden{ThroughputBits: 0x406f1251f244801b, MeanIterTime: 1029880605, ComputeIter: 304761853, MeasuredIters: 2, Events: 1087968, Msgs: 216048, Bytes: 4293581376, TotalStall: 1450237504, StallHash: 0xc329dbce9022ad90}},
	{name: "resnet50/4/p3/preempt", model: "resnet50", machines: 4, gbps: 1.5, sched: "p3", preempt: netsim.DefaultPreemptQuantum,
		want: ringCellGolden{ThroughputBits: 0x4062cfd1cf9c4860, MeanIterTime: 850530203, ComputeIter: 304761853, MeasuredIters: 2, Events: 189048, Msgs: 46296, Bytes: 1840106304, TotalStall: 1091536700, StallHash: 0xf2832b7c4cb413dc}},
	{name: "resnet50/4/layer/p3/preempt", model: "resnet50", machines: 4, gbps: 1.5, layer: true, sched: "p3", preempt: netsim.DefaultPreemptQuantum,
		want: ringCellGolden{ThroughputBits: 0x4062aa08e39b3c3e, MeanIterTime: 857256223, ComputeIter: 304761853, MeasuredIters: 2, Events: 77880, Msgs: 11592, Bytes: 1840106304, TotalStall: 1104988740, StallHash: 0x8356f2e9b5f62ca4}},
	{name: "resnet50/16/layer/fifo", model: "resnet50", machines: 16, gbps: 1.5, layer: true, sched: "fifo",
		want: ringCellGolden{ThroughputBits: 0x407b6047d819a89a, MeanIterTime: 1168902962, ComputeIter: 304761853, MeasuredIters: 2, Events: 942816, Msgs: 231840, Bytes: 9200531520, TotalStall: 1728282218, StallHash: 0x278418990fdcbd7b}},
	{name: "resnet110/16/p3", model: "resnet110", machines: 16, gbps: 1.5, sched: "p3",
		want: ringCellGolden{ThroughputBits: 0x40c9df604a4b6c5a, MeanIterTime: 154603933, ComputeIter: 142221830, MeasuredIters: 2, Events: 1961760, Msgs: 482400, Bytes: 623056320, TotalStall: 24764206, StallHash: 0xa8550374b5aaf466}},
	{name: "resnet110/8/smallest/preempt", model: "resnet110", machines: 8, gbps: 1.5, sched: "smallest", preempt: netsim.DefaultPreemptQuantum,
		want: ringCellGolden{ThroughputBits: 0x40bb90f6fc1ef680, MeanIterTime: 145104876, ComputeIter: 142221830, MeasuredIters: 2, Events: 466320, Msgs: 112560, Bytes: 290759952, TotalStall: 5766092, StallHash: 0xbe1433e5b0dff22f}},
}

// TestRingCellGoldens pins every ringCells cell. A mismatch prints the
// Result as a table literal, which is also how the table is regenerated
// when a change means to move it.
func TestRingCellGoldens(t *testing.T) {
	for _, c := range ringCells {
		st := strategy.Strategy{Name: "ar", Granularity: strategy.Slices, Sched: c.sched}
		if c.layer {
			st.Granularity = strategy.Shards
		}
		cfg := Config{
			Model: zoo.ByName(c.model), Machines: c.machines, Strategy: st, BandwidthGbps: c.gbps,
			PreemptQuantum: c.preempt, WarmupIters: 1, MeasureIters: 2, Seed: 1,
		}
		var r Result
		if c.calibrated {
			cfg.AllReduce = true
			_, cal := cluster.RunCalibrated(cfg)
			r = Result{cal, cal.ComputeIterTime}
		} else {
			r = Run(cfg)
		}
		if r.Model != c.model || r.Strategy != "ar" || r.Machines != c.machines || r.BandwidthGbps != c.gbps {
			t.Errorf("%s: Result echoes %s/%s x%d @%g", c.name, r.Model, r.Strategy, r.Machines, r.BandwidthGbps)
		}
		if got := ringCellGoldenOf(r); got != c.want {
			t.Errorf("%s:\n got %v\nwant %v", c.name, got, c.want)
		}
	}
}
