// Package benchmarks defines the dispatch-path microbenchmarks and the
// zoo-simulation timings as plain functions, so they can run both under `go
// test -bench` and programmatically from cmd/p3bench — which renders them
// and gates CI against a checked-in baseline (Check).
//
// The dispatch suite prices the hot paths this repository's throughput
// hangs on: sched.Queue's indexed-heap dispatch under many flows, the
// credit-gated admission walk, flow-aware head skipping past a blocked
// flow, transport.SendQueue's mutex path, sim.Engine's event scheduling,
// and the simulated message path above them (netsim's pooled in-flight
// records over the host and ToR hops, the endpoint processing pool). Every
// dispatch benchmark is required to be allocation-free at steady state;
// Check fails any result that allocates.
package benchmarks

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"p3/internal/cluster"
	"p3/internal/netsim"
	"p3/internal/ring"
	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/transport"
	"p3/internal/worker"
	"p3/internal/zoo"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// SimResult is one zoo-simulation timing: the simulated iteration time it
// reports plus the wall-clock the simulator itself needed — the
// perf-trajectory number for the engine and dispatch work.
type SimResult struct {
	Name     string  `json:"name"`
	Machines int     `json:"machines"`
	IterMs   float64 `json:"iter_ms"`
	WallMs   float64 `json:"wall_ms"`
	Events   uint64  `json:"events"`
}

// Artifact is the machine-readable benchmark record: what Collect
// measures and what ci/bench_baseline.json holds.
type Artifact struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CalibNs is the measured cost of a fixed arithmetic spin loop. Check
	// scales ns/op thresholds by the calibration ratio, so a baseline
	// recorded on one machine remains meaningful on a faster or slower
	// CI runner; allocs/op needs no calibration.
	CalibNs  float64     `json:"calib_ns"`
	Dispatch []Result    `json:"dispatch"`
	Sims     []SimResult `json:"sims,omitempty"`
}

// Named is one runnable benchmark.
type Named struct {
	Name  string
	Bench func(b *testing.B)
}

// queueBench builds a steady-state dispatch benchmark over `flows` flows.
func queueBench(disc string, flows int) func(b *testing.B) {
	return func(b *testing.B) {
		ident := func(it sched.Item) sched.Item { return it }
		q := sched.NewQueue(sched.MustByName(disc), ident)
		for i := 0; i < flows*4; i++ {
			q.Push(sched.Item{
				Priority: int32(i % 8),
				Bytes:    int64(256 + (i*131)%1024),
				Dest:     int32(i % flows),
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, ok := q.PopReady()
			if !ok {
				b.Fatal("nothing admissible")
			}
			q.Done(v)
			q.Push(v)
		}
	}
}

// blockedFlowBench keeps the most urgent flow permanently credit-blocked so
// every dispatch must skip past it — the head-skipping walk.
func blockedFlowBench(flows int) func(b *testing.B) {
	return func(b *testing.B) {
		ident := func(it sched.Item) sched.Item { return it }
		q := sched.NewQueue(sched.NewAdaptiveCredit(512), ident)
		blocked := sched.Item{Priority: 0, Bytes: 480, Dest: int32(flows + 1)}
		q.Push(blocked)
		if _, ok := q.PopReady(); !ok {
			b.Fatal("setup pop failed")
		}
		q.Push(blocked) // never acknowledged: its flow stays refused
		for i := 0; i < flows*4; i++ {
			q.Push(sched.Item{
				Priority: 1 + int32(i%8),
				Bytes:    64,
				Dest:     int32(i % flows),
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, ok := q.PopReady()
			if !ok {
				b.Fatal("nothing admissible")
			}
			q.Done(v)
			q.Push(v)
		}
	}
}

// sendQueueBench prices the transport queue's mutex path single-threaded
// over 64 destinations.
func sendQueueBench(disc string) func(b *testing.B) {
	return func(b *testing.B) {
		q := transport.NewSendQueue(sched.MustByName(disc))
		for i := 0; i < 256; i++ {
			q.Push(&transport.Frame{
				Type:     transport.TypePush,
				Priority: int32(i % 16),
				Dst:      uint8(i % 64),
				Values:   make([]float32, 64),
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, ok := q.TryPop()
			if !ok {
				b.Fatal("queue drained")
			}
			q.Done(f)
			q.Push(f)
		}
	}
}

// engineBench prices one scheduled-and-fired event on the discrete-event
// engine. The closure is reused and every push is for a fresh instant, so
// the cost is the event queue's heap path alone: the path an untied event
// takes, which same-instant batching must not slow.
func engineBench(b *testing.B) {
	var eng sim.Engine
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(10, tick)
		}
	}
	eng.After(10, tick)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// calibBench is the fixed arithmetic spin used to normalize ns/op across
// machines; it allocates nothing and touches no memory beyond two registers.
func calibBench(b *testing.B) {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sinkU64 = x
}

var sinkU64 uint64

// xshardBench prices the parallel executor's per-event window machinery: a
// two-shard ping-pong where each event's only effect is a cross-shard send,
// so every window carries both shards' handoff (coordinator -> worker
// channel, barrier wait, canonical outbox injection) and nothing else. The
// closures and outbox/scratch/heap slabs are all reused, so steady state
// must stay allocation-free like the rest of the dispatch suite.
func xshardBench(b *testing.B) {
	const look = sim.Time(10)
	p, err := sim.NewParallel(2, []int{0, 1}, look)
	if err != nil {
		b.Fatal(err)
	}
	half := b.N / 2
	if half == 0 {
		half = 1
	}
	proc0, proc1 := p.Proc(0), p.Proc(1)
	n0, n1 := 0, 0
	var fn0, fn1 func()
	fn0 = func() {
		n0++
		if n0 < half {
			p.Cross(0, 1, proc0.Now()+look, fn1)
		}
	}
	fn1 = func() {
		n1++
		if n1 < half {
			p.Cross(1, 0, proc1.Now()+look, fn0)
		}
	}
	proc0.At(0, fn0)
	proc1.At(0, fn1)
	b.ReportAllocs()
	b.ResetTimer()
	p.Run()
}

// netsimBench prices one message through netsim on a bare engine — host
// egress, the switch ports between from and dest(from), host ingress —
// with a standing window of messages in flight, each delivery sending the
// next. The warm-up window populates the record pools, the queues' flow
// shells and the event slab, so the timed steady state must allocate
// nothing: the pooled-record message path's contract.
func netsimBench(cfg netsim.Config, dest func(from int) int) func(b *testing.B) {
	return func(b *testing.B) {
		const n, window = 16, 64
		var eng sim.Engine
		var nw *netsim.Network
		budget := 0
		send := func(from int) {
			budget--
			nw.Send(netsim.Message{From: from, To: dest(from), Bytes: 4096, Priority: int32(budget & 7)})
		}
		nw = netsim.New(&eng, n, cfg, func(m netsim.Message) {
			if budget > 0 {
				send(m.To)
			}
		}, nil)
		run := func(msgs int) {
			budget = msgs
			for i := 0; i < window && budget > 0; i++ {
				send(i % n)
			}
			eng.Run()
		}
		run(4 * window)
		b.ReportAllocs()
		b.ResetTimer()
		run(b.N)
	}
}

// poolBench prices one item through the endpoint processing pool
// (queue, per-chunk serialization, pre-bound completion slot): b.N items
// through one two-thread p3-ordered worker.Pool on a bare engine, a window
// of 64 in flight over 16 chunks, so same-chunk arrivals defer on the
// per-key serialization and re-queue. Every finished item feeds the next
// one, as a delivery would. The pool is built inside the timed call; its
// few dozen construction allocations vanish in allocs/op, one allocation
// per item would not.
func poolBench(b *testing.B) {
	b.ReportAllocs()
	const chunks, window = 16, 64
	var eng sim.Engine
	bytes := func(c int32) int64 { return 4 * int64(1000+100*c) }
	view := func(it worker.Item) sched.Item {
		return sched.Item{Priority: it.Priority, Bytes: bytes(it.Chunk), Dest: it.Src}
	}
	var p *worker.Pool
	added, done := 0, 0
	add := func() {
		added++
		p.Add(worker.Item{Chunk: int32(added * 7 % chunks), Src: int32(added % 4), Priority: int32(added % 8)})
	}
	p = worker.NewPool(&eng, 2, worker.Costs(chunks, bytes, 100, 1), sched.NewQueue(sched.MustByName("p3"), view),
		func(worker.Item) {
			done++
			if added < b.N {
				add()
			}
		})
	for added < window && added < b.N {
		add()
	}
	eng.Run()
	if done != b.N {
		b.Fatalf("%d of %d items processed", done, b.N)
	}
}

// Dispatch returns the dispatch microbenchmark suite, in stable order.
func Dispatch() []Named {
	return []Named{
		{"queue/p3/64flows", queueBench("p3", 64)},
		{"queue/p3/256flows", queueBench("p3", 256)},
		{"queue/damped/64flows", queueBench("damped", 64)},
		{"queue/tictac/64flows", queueBench("tictac", 64)},
		{"queue/credit-adaptive/64flows", queueBench("credit-adaptive:1048576", 64)},
		{"queue/credit-adaptive/256flows", queueBench("credit-adaptive:1048576", 256)},
		{"queue/blocked-flow/64flows", blockedFlowBench(64)},
		{"sendqueue/p3/64dests", sendQueueBench("p3")},
		{"sendqueue/damped/64dests", sendQueueBench("damped")},
		{"sendqueue/credit-adaptive/64dests", sendQueueBench("credit-adaptive:1048576")},
		{"engine/event", engineBench},
		{"engine/xshard", xshardBench},
		{"netsim/host-msg", netsimBench(hostCfg(), func(from int) int { return (from + 1) % 16 })},
		{"netsim/tor-msg", netsimBench(torCfg(), func(from int) int { return from ^ 4 })},
		{"cluster/procpool", poolBench},
	}
}

// hostCfg is the flat switch at the reference cell's bandwidth, p3 egress.
func hostCfg() netsim.Config {
	cfg := netsim.DefaultConfig(1.5)
	cfg.Egress = "p3"
	return cfg
}

// torCfg puts the 16 machines in racks of 4 behind 4:1-oversubscribed,
// damped-scheduled ToR ports; from^4 is the same slot of a neighbour rack.
func torCfg() netsim.Config {
	cfg := hostCfg()
	cfg.Topology = netsim.Topology{RackSize: 4, CoreOversub: 4, CoreSched: "damped"}
	return cfg
}

// benchReps is how many times RunDispatch measures each benchmark. The
// reported ns/op is the minimum across repetitions — the standard
// noise-robust statistic for sub-microsecond benchmarks, since co-scheduled
// load on a shared runner can only make a run slower, never faster — which
// keeps the CI gate's single comparison from flaking on machine noise the
// spin-loop calibration cannot see (cache and memory-bandwidth contention).
// allocs/op is taken as the maximum: it is deterministic at steady state,
// and any repetition observing an allocation is a real contract violation.
const benchReps = 5

// RunDispatch measures the dispatch suite with testing.Benchmark, best of
// benchReps repetitions per benchmark.
func RunDispatch() []Result {
	suite := Dispatch()
	out := make([]Result, 0, len(suite))
	for _, n := range suite {
		var best Result
		for rep := 0; rep < benchReps; rep++ {
			r := testing.Benchmark(n.Bench)
			cur := Result{
				Name:        n.Name,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			if rep == 0 || cur.NsPerOp < best.NsPerOp {
				best.Name, best.NsPerOp = cur.Name, cur.NsPerOp
			}
			if cur.AllocsPerOp > best.AllocsPerOp {
				best.AllocsPerOp = cur.AllocsPerOp
			}
			if cur.BytesPerOp > best.BytesPerOp {
				best.BytesPerOp = cur.BytesPerOp
			}
		}
		out = append(out, best)
	}
	return out
}

// Calibrate measures the spin-loop reference cost (best of benchReps).
func Calibrate() float64 {
	best := 0.0
	for rep := 0; rep < benchReps; rep++ {
		r := testing.Benchmark(calibBench)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// RunSims times the zoo simulations of the perf trajectory: each paper
// model at its headline bandwidth on 4 machines, plus the 64-machine scale
// cell that the dispatch rewrite made practical.
func RunSims() []SimResult {
	cases := []struct {
		name     string
		model    string
		machines int
		gbps     float64
		path     string
		shards   int
	}{
		{"cluster/resnet50/p3@4G", "resnet50", 4, 4, "cluster", 0},
		{"cluster/vgg19/p3@15G", "vgg19", 4, 15, "cluster", 0},
		{"cluster/sockeye/p3@4G", "sockeye", 4, 4, "cluster", 0},
		{"cluster/resnet50/p3@1.5G/64m", "resnet50", 64, 1.5, "cluster", 0},
		// The 256-machine cell runs on the sharded engine (4 shards
		// regardless of host parallelism — the Result is bit-identical
		// either way, and WallMs then tracks the parallel executor's cost).
		{"cluster/resnet50/p3@1.5G/256m/shards4", "resnet50", 256, 1.5, "cluster", 4},
		{"ring/resnet50/p3@1.5G/16m", "resnet50", 16, 1.5, "ring", 0},
	}
	out := make([]SimResult, 0, len(cases))
	for _, c := range cases {
		//p3:wallclock-ok WallMs reports real simulator throughput
		t0 := time.Now()
		var iterMs float64
		var events uint64
		if c.path == "ring" {
			st := strategy.Strategy{Name: "ar-p3", Granularity: strategy.Slices, Sched: "p3"}
			r := ring.Run(ring.Config{
				Model: zoo.ByName(c.model), Machines: c.machines, Strategy: st,
				BandwidthGbps: c.gbps, WarmupIters: 1, MeasureIters: 3, Seed: 1,
			})
			iterMs, events = r.MeanIterTime.Millis(), r.Events
		} else {
			r := cluster.Run(cluster.Config{
				Model: zoo.ByName(c.model), Machines: c.machines, Strategy: strategy.P3(0),
				BandwidthGbps: c.gbps, WarmupIters: 1, MeasureIters: 3, Seed: 1,
				Shards: c.shards,
			})
			iterMs, events = r.MeanIterTime.Millis(), r.Events
		}
		out = append(out, SimResult{
			Name:     c.name,
			Machines: c.machines,
			IterMs:   iterMs,
			WallMs:   float64(time.Since(t0).Microseconds()) / 1000, //p3:wallclock-ok WallMs reports real simulator throughput
			Events:   events,
		})
	}
	return out
}

// Collect runs the full suite into an artifact. withSims adds the zoo
// simulation timings (slower; the CI gate runs dispatch only).
func Collect(withSims bool) *Artifact {
	a := &Artifact{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibNs:    Calibrate(),
		Dispatch:   RunDispatch(),
	}
	if withSims {
		a.Sims = RunSims()
	}
	return a
}

// Check compares cur against base and returns the violations: any dispatch
// benchmark that allocates at steady state (allocs/op > 0), regresses ns/op
// by more than tol (after scaling base by the machines' calibration ratio),
// or disappeared from the suite. An empty slice means the gate passes.
func Check(cur, base *Artifact, tol float64) []string {
	var violations []string
	scale := 1.0
	if base.CalibNs > 0 && cur.CalibNs > 0 {
		scale = cur.CalibNs / base.CalibNs
	}
	baseline := make(map[string]Result, len(base.Dispatch))
	for _, r := range base.Dispatch {
		baseline[r.Name] = r
	}
	seen := make(map[string]bool, len(cur.Dispatch))
	for _, r := range cur.Dispatch {
		seen[r.Name] = true
		if r.AllocsPerOp > 0 {
			violations = append(violations, fmt.Sprintf(
				"%s: %d allocs/op at steady state, want 0", r.Name, r.AllocsPerOp))
		}
		b, ok := baseline[r.Name]
		if !ok {
			continue // new benchmark: no baseline yet
		}
		limit := b.NsPerOp * scale * (1 + tol)
		if r.NsPerOp > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: %.1f ns/op exceeds %.1f (baseline %.1f x calib %.2f x tolerance %.0f%%)",
				r.Name, r.NsPerOp, limit, b.NsPerOp, scale, tol*100))
		}
	}
	for _, b := range base.Dispatch {
		if !seen[b.Name] {
			violations = append(violations, fmt.Sprintf("%s: benchmark vanished from the suite", b.Name))
		}
	}
	return violations
}
