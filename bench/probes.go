package main

import (
	"bufio"
	"bytes"
	"io"
	"sync"

	"p3/internal/cluster"
	"p3/internal/faults"
	"p3/internal/netsim"
	"p3/internal/pq"
	"p3/internal/sched"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/trace"
	"p3/internal/transport"
	"p3/internal/zoo"
)

// probeReps is how often a probe is repeated; its median is reported.
const probeReps = 5

// perOp runs fn probeReps times and returns the median of its nanoseconds
// per operation. fn returns how many operations it performed.
func perOp(fn func() int) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		t0 := now()
		ops := fn()
		xs[i] = float64(since(t0)) / float64(ops)
	}
	return median(xs)
}

// runProbes prices each layer on its own, against a stub of the one above
// it, through exported functions only. smoke shrinks the operation counts.
func runProbes(m metricSet, smoke bool) {
	scale := func(n int) int {
		if smoke {
			return n / 50
		}
		return n
	}
	probeSim(m, scale)
	probeNetsim(m, scale)
	probeSched(m, scale)
	probeCluster(m, smoke)
	probeFaultPlan(m)
	probeStrategy(m)
	probeTransport(m, scale)
}

// probeSim: a self-rescheduling tick with 1 and with 4096 events pending on
// the bare Engine, the same tick through a one-shard Parallel (the price of
// the Proc indirection and canonical keys), and a two-shard ping-pong in
// which every event's only effect is one cross-shard send.
func probeSim(m metricSet, scale func(int) int) {
	tick := func(p sim.Proc, pending, events int) {
		n := 0
		var fn func()
		fn = func() {
			if n++; n+pending <= events {
				p.After(sim.Time(pending), fn)
			}
		}
		for i := 0; i < pending; i++ {
			p.After(sim.Time(i+1), fn)
		}
	}
	events := scale(1_000_000)
	for _, c := range []struct {
		name    string
		pending int
	}{{"sim.single_ns_per_event_d1", 1}, {"sim.single_ns_per_event_d4k", 4096}} {
		m.set(c.name, perOp(func() int {
			var eng sim.Engine
			tick(&eng, c.pending, events)
			eng.Run()
			return int(eng.Processed())
		}))
	}
	m.set("sim.proc1_ns_per_event", perOp(func() int {
		p, err := sim.NewParallel(1, []int{0}, 10)
		if err != nil {
			panic(err)
		}
		tick(p.Proc(0), 1, events)
		p.Run()
		return int(p.Processed())
	}))
	sends := scale(200_000)
	m.set("sim.xshard_ns_per_send", perOp(func() int {
		const look = sim.Time(10)
		p, err := sim.NewParallel(2, []int{0, 1}, look)
		if err != nil {
			panic(err)
		}
		// One chain started on each shard, so both shards are busy in
		// every window and each window pays the full handoff; a single
		// chain would run inline on the coordinator.
		procs := [2]sim.Proc{p.Proc(0), p.Proc(1)}
		var n [2]int // n[s] is touched by shard s only
		var fns [2]func()
		for s := range fns {
			fns[s] = func() {
				if n[s]++; n[s] < sends/2 {
					p.Cross(s, 1-s, procs[s].Now()+look, fns[1-s])
				}
			}
			procs[s].At(0, fns[s])
		}
		p.Run()
		return n[0] + n[1]
	}))
}

// probeNetsim sends messages of one hop type through netsim.New on a bare
// Engine, with a counting stub as the application: each delivery sends the
// next message, so a fixed number stay in flight and the queues stay
// shallow, as they are in a run. Messages are one default slice (200 KB).
func probeNetsim(m metricSet, scale func(int) int) {
	const n, rackSize, inflight = 64, 16, 64
	const bytes = 200_000
	msgs := scale(20_000)
	flat := netsim.DefaultConfig(1.5)
	flat.Egress = "p3"
	racks := flat
	racks.Topology = netsim.Topology{RackSize: rackSize, CoreOversub: 4, CoreSched: "damped", Pods: 2, SpineOversub: 4, SpineSched: "damped"}
	preempt := flat
	preempt.PreemptQuantum = netsim.DefaultPreemptQuantum

	// hop maps a sender to the receiver that makes the message cross exactly
	// the named tier.
	cases := []struct {
		name string
		cfg  netsim.Config
		hop  func(from int) int
		agg  bool
	}{
		{"netsim.host", flat, func(from int) int { return (from + 1) % n }, false},
		{"netsim.tor", racks, func(from int) int { return from ^ rackSize }, false},    // the other rack of the same pod
		{"netsim.spine", racks, func(from int) int { return (from + n/2) % n }, false}, // the same slot in the other pod
		{"netsim.agg", racks, nil, true},
		{"netsim.preempt", preempt, func(from int) int { return (from + 1) % n }, false},
	}
	for _, c := range cases {
		var events float64
		ns := perOp(func() int {
			var eng sim.Engine
			var nw *netsim.Network
			sent := 0
			send := func(from int) {
				if sent >= msgs {
					return
				}
				sent++
				msg := netsim.Message{From: from, Bytes: bytes, Priority: int32(sent % 8)}
				if c.agg {
					msg.ToAgg, msg.To = true, from/rackSize
				} else {
					msg.To = c.hop(from)
				}
				nw.Send(msg)
			}
			cfg := c.cfg
			if c.agg {
				// To the rack's aggregator, which fans the message out to
				// its rack; the sender's own copy triggers the next send.
				cfg.Aggregation = true
				cfg.AggDeliver = func(tier, idx int, msg netsim.Message) { nw.AggFanout(tier, idx, msg, -1) }
			}
			nw = netsim.New(&eng, n, cfg, func(msg netsim.Message) {
				if !c.agg || msg.To == msg.From {
					send(msg.To)
				}
			}, nil)
			for i := 0; i < inflight; i++ {
				send(i % n)
			}
			eng.Run()
			events = float64(eng.Processed()) / float64(sent)
			return sent
		})
		m.set(c.name+"_ns_per_msg", ns)
		if c.name != "netsim.preempt" {
			m.set(c.name+"_events_per_msg", events)
		}
	}
}

// probeSched: steady-state PopReady/Done/Push on sched.NewQueue, and
// Push/Pop on the plain pq heap. Allocations are counted over one untimed
// round of each queue.
func probeSched(m metricSet, scale func(int) int) {
	ops := scale(100_000)
	ident := func(it sched.Item) sched.Item { return it }
	fill := func(q *sched.Queue[sched.Item], flows int, minPri int32) {
		for i := 0; i < flows*4; i++ {
			q.Push(sched.Item{Priority: minPri + int32(i%8), Bytes: int64(256 + (i*131)%1024), Dest: int32(i % flows)})
		}
	}
	cycle := func(q *sched.Queue[sched.Item]) int {
		for i := 0; i < ops; i++ {
			v, ok := q.PopReady()
			if !ok {
				panic("sched probe: nothing admissible")
			}
			q.Done(v)
			q.Push(v)
		}
		return ops
	}
	var mallocs uint64
	dispatch := func(name, disc string, flows int, blocked bool) {
		q := sched.NewQueue(sched.MustByName(disc), ident)
		if blocked {
			// The most urgent flow is never acknowledged, so every
			// dispatch walks past its refused head.
			hog := sched.Item{Priority: 0, Bytes: 480, Dest: int32(flows + 1)}
			q.Push(hog)
			q.PopReady()
			q.Push(hog)
		}
		fill(q, flows, 1)
		cycle(q) // grow the heaps and the free list before counting
		before := readMem().mallocs
		cycle(q)
		mallocs += readMem().mallocs - before
		m.set(name, perOp(func() int { return cycle(q) }))
	}
	dispatch("sched.ungated_ns_per_dispatch_64f", "p3", 64, false)
	dispatch("sched.ungated_ns_per_dispatch_2f", "p3", 2, false)
	dispatch("sched.damped_ns_per_dispatch_64f", "damped", 64, false)
	dispatch("sched.gated_ns_per_dispatch_64f", "credit", 64, false)
	dispatch("sched.blocked_ns_per_dispatch_64f", "credit-adaptive:512", 64, true)
	m.set("sched.allocs_per_dispatch", float64(mallocs)/float64(5*ops))

	h := pq.New(func(a, b int) bool { return a < b })
	for i := 0; i < 1024; i++ {
		h.Push(i * 7919 % 1024)
	}
	m.set("pq.ns_per_pushpop", perOp(func() int {
		for i := 0; i < ops; i++ {
			h.Push(h.Pop() + 1024)
		}
		return ops
	}))
}

// probeCluster: the cost of a cluster.Run that does not grow with the
// iterations — the intercept of wall time at 1 and at 3 measured iterations
// (after 1 warm-up) of resnet50 on 4 machines — and what a trace.Recorder
// adds to a vgg19 run.
func probeCluster(m metricSet, smoke bool) {
	reps := probeReps
	if smoke {
		reps = 1
	}
	wall := func(cfg cluster.Config) float64 {
		t0 := now()
		cluster.Run(cfg)
		return float64(since(t0)) / 1e6
	}
	resnet := cluster.Config{Model: zoo.ByName("resnet50"), Machines: 4, Strategy: strategy.P3(0), BandwidthGbps: 4, WarmupIters: 1, Seed: 1}
	vgg := cluster.Config{Model: zoo.ByName("vgg19"), Machines: 4, Strategy: strategy.P3(0), BandwidthGbps: 15, WarmupIters: 1, MeasureIters: 3, Seed: 1}
	// Fastest of the repetitions: the intercept is a small difference of
	// two walls, and interference only ever adds to a wall.
	var w1, w3, bare, recorded []float64
	for i := 0; i < reps; i++ {
		resnet.MeasureIters = 1
		w1 = append(w1, wall(resnet)) // fixed + 2 iterations
		resnet.MeasureIters = 3
		w3 = append(w3, wall(resnet)) // fixed + 4 iterations

		vgg.Recorder = nil
		bare = append(bare, wall(vgg))
		vgg.Recorder = trace.NewRecorder(4, 0)
		recorded = append(recorded, wall(vgg))
	}
	m.set("cluster.fixed_ms_per_run", 2*quantile(w1, 0)-quantile(w3, 0))
	m.set("trace.recorder_overhead_pct", 100*(quantile(recorded, 0)/quantile(bare, 0)-1))
}

// probeFaultPlan: generate, validate, encode and decode a scripted plan for
// a 64-machine rack-aggregated two-tier cluster.
func probeFaultPlan(m metricSet) {
	topo := netsim.Topology{RackSize: 16, CoreOversub: 4, Pods: 2}
	const trips = 200
	m.set("faults.plan_roundtrip_us", perOp(func() int {
		for i := 0; i < trips; i++ {
			p := faults.Scripted(int64(i), 64, topo, true, true, 0)
			if err := p.Validate(64, topo); err != nil {
				panic(err)
			}
			buf, err := p.Encode()
			if err != nil {
				panic(err)
			}
			if _, err := faults.Decode(buf); err != nil {
				panic(err)
			}
		}
		return trips
	})/1e3)
}

// probeStrategy: partitioning and profiling resnet50 for 64 servers.
func probeStrategy(m metricSet) {
	model := zoo.ByName("resnet50")
	const reps = 50
	m.set("strategy.partition_us", perOp(func() int {
		for i := 0; i < reps; i++ {
			strategy.P3(0).Partition(model, 64)
		}
		return reps
	})/1e3)
	m.set("strategy.profile_us", perOp(func() int {
		for i := 0; i < reps; i++ {
			strategy.ComputeProfile(model, 1.5)
		}
		return reps
	})/1e3)
}

// probeTransport: frame encode into a discarding FrameWriter, decode from
// memory, and the SendQueue under 1 and 2 producers with one consumer.
func probeTransport(m metricSet, scale func(int) int) {
	small := &transport.Frame{Type: transport.TypePush, Key: 7, Values: make([]float32, 16)}     // 64 B payload
	large := &transport.Frame{Type: transport.TypePush, Key: 7, Values: make([]float32, 50_000)} // 200 KB payload
	nSmall, nLarge := scale(500_000), scale(1_000)
	mbps := func(nsPerFrame float64, f *transport.Frame) float64 {
		return float64(4*len(f.Values)) / nsPerFrame * 1e3 // bytes/ns -> MB/s
	}
	encode := func(f *transport.Frame, n int) float64 {
		return perOp(func() int {
			w := transport.NewFrameWriter(io.Discard)
			for i := 0; i < n; i++ {
				if err := transport.WriteFrame(w, f); err != nil {
					panic(err)
				}
			}
			if err := w.Flush(); err != nil {
				panic(err)
			}
			return n
		})
	}
	m.set("transport.encode_ns_per_frame_64B", encode(small, nSmall))
	m.set("transport.encode_MBps_200KB", mbps(encode(large, nLarge), large))

	decode := func(f *transport.Frame, n int) (ns, allocs float64) {
		var wire bytes.Buffer
		w := bufio.NewWriter(&wire)
		for i := 0; i < n; i++ {
			if err := transport.WriteFrame(w, f); err != nil {
				panic(err)
			}
		}
		if err := w.Flush(); err != nil {
			panic(err)
		}
		before := readMem().mallocs
		ns = perOp(func() int {
			r := transport.NewFrameReader(bytes.NewReader(wire.Bytes()))
			for i := 0; i < n; i++ {
				if _, err := transport.ReadFrame(r); err != nil {
					panic(err)
				}
			}
			return n
		})
		return ns, float64(readMem().mallocs-before) / float64(probeReps*n)
	}
	// A tenth of the encode count: the decode probe holds its input in memory.
	ns, allocs := decode(small, nSmall/10)
	m.set("transport.decode_ns_per_frame_64B", ns)
	m.set("transport.decode_allocs_per_frame", allocs)
	ns, _ = decode(large, nLarge/10)
	m.set("transport.decode_MBps_200KB", mbps(ns, large))

	frames := scale(50_000)
	queue := func(disc string, producers int) float64 {
		return perOp(func() int {
			q := transport.NewSendQueue(sched.MustByName(disc))
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < frames/producers; i++ {
						q.Push(&transport.Frame{Type: transport.TypePush, Priority: int32(i % 16), Dst: uint8(i % 4), Values: small.Values})
					}
				}()
			}
			got := 0
			for got < frames/producers*producers {
				f, ok := q.Pop()
				if !ok {
					panic("transport probe: queue closed")
				}
				q.Done(f)
				got++
			}
			wg.Wait()
			q.Close()
			return got
		})
	}
	m.set("transport.sendqueue_ns_per_op_1p", queue("p3", 1))
	m.set("transport.sendqueue_ns_per_op_2p", queue("p3", 2))
	m.set("transport.sendqueue_credit_ns_per_op_1p", queue("credit:1048576", 1))
	m.set("transport.sendqueue_credit_ns_per_op_2p", queue("credit:1048576", 2))
}
