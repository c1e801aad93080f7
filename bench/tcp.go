package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"p3/internal/cluster"
	"p3/internal/core"
	"p3/internal/model"
	"p3/internal/pstcp"
	"p3/internal/strategy"
	"p3/internal/transport"
	"p3/internal/zoo"
)

// tcpSpec is the fixed input of one TCP workload.
type tcpSpec struct {
	name  string
	model string
	slice int64  // maximum slice size in parameters (0 = the paper's 50,000)
	sched string // queue discipline of workers and server
	// values are the seed-derived gradient values, one per model parameter;
	// inputs fills them before anything is timed.
	values []float32
}

var (
	tcpBulk  = tcpSpec{name: "tcp_bulk", model: "resnet50", slice: 0, sched: "p3"}
	tcpSmall = tcpSpec{name: "tcp_small", model: "resnet110", slice: 1024, sched: "credit:1048576"}
)

const (
	// tcpLR with the integer-valued gradients below keeps every parameter a
	// multiple of 0.5 far inside float32's exact range, so the value a
	// worker must hold after k iterations has a closed form that float32
	// arithmetic in any order reproduces bit for bit.
	tcpLR = 0.5
	// initIter tags the Pull that confirms Init landed.
	initIter = -1
	// iterDeadline bounds one iteration (and the Init round-trip).
	iterDeadline = 30 * time.Second
)

// tcpInstance is one in-process parameter server and its workers on
// loopback. Every worker pushes the same seed-derived gradient for a key, so
// the mean gradient is that gradient; the initial parameters are the same
// values again, which keeps the inputs to one buffer per key.
type tcpInstance struct {
	spec    *tcpSpec
	model   *model.Model
	plan    *core.Plan
	srv     *pstcp.Server
	workers []*pstcp.Worker
	grads   [][]float32 // per chunk
	dialMs  float64
	iters   int32 // iterations run so far
	broken  bool  // an iteration missed its deadline: nothing further can be trusted

	initAck chan struct{}
	done    chan struct{} // one token per worker per iteration

	mu         sync.Mutex
	cur        int32         // iteration in flight
	left       []int         // per worker: Data frames still expected
	layer0Left int           // worker 0: Data frames of layer 0 still expected
	firstAt    time.Time     // worker 0: when layer 0 was complete
	last       [][][]float32 // [worker][chunk]: values most recently received
	stale      int           // Data frames of another iteration
	timing     bool          // traced pass: per-key Push -> Data latencies are taken
	pushedAt   []time.Time   // per chunk, worker 0
	dataAt     []time.Time
	keyLatUs   []float64
}

// modelName is the zoo model the workload moves: the smallest one at test
// scale (7 MB, not 102).
func (s *tcpSpec) modelName(e *env) string {
	if e.smoke {
		return "resnet110"
	}
	return s.model
}

// inputs generates the gradient values from the seed: small integers (see
// tcpLR). They are the benchmark's input, not the program's set-up, so they
// are made before the clock starts.
func (s *tcpSpec) inputs(e *env) {
	rng := rand.New(rand.NewPCG(uint64(e.seed), 0x9e3779b97f4a7c15))
	s.values = make([]float32, zoo.ByName(s.modelName(e)).TotalParams())
	for i := range s.values {
		s.values[i] = float32(rng.IntN(17) - 8)
	}
}

// setup starts the server, dials the workers and uploads the initial values.
func (spec *tcpSpec) setup(e *env, tr *tracer, parent int) (instance, error) {
	t := &tcpInstance{spec: spec}
	t.model = buildModel(tr, parent, spec.modelName(e))
	tr.in("core.PartitionSlices", parent, func(int) { t.plan = core.PartitionSlices(t.model, spec.slice, 1) })
	t.grads = make([][]float32, t.plan.NumChunks())
	var off int64
	for i, c := range t.plan.Chunks {
		t.grads[i] = spec.values[off : off+c.Params]
		off += c.Params
	}
	// One worker connection per core, at most two: the load generator must
	// not outnumber the processors it shares with the server.
	nw := runtime.NumCPU()
	if nw > 2 {
		nw = 2
	}
	t.left = make([]int, nw)
	t.last = make([][][]float32, nw)
	for w := range t.last {
		t.last[w] = make([][]float32, t.plan.NumChunks())
	}
	t.pushedAt = make([]time.Time, t.plan.NumChunks())
	t.dataAt = make([]time.Time, t.plan.NumChunks())
	t.initAck = make(chan struct{}, 1)
	t.done = make(chan struct{}, nw) // sized to the sends of one iteration

	t.srv = pstcp.NewServer(pstcp.ServerConfig{Workers: nw, Sched: spec.sched, Updater: pstcp.SGDUpdater(tcpLR)})
	var addr string
	var err error
	tr.in("Server.Start", parent, func(int) { addr, err = t.srv.Start("127.0.0.1:0") })
	if err != nil {
		return nil, err
	}
	t0 := now()
	for w := 0; w < nw && err == nil; w++ {
		tr.in("DialWorker", parent, func(int) {
			var wk *pstcp.Worker
			wk, err = pstcp.DialWorker(w, []string{addr}, spec.sched, t.handler(w))
			if err == nil {
				t.workers = append(t.workers, wk)
			}
		})
	}
	t.dialMs = float64(since(t0)) / 1e6
	if err != nil {
		t.close()
		return nil, err
	}
	tr.in("Init", parent, func(int) { err = t.init() })
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// init uploads every key from worker 0 and confirms arrival with a Pull
// round-trip: the Pull is the least urgent frame on the same connection, so
// both priority queues it crosses release it after every Init.
func (t *tcpInstance) init() error {
	w0 := t.workers[0]
	for _, c := range t.plan.Chunks {
		w0.Init(c.Server, uint64(c.ID), t.grads[c.ID])
	}
	last := t.plan.Chunks[t.plan.NumChunks()-1]
	w0.Pull(last.Server, uint64(last.ID), initIter, math.MaxInt32/2)
	return t.await(t.initAck, 1, "Init round-trip")
}

// await takes n tokens from ch within the deadline.
func (t *tcpInstance) await(ch <-chan struct{}, n int, what string) error {
	timer := time.NewTimer(iterDeadline) //p3:wallclock-ok a real socket needs a real deadline
	defer timer.Stop()
	for i := 0; i < n; i++ {
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("%s: %s not complete after %v", t.spec.name, what, iterDeadline)
		}
	}
	return nil
}

// handler returns worker w's Data callback; it runs on that worker's one
// read goroutine.
func (t *tcpInstance) handler(w int) pstcp.Handler {
	return func(f *transport.Frame) {
		if f.Type != transport.TypeData {
			return
		}
		if f.Iter == initIter {
			t.initAck <- struct{}{}
			return
		}
		t.mu.Lock()
		if f.Iter != t.cur || f.Key >= uint64(len(t.grads)) {
			t.stale++
			t.mu.Unlock()
			return
		}
		t.last[w][f.Key] = f.Values
		t.left[w]--
		fin := t.left[w] == 0
		if w == 0 {
			if t.timing {
				t.dataAt[f.Key] = now()
			}
			if t.plan.Chunks[f.Key].Layer == 0 {
				if t.layer0Left--; t.layer0Left == 0 {
					t.firstAt = now()
				}
			}
		}
		t.mu.Unlock()
		if fin {
			t.done <- struct{}{}
		}
	}
}

// pass is one iteration: every worker pushes every layer in backpropagation
// order (last layer first; the discipline is what reorders the wire), then
// the iteration waits until every worker holds every updated slice.
func (t *tcpInstance) pass(tr *tracer, parent int, ck *checker) passOut {
	if t.broken {
		return passOut{}
	}
	it := t.iters
	t.iters++
	nc := t.plan.NumChunks()
	t.mu.Lock()
	t.cur = it
	for w := range t.left {
		t.left[w] = nc
	}
	t.layer0Left = len(t.plan.LayerChunks(0))
	t.timing = tr != nil
	t.mu.Unlock()

	iterSpan := tr.begin(fmt.Sprintf("iter[%d]", it), parent)
	start := now()
	pushSpan := tr.begin("push_phase", iterSpan)
	for l := len(t.model.Layers) - 1; l >= 0; l-- {
		for _, cid := range t.plan.LayerChunks(l) {
			c := t.plan.Chunks[cid]
			if tr != nil {
				t.mu.Lock()
				t.pushedAt[cid] = now()
				t.mu.Unlock()
			}
			for _, wk := range t.workers {
				wk.Push(c.Server, uint64(cid), it, int32(c.Priority), t.grads[cid])
			}
		}
	}
	tr.end(pushSpan)
	err := t.await(t.done, len(t.workers), fmt.Sprintf("iteration %d", it))
	end := now()
	ck.check(err == nil, "%v", err)
	if err != nil {
		t.broken = true
		return passOut{}
	}
	t.mu.Lock()
	first := t.firstAt
	if tr != nil {
		// Per-key spans for the first traced iterations only: they are what
		// a reader opens the trace file for, and ten iterations show them.
		keep := len(t.keyLatUs) < 10*nc
		for cid := range t.pushedAt {
			t.keyLatUs = append(t.keyLatUs, float64(t.dataAt[cid].Sub(t.pushedAt[cid]).Nanoseconds())/1e3)
			if keep {
				tr.add(fmt.Sprintf("key[%d]", cid), iterSpan, t.pushedAt[cid], t.dataAt[cid])
			}
		}
	}
	t.mu.Unlock()
	tr.add("first_layer_ready", iterSpan, start, first)
	tr.add("all_ready", iterSpan, start, end)
	tr.end(iterSpan)
	nwk := int64(len(t.workers))
	return passOut{
		firstNs: first.Sub(start).Nanoseconds(),
		frames:  2 * nwk * int64(nc),
		payload: 2 * nwk * t.model.TotalBytes(),
	}
}

// finish checks what only the end of the run can show: the values, the
// server's counters, and that no connection was re-established.
func (t *tcpInstance) finish(ck *checker) {
	if t.broken {
		return
	}
	k := float32(t.iters)
	t.mu.Lock()
	defer t.mu.Unlock()
	ck.check(t.stale == 0, "%s: %d Data frames of another iteration", t.spec.name, t.stale)
	for w := range t.last {
		for cid, got := range t.last[w] {
			g := t.grads[cid]
			ok := len(got) == len(g)
			for i := 0; ok && i < len(g); i++ {
				// init - lr * k * mean(grad), with init == grad == mean(grad)
				ok = got[i] == g[i]-tcpLR*k*g[i]
			}
			ck.check(ok, "%s: worker %d key %d does not hold init - lr*%d*mean(grad)", t.spec.name, w, cid, t.iters)
		}
	}
	pushes, updates := t.srv.Stats()
	nwk, nc := int64(len(t.workers)), int64(t.plan.NumChunks())
	ck.check(pushes == nwk*nc*int64(t.iters), "%s: server counted %d pushes, want %d", t.spec.name, pushes, nwk*nc*int64(t.iters))
	ck.check(updates == nc*int64(t.iters), "%s: server counted %d updates, want %d", t.spec.name, updates, nc*int64(t.iters))
	for w, wk := range t.workers {
		ck.check(wk.Reconnects() == 0, "%s: worker %d reconnected %d times", t.spec.name, w, wk.Reconnects())
	}
}

// layerStats adds the pstcp numbers the instance itself holds.
func (t *tcpInstance) layerStats(m metricSet) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m.set("pstcp.dial_ms", t.dialMs)
	m.set("pstcp.push_to_data_us_p50", quantile(t.keyLatUs, 0.5))
	m.set("pstcp.push_to_data_us_p90", quantile(t.keyLatUs, 0.9))
	var rec int64
	for _, wk := range t.workers {
		rec += wk.Reconnects()
	}
	m.set("pstcp.reconnects", float64(rec))
	pushes, updates := t.srv.Stats()
	m.set("pstcp.server_pushes", float64(pushes))
	m.set("pstcp.server_updates", float64(updates))
}

// simTwin is the simulator's own answer for this cell — same model, slice
// size, discipline and worker count, one server, a nominal 10 Gbps — in
// simulated samples/s/machine. It is what sim_samples_per_s carries on the
// TCP workloads: the socket measurement's deterministic twin.
func (t *tcpInstance) simTwin(seed int64) float64 {
	st, err := strategy.P3(t.spec.slice).WithSched(t.spec.sched)
	if err != nil {
		return 0
	}
	r := cluster.Run(cluster.Config{
		Model: t.model, Machines: len(t.workers), Servers: 1, Strategy: st,
		BandwidthGbps: 10, WarmupIters: 1, MeasureIters: 3, Seed: seed,
	})
	return r.Throughput / float64(r.Machines)
}

func (t *tcpInstance) close() {
	for _, wk := range t.workers {
		wk.Close()
	}
	if t.srv != nil {
		t.srv.Close()
	}
}
