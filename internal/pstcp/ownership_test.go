package pstcp

import (
	"bytes"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"p3/internal/core"
	"p3/internal/transport"
	"p3/internal/zoo"
)

// outstanding reports the server buffers handed out and not yet back on the
// free list, and the bytes the free list holds.
func (s *Server) outstanding() (out int, freeBytes int64) {
	s.bufs.mu.Lock()
	defer s.bufs.mu.Unlock()
	for _, made := range s.bufs.made {
		out += made
	}
	for n, l := range s.bufs.free {
		for _, b := range l {
			if len(b) != n {
				panic("free list holds a buffer under the wrong length")
			}
		}
		out -= len(l)
		freeBytes += 4 * int64(n) * int64(len(l))
	}
	return out, freeBytes
}

// waitAllBack waits until every server buffer is back on the free list. The
// last release trails the last Data a worker handles by the send loop's
// return from Flush, hence a wait and not an immediate check.
func waitAllBack(t *testing.T, srv *Server) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool { out, _ := srv.outstanding(); return out == 0 })
}

// TestHandlerValuesValidUntilNextDataForKey pins the Handler contract from
// both sides: a handler that retains f.Values without copying sees the next
// iteration's values in the same buffer (so retaining needs a copy), and a
// Data frame for another key leaves it alone.
func TestHandlerValuesValidUntilNextDataForKey(t *testing.T) {
	type seen struct {
		key  uint64
		vals []float32 // retained, not copied
	}
	got := make(chan seen, 4)
	tc := startCluster(t, 1, 1, "p3", SGDUpdater(1), func(_ int, f *transport.Frame) {
		got <- seen{f.Key, f.Values}
	})
	recv := func() seen {
		select {
		case s := <-got:
			return s
		case <-time.After(3 * time.Second):
			t.Fatal("no broadcast")
			panic("unreachable")
		}
	}
	wk := tc.workers[0]
	wk.Push(0, 1, 0, 0, []float32{1, 2}) // zero-initialised key: 0 - grad
	first := recv()
	if first.vals[0] != -1 || first.vals[1] != -2 {
		t.Fatalf("iteration 0 = %v, want [-1 -2]", first.vals)
	}
	wk.Push(0, 2, 0, 0, []float32{7, 7})
	if other := recv(); &other.vals[0] == &first.vals[0] || first.vals[0] != -1 {
		t.Fatalf("Data for key 2 disturbed the buffer held for key 1: %v", first.vals)
	}
	wk.Push(0, 1, 1, 0, []float32{1, 2})
	second := recv()
	if &second.vals[0] != &first.vals[0] {
		t.Fatal("second Data for key 1 was decoded into a fresh buffer, not the one the worker holds")
	}
	if first.vals[0] != -2 || first.vals[1] != -4 {
		t.Fatalf("retained slice reads %v after iteration 1, want its values [-2 -4]", first.vals)
	}
}

// TestMismatchedPushIsDiscardedUnread: a Push whose value count disagrees
// with the key's stored shape takes no buffer — its body is discarded off
// the wire and the drop counted — and the connection stays usable for the
// good push behind it.
func TestMismatchedPushIsDiscardedUnread(t *testing.T) {
	got := make(chan []float32, 2)
	tc := startCluster(t, 1, 1, "fifo", SGDUpdater(1), func(_ int, f *transport.Frame) {
		got <- append([]float32(nil), f.Values...) // copied: read after later Data for the key
	})
	srv, wk := tc.servers[0], tc.workers[0]
	recv := func(what string) []float32 {
		select {
		case v := <-got:
			return v
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: no answer", what)
			return nil
		}
	}
	wk.Init(0, 3, []float32{10, 20, 30, 40})
	wk.Pull(0, 3, -1, 0) // same connection, fifo: answered after the Init landed
	recv("pull after init")

	wk.Push(0, 3, 0, 0, make([]float32, 1000)) // wrong shape
	wk.Push(0, 3, 0, 0, []float32{1, 2, 3, 4})
	if v := recv("good push behind a mismatched one"); v[0] != 9 || v[3] != 36 {
		t.Fatalf("update = %v, want [9 18 27 36]", v)
	}
	srv.mu.Lock()
	drops := srv.drops
	srv.mu.Unlock()
	if drops != 1 {
		t.Fatalf("server counted %d shape drops, want 1", drops)
	}
	if p, u := srv.Stats(); p != 1 || u != 1 {
		t.Fatalf("pushes=%d updates=%d, want 1/1: the mismatched push must not count", p, u)
	}
	if wk.Reconnects() != 0 {
		t.Fatal("the mismatched push cost the connection")
	}
	waitAllBack(t, srv)
	srv.bufs.mu.Lock()
	defer srv.bufs.mu.Unlock()
	if n := len(srv.bufs.free[1000]); n != 0 {
		t.Fatalf("the refused body was given %d buffer(s)", n)
	}
}

// TestTruncatedBodyReturnsItsBufferWhole: a connection that dies mid-body
// hands the buffer it was decoding into back to the free list at its full
// length, never a poisoned shorter one.
func TestTruncatedBodyReturnsItsBufferWhole(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 1, Sched: "fifo", Updater: SGDUpdater(1)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A whole push, so the list has something a poisoned entry would sit beside.
	w := transport.NewFrameWriter(raw)
	transport.WriteFrame(w, &transport.Frame{Type: transport.TypePush, Key: 8, Values: make([]float32, 1000)})
	w.Flush()
	// Then a push for a new key, cut after a hundred of its 500 values.
	var wire bytes.Buffer
	transport.WriteFrame(&wire, &transport.Frame{Type: transport.TypePush, Key: 9, Values: make([]float32, 500)})
	raw.Write(wire.Bytes()[:26+400])
	raw.Close()

	// The cut body's buffer can only be on the list if the read loop took
	// it and gave it back; outstanding panics if it is filed under 100.
	waitFor(t, 5*time.Second, func() bool {
		out, free := srv.outstanding()
		return out == 0 && free == 4*1000+4*500
	})
	if p, _ := srv.Stats(); p != 1 {
		t.Fatalf("server counted %d pushes, want 1: the cut frame must not be processed", p)
	}
}

// steadyCluster is two workers and one server moving resnet110's slices,
// with a handler that counts the iteration's Data frames per worker.
type steadyCluster struct {
	t       *testing.T
	srv     *Server
	workers []*Worker
	plan    *core.Plan
	grads   [][]float32
	bytes   int64 // pushed per iteration, all workers

	mu   sync.Mutex
	iter int32
	left []int
	done chan struct{} // one token per worker per completed iteration
	ack  chan struct{} // one token per barrier Pull answered
}

const barrierIter = math.MinInt32

func newSteadyCluster(t *testing.T, sched string) *steadyCluster {
	t.Helper()
	m := zoo.ByName("resnet110")
	c := &steadyCluster{t: t, plan: core.PartitionSlices(m, 0, 1), left: make([]int, 2),
		done: make(chan struct{}, 2), ack: make(chan struct{}, 2)}
	for _, ch := range c.plan.Chunks {
		g := make([]float32, ch.Params)
		for i := range g {
			g[i] = float32(i%7 - 3)
		}
		c.grads = append(c.grads, g)
	}
	c.bytes = 2 * m.TotalBytes()
	c.srv = NewServer(ServerConfig{Workers: 2, Sched: sched, Updater: SGDUpdater(0.5)})
	addr, err := c.srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.srv.Close)
	for w := 0; w < 2; w++ {
		w := w
		wk, err := DialWorkerCfg(WorkerConfig{ID: w, Servers: []string{addr}, Sched: sched,
			Reconnect: ReconnectConfig{MaxAttempts: 100, MaxDelay: 100 * time.Millisecond},
			Handler: func(f *transport.Frame) {
				if f.Type != transport.TypeData {
					return
				}
				if f.Iter == barrierIter {
					c.ack <- struct{}{}
					return
				}
				c.mu.Lock()
				fin := false
				if f.Iter == c.iter {
					c.left[w]--
					fin = c.left[w] == 0
				}
				c.mu.Unlock()
				if fin {
					c.done <- struct{}{}
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(wk.Close)
		c.workers = append(c.workers, wk)
	}
	for _, ch := range c.plan.Chunks {
		c.workers[0].Init(0, uint64(ch.ID), c.grads[ch.ID])
	}
	c.barrier()
	return c
}

// barrier returns once the server has processed everything each worker sent
// before it: a least-urgent Pull crosses both priority queues behind every
// earlier frame of its connection. One worker at a time, worker 0 first: its
// Inits must have landed before another connection's Pull can be answered.
func (c *steadyCluster) barrier() {
	c.t.Helper()
	for _, wk := range c.workers {
		wk.Pull(0, 0, barrierIter, math.MaxInt32/2)
		c.await(c.ack, 1, "barrier")
	}
}

func (c *steadyCluster) await(ch chan struct{}, n int, what string) {
	c.t.Helper()
	for ; n > 0; n-- {
		select {
		case <-ch:
		case <-time.After(20 * time.Second):
			c.t.Fatalf("%s not complete", what)
		}
	}
}

// push queues iteration it on every worker, last layer first.
func (c *steadyCluster) push(it int32) {
	c.mu.Lock()
	c.iter = it
	for w := range c.left {
		c.left[w] = c.plan.NumChunks()
	}
	c.mu.Unlock()
	for i := c.plan.NumChunks() - 1; i >= 0; i-- {
		ch := c.plan.Chunks[i]
		for _, wk := range c.workers {
			wk.Push(0, uint64(ch.ID), it, int32(ch.Priority), c.grads[ch.ID])
		}
	}
}

func (c *steadyCluster) iterate(it int32) {
	c.t.Helper()
	c.push(it)
	c.await(c.done, len(c.workers), "iteration")
}

// TestSteadyStateAllocatesNoPayload: after two warm-up iterations the whole
// process — server, both workers, this harness — allocates in a typical
// iteration at most 5 % of the bytes it pushes, every server buffer is back on the free
// list once the iteration's last Data has been handled, and the free list
// holds no more than can be in flight at once: every worker's push of every
// key plus one snapshot of every key.
func TestSteadyStateAllocatesNoPayload(t *testing.T) {
	for _, sched := range []string{"p3", "credit:1048576"} {
		t.Run(sched, func(t *testing.T) {
			c := newSteadyCluster(t, sched)
			c.iterate(0)
			c.iterate(1)
			waitAllBack(t, c.srv)
			var before, after runtime.MemStats
			var perIter []int64
			for it := int32(2); it < 9; it++ {
				runtime.ReadMemStats(&before)
				c.iterate(it)
				waitAllBack(t, c.srv)
				runtime.ReadMemStats(&after)
				perIter = append(perIter, int64(after.TotalAlloc-before.TotalAlloc))
			}
			// The median: an iteration in which more bodies of one length were
			// in flight at once than ever before grows the free list towards
			// its high-water mark, which is first-use growth, not steady state.
			sort.Slice(perIter, func(i, j int) bool { return perIter[i] < perIter[j] })
			median := perIter[len(perIter)/2]
			t.Logf("%s: %d bytes allocated per iteration (median of %v) for %d pushed", sched, median, perIter, c.bytes)
			if !raceEnabled && median > c.bytes/20 {
				t.Errorf("steady state allocates %d bytes per iteration, more than 5%% of the %d pushed", median, c.bytes)
			}
			if _, free := c.srv.outstanding(); free > c.bytes*3/2 {
				t.Errorf("free list holds %d bytes, more than the %d that can be in flight at once", free, c.bytes*3/2)
			}
			for _, wk := range c.workers {
				if wk.Reconnects() != 0 {
					t.Errorf("worker reconnected %d times", wk.Reconnects())
				}
			}
		})
	}
}

// TestBuffersConservedAcrossReconnect kills one worker's connection in the
// middle of an iteration: bodies cut short, pushes retried as duplicates and
// broadcasts queued for the dead connection must all give their buffers
// back, and the next iteration must run clean on the fresh connection.
func TestBuffersConservedAcrossReconnect(t *testing.T) {
	for _, sched := range []string{"p3", "credit:1048576"} {
		t.Run(sched, func(t *testing.T) {
			c := newSteadyCluster(t, sched)
			c.iterate(0)
			c.push(1)
			li := c.workers[1].links[0]
			li.mu.Lock()
			li.conn.Close() // mid-iteration: the send loop is still draining iteration 1
			li.mu.Unlock()
			waitFor(t, 5*time.Second, func() bool { return c.workers[1].Reconnects() >= 1 })
			// Iteration 1 cannot complete (pushes in the dead socket's buffer
			// are gone); wait for what is left of it to drain through.
			waitFor(t, 5*time.Second, func() bool {
				return c.workers[0].QueuedSends() == 0 && c.workers[1].QueuedSends() == 0
			})
			c.barrier()
			waitAllBack(t, c.srv)
			for len(c.done) > 0 {
				<-c.done // iteration 1 may have completed on one worker after all
			}

			c.iterate(2)
			waitAllBack(t, c.srv)
			if _, free := c.srv.outstanding(); free > c.bytes*3/2 {
				t.Errorf("free list holds %d bytes, more than the %d that can be in flight at once", free, c.bytes*3/2)
			}
		})
	}
}
