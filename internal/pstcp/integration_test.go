package pstcp

import (
	"net"
	"sync"
	"testing"
	"time"

	"p3/internal/core"
	"p3/internal/data"
	"p3/internal/nn"
	"p3/internal/train"
	"p3/internal/transport"
)

// TestDistributedTrainingEndToEnd trains a real network through the real
// TCP parameter server on loopback: N worker goroutines slice gradients,
// push them priority-ordered, wait for the immediate broadcasts, and
// install. Asserts (a) the loss falls, (b) all replicas end bit-identical —
// i.e., the wire protocol implements synchronous SGD faithfully.
func TestDistributedTrainingEndToEnd(t *testing.T) {
	const (
		nServers = 2
		nWorkers = 3
		iters    = 40
		batch    = 8
		lr       = 0.02
	)
	set := data.Generate(data.Config{Samples: 300, Features: 16, Classes: 3, Noise: 1.0, Seed: 4})
	netCfg := nn.Config{In: 16, Width: 16, Classes: 3, Blocks: 1, Seed: 6}
	probe := nn.NewResidualMLP(netCfg)
	plan := train.PlanFor(probe, 100, nServers)

	var servers []*Server
	var addrs []string
	for s := 0; s < nServers; s++ {
		srv := NewServer(ServerConfig{ID: s, Workers: nWorkers, Sched: "p3", Updater: SGDUpdater(lr)})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, addr)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	sliceOf := func(tensor []float64, c core.Chunk) []float32 {
		out := make([]float32, c.Params)
		for i := range out {
			out[i] = float32(tensor[c.Offset+int64(i)])
		}
		return out
	}

	losses := make([][]float64, nWorkers)
	finals := make([]*nn.Network, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			netw := nn.NewResidualMLP(netCfg)
			params := netw.Params()
			shard := set.Shard(id, nWorkers)
			recv := make(chan *transport.Frame, plan.NumChunks()+4)
			worker, err := DialWorker(id, addrs, "p3", func(f *transport.Frame) { recv <- f })
			if err != nil {
				t.Error(err)
				return
			}
			defer worker.Close()
			if id == 0 {
				for _, c := range plan.Chunks {
					worker.Init(c.Server, uint64(c.ID), sliceOf(params[c.Layer].Data, c))
				}
			}
			for it := 0; it < iters; it++ {
				idx := make([]int, batch)
				for i := range idx {
					idx[i] = (it*batch + i) % shard.N()
				}
				x, y := shard.Batch(idx)
				loss := netw.LossAndBackward(netw.Forward(x), y)
				losses[id] = append(losses[id], loss)
				for _, c := range plan.Chunks {
					worker.Push(c.Server, uint64(c.ID), int32(it), int32(c.Priority),
						sliceOf(params[c.Layer].Grad, c))
				}
				for n := 0; n < plan.NumChunks(); n++ {
					select {
					case f := <-recv:
						c := plan.Chunks[f.Key]
						dst := params[c.Layer].Data[c.Offset : c.Offset+c.Params]
						for i, v := range f.Values {
							dst[i] = float64(v)
						}
					case <-time.After(10 * time.Second):
						t.Errorf("worker %d: timed out at iter %d", id, it)
						return
					}
				}
			}
			finals[id] = netw
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Compare the mean loss of the first and last quarters: single-batch
	// losses are noisy, the trend must not be.
	for w := 0; w < nWorkers; w++ {
		q := len(losses[w]) / 4
		var head, tail float64
		for i := 0; i < q; i++ {
			head += losses[w][i] / float64(q)
			tail += losses[w][len(losses[w])-1-i] / float64(q)
		}
		if tail >= head {
			t.Errorf("worker %d: loss did not fall (%.4f -> %.4f)", w, head, tail)
		}
	}
	ref := finals[0].Params()
	for w := 1; w < nWorkers; w++ {
		ps := finals[w].Params()
		for i := range ref {
			for j := range ref[i].Data {
				if ref[i].Data[j] != ps[i].Data[j] {
					t.Fatalf("replica %d diverged at tensor %d elem %d", w, i, j)
				}
			}
		}
	}
}

// TestWorkerDisconnectDoesNotWedgeServer: when a worker vanishes mid-round,
// remaining aggregation state simply never completes (synchronous SGD
// semantics), but the server must stay responsive and shut down cleanly.
func TestWorkerDisconnectDoesNotWedgeServer(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 2, Sched: "p3", Updater: SGDUpdater(1)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	got := make(chan *transport.Frame, 4)
	w0, err := DialWorker(0, []string{addr}, "p3", func(f *transport.Frame) { got <- f })
	if err != nil {
		t.Fatal(err)
	}
	defer w0.Close()
	w1, err := DialWorker(1, []string{addr}, "p3", nil)
	if err != nil {
		t.Fatal(err)
	}

	w0.Init(0, 1, []float32{0})
	time.Sleep(20 * time.Millisecond)
	// w1 pushes once, then dies before w0 pushes.
	w1.Push(0, 1, 0, 0, []float32{1})
	time.Sleep(20 * time.Millisecond)
	w1.Close()
	time.Sleep(20 * time.Millisecond)

	// w0's push completes the round (count reached 2): the server must
	// still aggregate and broadcast to the remaining worker.
	w0.Push(0, 1, 0, 0, []float32{1})
	select {
	case f := <-got:
		if f.Values[0] != -1 { // 0 - 1.0*mean(1,1)
			t.Fatalf("value %v after partial-cluster update", f.Values[0])
		}
	case <-time.After(3 * time.Second):
		t.Fatal("server wedged after worker disconnect")
	}
}

// TestMalformedFrameClosesConnOnly: garbage on one connection must not
// crash the server or disturb other workers.
func TestMalformedFrameClosesConnOnly(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 1, Sched: "fifo", Updater: SGDUpdater(1)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Raw connection spewing garbage.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	raw.Close()
	time.Sleep(20 * time.Millisecond)

	// A well-behaved worker still gets service.
	got := make(chan *transport.Frame, 1)
	w, err := DialWorker(0, []string{addr}, "fifo", func(f *transport.Frame) { got <- f })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Init(0, 9, []float32{5})
	time.Sleep(20 * time.Millisecond)
	w.Pull(0, 9, -1, 0)
	select {
	case f := <-got:
		if f.Values[0] != 5 {
			t.Fatalf("pull after garbage conn = %v", f.Values)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("server unresponsive after malformed frame")
	}
}

// TestPushBeforeInitZeroInitializes: the server adopts the first push's
// shape with zero parameters rather than crashing.
func TestPushBeforeInitZeroInitializes(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 1, Sched: "fifo", Updater: SGDUpdater(1)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got := make(chan *transport.Frame, 1)
	w, err := DialWorker(0, []string{addr}, "fifo", func(f *transport.Frame) { got <- f })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Push(0, 5, 0, 0, []float32{2, 4})
	select {
	case f := <-got:
		if f.Values[0] != -2 || f.Values[1] != -4 {
			t.Fatalf("update from zero init = %v", f.Values)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no broadcast for uninitialized key")
	}
}
