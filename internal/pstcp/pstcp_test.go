package pstcp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"p3/internal/sched"
	"p3/internal/transport"
)

// testCluster wires nServers and nWorkers over loopback TCP.
type testCluster struct {
	servers []*Server
	addrs   []string
	workers []*Worker
}

func startCluster(t *testing.T, nServers, nWorkers int, schedName string, upd Updater, handler func(worker int, f *transport.Frame)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for s := 0; s < nServers; s++ {
		srv := NewServer(ServerConfig{ID: s, Workers: nWorkers, Sched: schedName, Updater: upd})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tc.servers = append(tc.servers, srv)
		tc.addrs = append(tc.addrs, addr)
	}
	for w := 0; w < nWorkers; w++ {
		w := w
		wk, err := DialWorker(w, tc.addrs, schedName, func(f *transport.Frame) { handler(w, f) })
		if err != nil {
			t.Fatal(err)
		}
		tc.workers = append(tc.workers, wk)
	}
	t.Cleanup(tc.close)
	return tc
}

func (tc *testCluster) close() {
	for _, w := range tc.workers {
		w.Close()
	}
	for _, s := range tc.servers {
		s.Close()
	}
}

// TestAggregationAndBroadcast: every worker pushes a gradient for every key;
// each server must aggregate exactly once and broadcast the updated value to
// every worker.
func TestAggregationAndBroadcast(t *testing.T) {
	const nServers, nWorkers, nKeys = 2, 3, 8

	var mu sync.Mutex
	got := map[int]map[uint64][]float32{}
	var wg sync.WaitGroup
	wg.Add(nWorkers * nKeys)

	tc := startCluster(t, nServers, nWorkers, "p3", SGDUpdater(1.0),
		func(worker int, f *transport.Frame) {
			mu.Lock()
			if got[worker] == nil {
				got[worker] = map[uint64][]float32{}
			}
			if _, dup := got[worker][f.Key]; dup {
				t.Errorf("worker %d received key %d twice", worker, f.Key)
			}
			// Copied: f.Values is the worker's held buffer for the key, valid
			// only until the key's next Data; the assertions run after the test.
			got[worker][f.Key] = append([]float32(nil), f.Values...)
			mu.Unlock()
			wg.Done()
		})

	// Initialize every key to zeros on its server, then push grads.
	for k := 0; k < nKeys; k++ {
		srv := k % nServers
		tc.workers[0].Init(srv, uint64(k), make([]float32, 4))
	}
	time.Sleep(50 * time.Millisecond) // let inits land before pushes
	for w, wk := range tc.workers {
		for k := 0; k < nKeys; k++ {
			grad := []float32{float32(w + 1), float32(k), 1, -1}
			wk.Push(k%nServers, uint64(k), 0, int32(k), grad)
		}
	}

	waitDone(t, &wg, 5*time.Second)

	// Expected: param = 0 - lr * sum(grads)/workers with lr=1:
	// elem0: -(1+2+3)/3 = -2; elem1: -k; elem2: -1; elem3: +1.
	mu.Lock()
	defer mu.Unlock()
	for w := 0; w < nWorkers; w++ {
		for k := 0; k < nKeys; k++ {
			v := got[w][uint64(k)]
			if v == nil {
				t.Fatalf("worker %d missing key %d", w, k)
			}
			want := []float32{-2, -float32(k), -1, 1}
			for i := range want {
				if v[i] != want[i] {
					t.Fatalf("worker %d key %d = %v, want %v", w, k, v, want)
				}
			}
		}
	}

	var pushes, updates int64
	for _, s := range tc.servers {
		p, u := s.Stats()
		pushes += p
		updates += u
	}
	if pushes != nWorkers*nKeys {
		t.Fatalf("servers processed %d pushes, want %d", pushes, nWorkers*nKeys)
	}
	if updates != nKeys {
		t.Fatalf("servers applied %d updates, want %d", updates, nKeys)
	}
}

func waitDone(t *testing.T, wg *sync.WaitGroup, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("timed out waiting for broadcasts")
	}
}

// TestMultipleIterations drives several aggregation rounds through one key
// and checks the value evolves exactly as synchronous SGD prescribes.
func TestMultipleIterations(t *testing.T) {
	const workers = 2
	results := make(chan []float32, 16)
	tc := startCluster(t, 1, workers, "p3", SGDUpdater(0.5),
		func(worker int, f *transport.Frame) {
			if worker == 0 {
				// Copied: the next iteration's Data for key 7 overwrites f.Values.
				results <- append([]float32(nil), f.Values...)
			}
		})

	tc.workers[0].Init(0, 7, []float32{10})
	time.Sleep(20 * time.Millisecond)

	want := float32(10)
	for iter := int32(0); iter < 5; iter++ {
		for _, wk := range tc.workers {
			wk.Push(0, 7, iter, 0, []float32{2}) // sum=4, mean=2, -0.5*2 = -1
		}
		select {
		case v := <-results:
			want--
			if v[0] != want {
				t.Fatalf("iter %d: value %v, want %v", iter, v[0], want)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("iter %d: no broadcast", iter)
		}
	}
}

// TestPullReturnsCurrentValue exercises the explicit pull path (baseline
// flows).
func TestPullReturnsCurrentValue(t *testing.T) {
	results := make(chan []float32, 1)
	tc := startCluster(t, 1, 1, "fifo", SGDUpdater(1),
		func(worker int, f *transport.Frame) {
			// Copied: read on another goroutine, past the handler's validity window.
			results <- append([]float32(nil), f.Values...)
		})
	tc.workers[0].Init(0, 3, []float32{5, 6})
	time.Sleep(20 * time.Millisecond)
	tc.workers[0].Pull(0, 3, -1, 0)
	select {
	case v := <-results:
		if v[0] != 5 || v[1] != 6 {
			t.Fatalf("pull = %v", v)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("pull never answered")
	}
}

// TestPriorityOrderingUnderBacklog verifies the consumer thread drains the
// send queue most-urgent-first once a backlog forms.
func TestPriorityOrderingUnderBacklog(t *testing.T) {
	q := transport.NewSendQueue(sched.NewP3Priority())
	// Simulate the producer side: enqueue a burst out of order.
	for _, p := range []int32{9, 4, 7, 1, 8, 0, 3} {
		q.Push(&transport.Frame{Priority: p})
	}
	var got []int32
	for q.Len() > 0 {
		f, _ := q.Pop()
		got = append(got, f.Priority)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("backlog drained out of order: %v", got)
		}
	}
}

// TestManyKeysManyWorkers is a heavier soak: 4 workers, 2 servers, 64 keys,
// 3 iterations, ensuring no deadlocks, drops or duplicate broadcasts.
func TestManyKeysManyWorkers(t *testing.T) {
	const nServers, nWorkers, nKeys, iters = 2, 4, 64, 3

	var mu sync.Mutex
	recv := map[string]int{} // worker/key/iter -> count
	var wg sync.WaitGroup
	wg.Add(nWorkers * nKeys * iters)

	tc := startCluster(t, nServers, nWorkers, "p3", SGDUpdater(0.1),
		func(worker int, f *transport.Frame) {
			mu.Lock()
			recv[fmt.Sprintf("%d/%d/%d", worker, f.Key, f.Iter)]++
			mu.Unlock()
			wg.Done()
		})

	for k := 0; k < nKeys; k++ {
		tc.workers[0].Init(k%nServers, uint64(k), make([]float32, 16))
	}
	time.Sleep(50 * time.Millisecond)

	for iter := int32(0); iter < iters; iter++ {
		var send sync.WaitGroup
		for _, wk := range tc.workers {
			send.Add(1)
			go func(wk *Worker) {
				defer send.Done()
				for k := 0; k < nKeys; k++ {
					grad := make([]float32, 16)
					grad[0] = 1
					wk.Push(k%nServers, uint64(k), iter, int32(nKeys-k), grad)
				}
			}(wk)
		}
		send.Wait()
		// Workers in a real loop would wait for all keys before the next
		// iteration; emulate with a short settle so iterations do not mix
		// at the same aggregation slot.
		time.Sleep(100 * time.Millisecond)
	}

	waitDone(t, &wg, 10*time.Second)
	mu.Lock()
	defer mu.Unlock()
	for k, c := range recv {
		if c != 1 {
			t.Fatalf("broadcast %s delivered %d times", k, c)
		}
	}
}

func TestWorkerRejectsBadID(t *testing.T) {
	if _, err := DialWorker(300, nil, "fifo", nil); err == nil {
		t.Fatal("id 300 accepted")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialWorker(0, []string{"127.0.0.1:1"}, "fifo", nil); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestDoubleCloseIsSafe(t *testing.T) {
	tc := startCluster(t, 1, 1, "fifo", nil, func(int, *transport.Frame) {})
	tc.workers[0].Close()
	tc.workers[0].Close() // second close must be a no-op
}
