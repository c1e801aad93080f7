package pstcp

import (
	"sync"
	"testing"
	"time"

	"p3/internal/transport"
)

// TestNotifyPullProtocol exercises the stock-KVStore wire behaviour on real
// sockets: the server answers completed aggregations with payload-free
// notifications, and data moves only on explicit pulls — the extra round
// trip P3 removes.
func TestNotifyPullProtocol(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 1, NotifyPull: true, Updater: SGDUpdater(1)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	notifies := make(chan *transport.Frame, 4)
	datas := make(chan *transport.Frame, 4)
	w, err := DialWorker(0, []string{addr}, "fifo", func(f *transport.Frame) {
		if f.Type == transport.TypeNotify {
			notifies <- f
		} else {
			datas <- f
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	w.Init(0, 1, []float32{10})
	time.Sleep(20 * time.Millisecond)
	w.Push(0, 1, 0, 0, []float32{2})

	// First a notification with no payload...
	select {
	case f := <-notifies:
		if len(f.Values) != 0 {
			t.Fatalf("notify carried %d values", len(f.Values))
		}
		if f.Key != 1 {
			t.Fatalf("notify for key %d", f.Key)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no notification")
	}
	select {
	case <-datas:
		t.Fatal("data arrived without a pull")
	case <-time.After(50 * time.Millisecond):
	}

	// ...then data only after the explicit pull (MXNet semantics).
	w.Pull(0, 1, 0, 0)
	select {
	case f := <-datas:
		if f.Values[0] != 8 { // 10 - 1*2
			t.Fatalf("pulled value %v, want 8", f.Values[0])
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no data after pull")
	}
}

// TestPullParksUntilItsIteration pins the pull rule every server shares
// (worker.Parked): a pull for a key the server has not made yet is answered
// when the key's Init lands, and a pull for an iteration whose update has
// not landed is answered when it does, with the updated value, and not
// before.
func TestPullParksUntilItsIteration(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 2, NotifyPull: true, Updater: SGDUpdater(1)})
	srv.handlePull(&transport.Frame{Type: transport.TypePull, Sender: 1, Key: 1, Iter: -1})
	if f, ok := srv.sendQ.TryPop(); ok {
		t.Fatalf("pull of an unknown key answered with %+v", f)
	}
	srv.handleInit(&transport.Frame{Type: transport.TypeInit, Key: 1, Values: []float32{10}})
	f, ok := srv.sendQ.TryPop()
	if !ok || f.Type != transport.TypeData || f.Dst != 1 || f.Iter != -1 || len(f.Values) != 1 || f.Values[0] != 10 {
		t.Fatalf("parked pull answered at Init with %+v (queued %v), want Data for iteration -1 holding the init value 10", f, ok)
	}

	srv.handlePush(&transport.Frame{Type: transport.TypePush, Sender: 0, Key: 1, Iter: 0, Values: []float32{2}})
	srv.handlePull(&transport.Frame{Type: transport.TypePull, Sender: 0, Key: 1, Iter: 0})
	if f, ok := srv.sendQ.TryPop(); ok {
		t.Fatalf("pull of an open iteration answered before its update with %+v", f)
	}
	srv.handlePush(&transport.Frame{Type: transport.TypePush, Sender: 1, Key: 1, Iter: 0, Values: []float32{4}})
	var data *transport.Frame
	for f, ok := srv.sendQ.TryPop(); ok; f, ok = srv.sendQ.TryPop() {
		if f.Type == transport.TypeData {
			data = f
		}
	}
	if data == nil || data.Dst != 0 || data.Iter != 0 || len(data.Values) != 1 || data.Values[0] != 7 { // 10 - 1*(2+4)/2
		t.Fatalf("parked pull answered at the update with %+v, want Data for iteration 0 holding 7", data)
	}
}

// TestPullOfZeroLengthKeyIsAnswered: a key with no values is still a key,
// and a pull of it gets an empty Data.
func TestPullOfZeroLengthKeyIsAnswered(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 1})
	srv.handleInit(&transport.Frame{Type: transport.TypeInit, Key: 2})
	srv.handlePull(&transport.Frame{Type: transport.TypePull, Sender: 0, Key: 2, Iter: -1})
	if f, ok := srv.sendQ.TryPop(); !ok || f.Type != transport.TypeData || f.Key != 2 || f.Iter != -1 || len(f.Values) != 0 {
		t.Fatalf("pull of a zero-length key answered with %+v (queued %v), want an empty Data for iteration -1", f, ok)
	}
}

// TestPullFromUnknownSenderIsDropped: a pull from a sender that is not one
// of the Workers is neither answered nor parked, only counted, as such a
// push is.
func TestPullFromUnknownSenderIsDropped(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 2})
	srv.handlePull(&transport.Frame{Type: transport.TypePull, Sender: 2, Key: 1, Iter: -1})
	srv.handleInit(&transport.Frame{Type: transport.TypeInit, Key: 1, Values: []float32{1}})
	srv.handlePull(&transport.Frame{Type: transport.TypePull, Sender: 2, Key: 1, Iter: -1})
	if f, ok := srv.sendQ.TryPop(); ok {
		t.Fatalf("pull from sender 2 of 2 workers answered with %+v", f)
	}
	if srv.drops != 2 {
		t.Fatalf("%d drops, want the 2 pulls", srv.drops)
	}
}

// TestPriorityReducesUrgentLatency measures, on real sockets, the paper's
// core effect: with a large low-priority backlog queued ahead of it, an
// urgent slice completes its round trip dramatically sooner under priority
// scheduling than under FIFO. This is Figure 4 on a real network stack.
func TestPriorityReducesUrgentLatency(t *testing.T) {
	const (
		bulkFrames = 64
		bulkSize   = 64 * 1024 // floats per bulk frame (256 KB)
	)
	measure := func(schedName string) time.Duration {
		srv := NewServer(ServerConfig{ID: 0, Workers: 1, Sched: schedName, Updater: SGDUpdater(1)})
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		var mu sync.Mutex
		urgentDone := make(chan time.Time, 1)
		w, err := DialWorker(0, []string{addr}, schedName, func(f *transport.Frame) {
			if f.Key == 9999 {
				mu.Lock()
				select {
				case urgentDone <- time.Now():
				default:
				}
				mu.Unlock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()

		bulk := make([]float32, bulkSize)
		// Enqueue the low-priority backlog first (priority 1000)...
		for k := 0; k < bulkFrames; k++ {
			w.Push(0, uint64(k), 0, 1000, bulk)
		}
		// ...then the single urgent slice (priority 0).
		start := time.Now()
		w.Push(0, 9999, 0, 0, []float32{1})
		select {
		case at := <-urgentDone:
			return at.Sub(start)
		case <-time.After(30 * time.Second):
			t.Fatal("urgent slice never completed")
			return 0
		}
	}

	fifo := measure("fifo")
	prio := measure("p3")
	t.Logf("urgent round trip: fifo=%v priority=%v", fifo, prio)
	// Under FIFO the urgent frame waits behind ~16 MB of queued bulk; with
	// priority it overtakes everything except the frame already in flight.
	if prio*2 >= fifo {
		t.Fatalf("priority latency %v not clearly below FIFO %v", prio, fifo)
	}
}
