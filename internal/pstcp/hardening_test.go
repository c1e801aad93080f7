package pstcp

import (
	"net"
	"testing"
	"time"

	"p3/internal/transport"
)

// TestWorkerReconnectAfterServerRestart kills the server mid-session and
// restarts it on the same address: the worker's reconnect loop must
// re-establish the connection (fresh Hello) and the training flow must
// complete on the new connection.
func TestWorkerReconnectAfterServerRestart(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 1, Sched: "p3", Updater: SGDUpdater(1)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	recv := make(chan *transport.Frame, 16)
	wk, err := DialWorkerCfg(WorkerConfig{
		ID: 0, Servers: []string{addr}, Sched: "p3",
		Handler: func(f *transport.Frame) { recv <- f },
		Reconnect: ReconnectConfig{
			MaxAttempts: 100,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()

	// Round 1 on the original connection.
	wk.Push(0, 1, 0, 0, []float32{2})
	select {
	case <-recv:
	case <-time.After(5 * time.Second):
		t.Fatal("no broadcast on the original connection")
	}

	// Kill the server, restart it on the same address. The worker's read
	// loop fails, enters the backoff loop, and redials once the listener is
	// back.
	srv.Close()
	srv2 := NewServer(ServerConfig{ID: 0, Workers: 1, Sched: "p3", Updater: SGDUpdater(1)})
	if _, err := srv2.Start(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()

	// Wait for the redial before pushing: a push racing the broken socket
	// can vanish into the kernel buffer without an error (TCP reports the
	// breakage only on a later write), and without an application-level ack
	// there is nothing to retry on. Once the fresh connection's Hello is in
	// (Reconnects ticks after the Hello flush), the ordered stream makes
	// delivery deterministic.
	waitFor(t, 5*time.Second, func() bool { return wk.Reconnects() >= 1 })
	deadline := time.After(10 * time.Second)
	wk.Push(0, 1, 1, 0, []float32{3})
	for {
		select {
		case f := <-recv:
			if f.Iter == 1 {
				if wk.Reconnects() < 1 {
					t.Fatalf("flow completed but Reconnects() = %d, want >= 1", wk.Reconnects())
				}
				return
			}
		case <-deadline:
			t.Fatalf("no broadcast after server restart (reconnects=%d, queued=%d)",
				wk.Reconnects(), wk.QueuedSends())
		}
	}
}

// TestHeartbeatsKeepIdleConnectionAlive: with aggressive read deadlines on
// both sides and matching heartbeats, an idle connection must survive far
// past the deadline — and still carry traffic afterwards.
func TestHeartbeatsKeepIdleConnectionAlive(t *testing.T) {
	srv := NewServer(ServerConfig{
		ID: 0, Workers: 1, Sched: "fifo", Updater: SGDUpdater(1),
		ReadTimeout:    120 * time.Millisecond,
		HeartbeatEvery: 30 * time.Millisecond,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	recv := make(chan *transport.Frame, 4)
	wk, err := DialWorkerCfg(WorkerConfig{
		ID: 0, Servers: []string{addr}, Sched: "fifo",
		Handler:        func(f *transport.Frame) { recv <- f },
		ReadTimeout:    120 * time.Millisecond,
		HeartbeatEvery: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()

	// Idle for several read-deadline periods: heartbeats must keep both
	// directions alive the whole time.
	time.Sleep(500 * time.Millisecond)
	if wk.Reconnects() != 0 {
		t.Fatalf("idle heartbeat-kept connection reconnected %d times", wk.Reconnects())
	}

	wk.Push(0, 9, 0, 0, []float32{1})
	select {
	case <-recv:
	case <-time.After(5 * time.Second):
		t.Fatal("connection did not survive the idle period")
	}
}

// TestServerReadDeadlineDropsSilentWorker: a worker that sends neither
// traffic nor heartbeats must be deregistered by the server's read deadline;
// a reconnect-enabled worker then recovers via a fresh Hello.
func TestServerReadDeadlineDropsSilentWorker(t *testing.T) {
	srv := NewServer(ServerConfig{
		ID: 0, Workers: 1, Sched: "fifo", Updater: SGDUpdater(1),
		ReadTimeout: 80 * time.Millisecond,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	recv := make(chan *transport.Frame, 4)
	wk, err := DialWorkerCfg(WorkerConfig{
		ID: 0, Servers: []string{addr}, Sched: "fifo",
		Handler: func(f *transport.Frame) { recv <- f },
		Reconnect: ReconnectConfig{
			MaxAttempts: 100,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()

	// Stay silent well past the server's read deadline: the server closes
	// the connection, the worker notices and redials.
	waitFor(t, 5*time.Second, func() bool { return wk.Reconnects() >= 1 })

	// The reconnected link must carry a full round.
	deadline := time.After(10 * time.Second)
	wk.Push(0, 2, 0, 0, []float32{1})
	for {
		select {
		case f := <-recv:
			if f.Key == 2 {
				return
			}
		case <-deadline:
			t.Fatalf("no broadcast after deadline-driven reconnect (reconnects=%d)", wk.Reconnects())
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition never reached")
}

// TestDuplicatePushDedup drives the server's aggregation directly: a push
// retried through the reconnect path (same sender, same iteration) must not
// double-count, and the update must fire exactly once when the second
// worker's push lands. A retry that arrives after its iteration completed,
// while the next one is open, counts zero and is answered with the stored
// value: it must not reset the open iteration.
func TestDuplicatePushDedup(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 2, Sched: "fifo", Updater: SGDUpdater(1)})
	push := func(sender uint8, v float32) {
		srv.handlePush(&transport.Frame{
			Type: transport.TypePush, Sender: sender, Key: 5, Iter: 0, Values: []float32{v},
		})
	}
	push(0, 4) // original
	push(0, 4) // retry duplicate: must be ignored
	if p, u := srv.Stats(); p != 1 || u != 0 {
		t.Fatalf("after duplicate: pushes=%d updates=%d, want 1/0", p, u)
	}
	push(1, 2)
	if p, u := srv.Stats(); p != 2 || u != 1 {
		t.Fatalf("after both workers: pushes=%d updates=%d, want 2/1", p, u)
	}
	// param = 0 - 1 * (4+2)/2 = -3; a double-counted duplicate would give
	// (4+4+2)/2 = -5 instead.
	if got := srv.keys[5].param[0]; got != -3 {
		t.Fatalf("param = %v, want -3 (duplicate leaked into the sum)", got)
	}
	// Next iteration resets the seen set: the same sender counts again.
	srv.handlePush(&transport.Frame{
		Type: transport.TypePush, Sender: 0, Key: 5, Iter: 1, Values: []float32{1},
	})
	if p, _ := srv.Stats(); p != 3 {
		t.Fatalf("new iteration push ignored: pushes=%d, want 3", p)
	}
	srv.handlePush(&transport.Frame{
		Type: transport.TypePush, Sender: 1, Key: 5, Iter: 0, Values: []float32{2},
	})
	srv.handlePush(&transport.Frame{
		Type: transport.TypePush, Sender: 1, Key: 5, Iter: 1, Values: []float32{3},
	})
	if p, u := srv.Stats(); p != 4 || u != 2 {
		t.Fatalf("after a stale retry and the open iteration's last push: pushes=%d updates=%d, want 4/2", p, u)
	}
	// param = -3 - 1 * (1+3)/2 = -5.
	if got := srv.keys[5].param[0]; got != -5 {
		t.Fatalf("param = %v, want -5", got)
	}
	// No worker is registered, so the update broadcast nothing: the one
	// queued frame is the stale retry's answer, holding iteration 0's value.
	f, ok := srv.sendQ.TryPop()
	if !ok || f.Type != transport.TypeData || f.Dst != 1 || f.Iter != 0 || len(f.Values) != 1 || f.Values[0] != -3 {
		t.Fatalf("stale retry answered with %+v (queued %v), want Data to worker 1 for iteration 0 holding -3", f, ok)
	}
}

// TestCloseWithSilentPeer: a peer that connects and never sends a frame,
// not even Hello, must not hold up Close, and no read deadline is set to
// end its reader.
func TestCloseWithSilentPeer(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 1, Sched: "fifo", Updater: SGDUpdater(1)})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// A worker dialled after the silent peer is accepted after it: once the
	// worker's round trip completes, the silent connection has its reader.
	got := make(chan *transport.Frame, 1)
	wk, err := DialWorker(0, []string{addr}, "fifo", func(f *transport.Frame) { got <- f })
	if err != nil {
		t.Fatal(err)
	}
	wk.Push(0, 1, 0, 0, []float32{1})
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("no broadcast")
	}
	wk.Close()

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked after 2s on a peer that never sent Hello")
	}
}

// TestStaleFlushErrorLeavesFreshLinkUp: a frame buffered for a connection
// that is then replaced fails at flush on the old writer, after the reconnect
// has already put a fresh writer on the link. That failure must send the
// frame again on the fresh connection, not mark the healthy link down (which
// nothing would ever bring back). Server B stands still to hold the send
// loop inside a write while the frame for server A sits in the old buffer.
func TestStaleFlushErrorLeavesFreshLinkUp(t *testing.T) {
	srv := NewServer(ServerConfig{ID: 0, Workers: 1, Sched: "fifo", Updater: SGDUpdater(1)})
	addrA, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()
	readB := make(chan int) // frames server B may read next; closed: read to the end
	go func() {
		conn, err := lnB.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := transport.NewFrameReader(conn)
		discard := func(*transport.Frame, int) []float32 { return nil }
		transport.ReadFrameInto(r, discard) // the Hello
		for n := range readB {
			for ; n > 0; n-- {
				transport.ReadFrameInto(r, discard)
			}
		}
		for {
			if _, err := transport.ReadFrameInto(r, discard); err != nil {
				return
			}
		}
	}()

	got := make(chan *transport.Frame, 4)
	wk, err := DialWorkerCfg(WorkerConfig{
		ID: 0, Servers: []string{addrA, lnB.Addr().String()}, Sched: "fifo",
		Handler:   func(f *transport.Frame) { got <- f },
		Reconnect: ReconnectConfig{MaxAttempts: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()
	popped := func() { waitFor(t, 5*time.Second, func() bool { return wk.QueuedSends() == 0 }) }

	big := make([]float32, 4<<20) // 16 MB: more than the loopback socket buffers hold
	wk.Push(1, 1, 0, 0, big)
	popped() // the send loop is inside this write until B reads it
	wk.Push(0, 7, 0, 0, []float32{2})
	wk.Push(1, 1, 1, 0, big)
	readB <- 1
	// B took the first big frame; the loop has buffered the push for A
	// (no flush: the queue was not empty) and is inside the second big write.
	popped()

	li := wk.links[0]
	li.mu.Lock()
	li.conn.Close()
	li.mu.Unlock()
	waitFor(t, 5*time.Second, func() bool { return wk.Reconnects() >= 1 })
	close(readB) // the second big write completes; the old A writer's flush fails

	select {
	case f := <-got:
		if f.Key != 7 || f.Values[0] != -2 {
			t.Fatalf("broadcast key %d values %v, want key 7 [-2]", f.Key, f.Values)
		}
	case <-time.After(5 * time.Second):
		li.mu.Lock()
		down, parked := li.down, len(li.retry)
		li.mu.Unlock()
		t.Fatalf("the push buffered on the replaced connection never arrived (link down %v, %d parked)", down, parked)
	}
}

// TestWorkerCountBounds pins the id space on both ends of a link: a server
// takes 1..MaxWorkers workers (ids are one byte, so a larger count could
// never complete an update) and a worker dials with an id below MaxWorkers.
func TestWorkerCountBounds(t *testing.T) {
	for _, n := range []int{-1, 0, MaxWorkers + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewServer with %d workers did not panic", n)
				}
			}()
			NewServer(ServerConfig{Workers: n, Sched: "p3"})
		}()
	}
	NewServer(ServerConfig{Workers: MaxWorkers, Sched: "p3"})
	for _, id := range []int{-1, MaxWorkers} {
		if _, err := DialWorkerCfg(WorkerConfig{ID: id, Sched: "p3"}); err == nil {
			t.Errorf("DialWorkerCfg accepted worker id %d", id)
		}
	}
}
