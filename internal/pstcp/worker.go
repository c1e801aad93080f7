package pstcp

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"p3/internal/sched"
	"p3/internal/transport"
)

// Handler receives fully delivered Data (and Notify) frames on the worker.
// f.Values is the buffer the worker holds for that key on that connection —
// the paper's KVStore pulls into the parameter array the worker already has —
// so it is valid until the next Data frame for the same key on the same
// connection; a handler that retains values longer must copy them.
type Handler func(f *transport.Frame)

// Worker is one training process's communication endpoint: the P3Worker of
// Section 4.2. Gradient slices pushed by the training loop (the producer)
// are drained by a single consumer goroutine that always transmits the most
// urgent slice next.
type Worker struct {
	id      uint8
	cfg     WorkerConfig
	links   []*link
	sendQ   *transport.SendQueue
	handler Handler

	wg     sync.WaitGroup
	readWG sync.WaitGroup
	done   chan struct{}

	mu     sync.Mutex
	closed bool

	reconnects atomic.Int64
}

// link is one server connection's mutable state. The reader goroutine
// replaces conn/w on reconnect under mu; the send loop resolves the
// current writer under mu per frame, and parks undeliverable frames in
// retry until the reconnect lands (or declares the link dead).
type link struct {
	addr string

	mu    sync.Mutex
	conn  net.Conn
	w     transport.FlushWriter
	down  bool // between a failure and a successful reconnect
	dead  bool // reconnect exhausted: frames for this link are dropped
	retry []*transport.Frame
}

// ReconnectConfig bounds the worker's reconnect-on-failure loop.
type ReconnectConfig struct {
	// MaxAttempts caps redials per connection failure; 0 disables
	// reconnection entirely: a failed connection is dead and frames for it
	// are dropped.
	MaxAttempts int
	// BaseDelay is the first retry's backoff (default 10ms); each attempt
	// doubles it up to MaxDelay (default 1s). Every wait is jittered
	// uniformly in [delay/2, delay) so a fleet of workers does not redial a
	// restarted server in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// WorkerConfig configures DialWorkerCfg.
type WorkerConfig struct {
	// ID is the worker's unique id (0..MaxWorkers-1).
	ID int
	// Servers are the parameter-server addresses, one connection each; a
	// frame's Dst indexes this list.
	Servers []string
	// Sched names the send-queue discipline (sched registry): "p3" for the
	// paper's priority ordering, "fifo" or empty for the baseline.
	Sched string
	// Profile optionally supplies model timing to profile-aware disciplines
	// (tictac ranks gradient slices by slack to consumption instead of
	// layer index); nil degrades them to their model-blind order.
	Profile *sched.Profile
	// Handler runs on a receive goroutine for every Data/Notify frame; it
	// must be safe for concurrent calls when multiple servers are used. The
	// frame's Values are valid until the next Data frame for the same key on
	// the same connection (see Handler): copy to retain.
	Handler Handler

	// ReadTimeout > 0 arms a read deadline on every server connection,
	// refreshed per frame: a server silent for longer (no broadcasts, no
	// heartbeats) fails the read and enters the reconnect path. 0 reads
	// forever.
	ReadTimeout time.Duration
	// WriteTimeout > 0 bounds every blocking socket write; a stalled server
	// fails the write (and the frame is retried after reconnecting) instead
	// of wedging the send loop. 0 writes forever.
	WriteTimeout time.Duration
	// HeartbeatEvery > 0 sends a payload-free heartbeat to every server at
	// this period, keeping idle-but-healthy connections inside the servers'
	// read deadlines. 0 sends none.
	HeartbeatEvery time.Duration
	// Reconnect bounds the redial loop a failed connection enters.
	Reconnect ReconnectConfig
}

// DialWorker connects worker id to every server address with the default
// options (no profile).
func DialWorker(id int, addrs []string, schedName string, handler Handler) (*Worker, error) {
	return DialWorkerCfg(WorkerConfig{ID: id, Servers: addrs, Sched: schedName, Handler: handler})
}

// DialWorkerCfg connects a worker to every configured server.
func DialWorkerCfg(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID < 0 || cfg.ID >= MaxWorkers {
		return nil, fmt.Errorf("pstcp: worker id %d out of range", cfg.ID)
	}
	disc, err := sched.ByName(cfg.Sched)
	if err != nil {
		return nil, fmt.Errorf("pstcp: %w", err)
	}
	sched.ApplyProfile(disc, cfg.Profile)
	// The worker's id seeds source-aware disciplines (damped), so a fleet
	// of workers does not resolve equal-rank ties identically.
	sched.ApplySource(disc, int32(cfg.ID))
	w := &Worker{
		id:      uint8(cfg.ID),
		cfg:     cfg,
		sendQ:   transport.NewSendQueue(disc),
		handler: cfg.Handler,
		done:    make(chan struct{}),
	}
	for _, addr := range cfg.Servers {
		conn, err := w.dial(addr)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.links = append(w.links, &link{addr: addr, conn: conn, w: w.newWriter(conn)})
	}
	for _, li := range w.links {
		w.readWG.Add(1)
		go w.readLoop(li)
	}
	w.wg.Add(1)
	go w.sendLoop()
	if cfg.HeartbeatEvery > 0 {
		w.wg.Add(1)
		go w.heartbeatLoop()
	}
	return w, nil
}

// dial connects to one server and registers on it (Hello) before anything
// else moves.
func (w *Worker) dial(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pstcp: dial %s: %w", addr, err)
	}
	fw := w.newWriter(conn)
	if err := transport.WriteFrame(fw, &transport.Frame{Type: transport.TypeHello, Sender: w.id}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("pstcp: hello: %w", err)
	}
	if err := fw.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("pstcp: hello flush: %w", err)
	}
	return conn, nil
}

func (w *Worker) newWriter(conn net.Conn) transport.FlushWriter {
	return transport.NewFrameWriter(deadlineConn{conn: conn, writeTimeout: w.cfg.WriteTimeout})
}

// Init uploads initial parameter values for a key to its server.
func (w *Worker) Init(server int, key uint64, values []float32) {
	w.sendQ.Push(&transport.Frame{
		Type: transport.TypeInit, Sender: w.id, Dst: uint8(server),
		Key: key, Values: values,
	})
}

// Push sends a gradient slice for key to its server; the slice joins the
// send queue at the given priority (lower = more urgent).
func (w *Worker) Push(server int, key uint64, iter int32, priority int32, grad []float32) {
	w.sendQ.Push(&transport.Frame{
		Type: transport.TypePush, Sender: w.id, Dst: uint8(server),
		Priority: priority, Key: key, Iter: iter, Values: grad,
	})
}

// Pull requests the current value of key (used by baseline-style flows; P3
// relies on the server's immediate broadcast instead).
func (w *Worker) Pull(server int, key uint64, iter int32, priority int32) {
	w.sendQ.Push(&transport.Frame{
		Type: transport.TypePull, Sender: w.id, Dst: uint8(server),
		Priority: priority, Key: key, Iter: iter,
	})
}

// QueuedSends reports the number of frames waiting in the send queue.
func (w *Worker) QueuedSends() int { return w.sendQ.Len() }

// Reconnects reports how many times the worker has re-established a server
// connection.
func (w *Worker) Reconnects() int64 { return w.reconnects.Load() }

// SetProfile swaps the send queue's timing profile at runtime — the
// calibrated mode's feedback hook: after measuring its real per-layer sync
// stalls a worker re-ranks subsequent pushes against the observed timeline
// instead of the static one. A no-op for profile-blind disciplines.
func (w *Worker) SetProfile(p *sched.Profile) { w.sendQ.SetProfile(p) }

// Close tears down the connections and waits for the worker's goroutines.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.sendQ.Close()
	w.wg.Wait() // drain pending sends before closing connections
	for _, li := range w.links {
		li.mu.Lock()
		if li.conn != nil {
			li.conn.Close()
		}
		li.mu.Unlock()
	}
	w.readWG.Wait()
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

// readLoop owns one link for the worker's lifetime: it drains frames from
// the current connection, and on any read error — closed peer, corrupt
// frame, silence past the read deadline — closes the connection and tries
// to re-establish it with bounded, jittered exponential backoff. A
// successful reconnect requeues the frames the send loop parked while the
// link was down; exhaustion marks the link dead and drops them.
//
// A Data frame decodes into the buffer the loop holds for its key, made on
// the key's first Data and reused across reconnects; no other frame type
// carries values to a worker, so any other body is discarded off the wire.
func (w *Worker) readLoop(li *link) {
	defer w.readWG.Done()
	held := make(map[uint64][]float32)
	dst := func(f *transport.Frame, n int) []float32 {
		if f.Type != transport.TypeData {
			return nil
		}
		if len(held[f.Key]) != n {
			held[f.Key] = make([]float32, n) //p3:alloc-ok first Data for this key on this link
		}
		return held[f.Key]
	}
	for {
		li.mu.Lock()
		conn := li.conn
		li.mu.Unlock()
		r := transport.NewFrameReader(deadlineConn{conn: conn, readTimeout: w.cfg.ReadTimeout})
		for {
			f, err := transport.ReadFrameInto(r, dst)
			if err != nil {
				break
			}
			if (f.Type == transport.TypeData || f.Type == transport.TypeNotify) && w.handler != nil {
				w.handler(f)
			}
		}
		conn.Close()
		if w.isClosed() || !w.reconnect(li) {
			return
		}
	}
}

// reconnect redials li with exponential backoff and uniform jitter. It
// reports whether the link is live again.
func (w *Worker) reconnect(li *link) bool {
	li.mu.Lock()
	li.down = true
	li.mu.Unlock()
	cfg := w.cfg.Reconnect
	delay := cfg.BaseDelay
	if delay <= 0 {
		delay = 10 * time.Millisecond
	}
	maxDelay := cfg.MaxDelay
	if maxDelay <= 0 {
		maxDelay = time.Second
	}
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		//p3:wallclock-ok reconnect backoff jitter must differ across real workers
		jittered := delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1))
		select {
		case <-w.done:
			return false
		//p3:wallclock-ok reconnect backoff waits in real time
		case <-time.After(jittered):
		}
		conn, err := w.dial(li.addr)
		if err == nil {
			w.reconnects.Add(1)
			li.mu.Lock()
			li.conn = conn
			li.w = w.newWriter(conn)
			li.down = false
			parked := li.retry
			li.retry = nil
			li.mu.Unlock()
			// Unacknowledged frames ride the fresh connection; the server's
			// per-iteration seen-sender set absorbs any duplicate whose
			// original did reach the wire before the old connection died.
			for _, f := range parked {
				w.sendQ.Requeue(f)
			}
			return true
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
	li.mu.Lock()
	li.dead = true
	parked := li.retry
	li.retry = nil
	li.mu.Unlock()
	for _, f := range parked {
		w.sendQ.Cancel(f) // dropped: release their credit
	}
	return false
}

// sendLoop is the consumer thread of Section 4.2: transport.SendLoop polls
// the most urgent admitted frame (skipping credit-blocked destinations in
// favour of admissible ones) and performs the blocking network call. A
// frame's credit is returned only when its bytes are flushed to the socket,
// so a credit-gated discipline bounds the buffered-but-unflushed backlog.
// Frames that fail to write — or whose link is down — are parked on the
// link and requeued by a successful reconnect; their credit stays held
// meanwhile, so a gated flow to a down server never floods the parking lot.
func (w *Worker) sendLoop() {
	defer w.wg.Done()
	transport.SendLoop(w.sendQ, func(f *transport.Frame) transport.FlushWriter {
		if int(f.Dst) >= len(w.links) {
			return nil
		}
		li := w.links[f.Dst]
		li.mu.Lock()
		defer li.mu.Unlock()
		if li.down || li.dead {
			return nil
		}
		return li.w
	}, func(f *transport.Frame, fw transport.FlushWriter, err error) {
		if f.Type == transport.TypeHeartbeat || int(f.Dst) >= len(w.links) {
			w.sendQ.Cancel(f) // keep-alives are never retried
			return
		}
		li := w.links[f.Dst]
		li.mu.Lock()
		if li.dead {
			li.mu.Unlock()
			w.sendQ.Cancel(f)
			return
		}
		if fw != li.w && (fw != nil || !li.down) {
			// The failure belongs to a connection a reconnect has replaced
			// since (or the link was refused as down and is back up): the
			// link's current writer is healthy, so the frame simply goes again.
			li.mu.Unlock()
			w.sendQ.Requeue(f)
			return
		}
		// A write failure on a live-looking link means the connection just
		// broke under us: mark it down now so subsequent frames park instead
		// of burning writes into the dead socket; the read loop notices the
		// same breakage and drives the reconnect.
		li.down = true
		li.retry = append(li.retry, f)
		li.mu.Unlock()
	}, nil)
}

// heartbeatLoop keeps idle-but-healthy server connections inside the
// servers' read deadlines: a payload-free maximally-urgent frame per live
// link, every HeartbeatEvery.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	//p3:wallclock-ok liveness heartbeats pace the real transport
	t := time.NewTicker(w.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
		}
		for i, li := range w.links {
			li.mu.Lock()
			live := !li.down && !li.dead
			li.mu.Unlock()
			if live {
				w.sendQ.Push(&transport.Frame{
					Type: transport.TypeHeartbeat, Sender: w.id, Dst: uint8(i),
					Priority: heartbeatPriority,
				})
			}
		}
	}
}
