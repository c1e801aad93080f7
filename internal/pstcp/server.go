// Package pstcp is the real-network implementation of the paper's parameter
// server: P3Server and P3Worker over TCP (Section 4.2). It mirrors the
// modified-KVStore design exactly:
//
//   - the worker slices gradients (via core.PartitionSlices), a producer
//     pushes slices into a scheduled send queue, and a single consumer
//     goroutine performs blocking sends of the most urgent slice;
//   - the server pushes received frames into a scheduled receive queue
//     drained by a single processor goroutine, aggregates per key under the
//     simulator's slot rule (worker.Slot: once per worker, stale pushes
//     answered but not counted), applies the update on the Nth push, and
//     immediately broadcasts the new values to all workers (the explicit
//     notify+pull of stock KVStore is removed);
//   - a pull is answered under the simulator's pull rule (worker.Parked):
//     once its key holds the iteration it asks for (-1: the initial value,
//     held from the key's first Init or Push), parked until then;
//   - the queue discipline is a sched registry name ("p3" reproduces the
//     paper, "fifo" the baseline, "credit" a ByteScheduler-style window;
//     see internal/sched for the full set).
//
// The simulator reproduces the paper's timing results; this package
// demonstrates the same protocol logic end-to-end on a real network stack
// and is exercised by loopback integration tests and examples.
package pstcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"p3/internal/sched"
	"p3/internal/transport"
	"p3/internal/worker"
)

// Updater folds one iteration's aggregated gradient into a stored parameter
// tensor in one pass. The un-normalized sum over the workers' pushes is
// sum[i] + last[i]: last is the Nth push, the one that completes the
// iteration, and sum holds the other workers-1 pushes already added
// together (zeros when workers is 1). As it reads last[i] the updater
// overwrites it with the updated param[i]: the Nth push's buffer is the
// broadcast snapshot. All three slices have param's length.
type Updater func(key uint64, param, sum, last []float32, workers int)

// SGDUpdater returns the standard update rule: param -= lr * mean(grad).
func SGDUpdater(lr float32) Updater {
	return func(_ uint64, param, sum, last []float32, workers int) {
		scale := lr / float32(workers)
		sum, last = sum[:len(param)], last[:len(param)]
		for i := range param {
			p := param[i] - scale*(sum[i]+last[i])
			param[i], last[i] = p, p
		}
	}
}

// MaxWorkers bounds the workers of one server: a worker id is one byte on
// the wire (Frame.Sender), so ids run 0..MaxWorkers-1.
const MaxWorkers = 256

// ServerConfig configures a Server.
type ServerConfig struct {
	ID      int
	Workers int // number of workers that must push before an update (1..MaxWorkers)
	// Sched names the queue discipline (sched registry) applied to the
	// receive and send queues: "p3" for the paper's priority mechanism,
	// "fifo" (or empty) for the baseline, "credit[:bytes]" for a
	// ByteScheduler-style window, "tictac" / "credit-adaptive[:bytes]" for
	// the model-aware disciplines, etc.
	Sched string
	// Profile optionally supplies model timing to profile-aware disciplines
	// (tictac); without it tictac degrades to p3 ordering.
	Profile *sched.Profile
	// NotifyPull selects stock KVStore semantics (Section 4.1): on update
	// completion the server sends a payload-free Notify to every worker and
	// returns data only on explicit Pull. False selects P3's immediate
	// broadcast (Section 4.2).
	NotifyPull bool
	Updater    Updater

	// ReadTimeout > 0 arms a read deadline on every worker connection,
	// refreshed per frame: a worker silent for longer (no pushes, no
	// heartbeats) is presumed dead, its connection is closed and its writer
	// deregistered so broadcasts stop queueing for it. 0 reads forever.
	ReadTimeout time.Duration
	// WriteTimeout > 0 bounds every blocking socket write to a worker; a
	// stalled peer fails the write instead of wedging the send loop. 0
	// writes forever.
	WriteTimeout time.Duration
	// HeartbeatEvery > 0 sends a payload-free heartbeat frame to every
	// registered worker at this period, keeping idle-but-healthy
	// connections inside the workers' read deadlines. 0 sends none.
	HeartbeatEvery time.Duration
}

// reduction is one key: its stored tensor, which workers have pushed which
// iteration (the slot), and the sum of their pushes so far.
type reduction struct {
	worker.Slot
	param, sum []float32
}

// Server is one parameter server process.
type Server struct {
	cfg   ServerConfig
	ln    net.Listener
	recvQ *transport.SendQueue
	sendQ *transport.SendQueue

	mu sync.Mutex
	// conns holds every connection acceptLoop has handed to a read loop
	// that has not yet returned, registered by Hello or not: what Close
	// closes.
	conns   map[net.Conn]struct{}
	writers map[uint8]*connWriter
	keys    map[uint64]*reduction
	parked  worker.Parked // pulls waiting for their key to hold their iteration

	// bufs holds every value buffer the server moves frames through: push
	// and init bodies from the read loops until processLoop has folded the
	// frame in, broadcast snapshots until sendLoop is done with the last
	// destination's frame.
	bufs bufPool
	// drops counts pushes and inits dropped because their value count
	// disagrees with the key's stored tensor, and pushes and pulls from a
	// sender that is not one of the Workers. pushes counts the pushes
	// folded in, updates the iterations they completed. All three are
	// guarded by mu.
	drops, pushes, updates int64

	wg     sync.WaitGroup
	connWG sync.WaitGroup // the read loops, added by acceptLoop
	// accepted is closed when acceptLoop returns: connWG gains no reader
	// after that.
	accepted chan struct{}
	done     chan struct{}
}

type connWriter struct {
	conn net.Conn
	w    transport.FlushWriter
}

// NewServer creates a server. A nil Updater defaults to SGD with lr 0.1.
// It panics on an unknown Sched name (validate with sched.ByName first if
// the name comes from user input).
func NewServer(cfg ServerConfig) *Server {
	if cfg.Workers <= 0 || cfg.Workers > MaxWorkers {
		panic(fmt.Sprintf("pstcp: server needs 1..%d workers, got %d", MaxWorkers, cfg.Workers))
	}
	if cfg.Updater == nil {
		cfg.Updater = SGDUpdater(0.1)
	}
	newQ := func() *transport.SendQueue {
		// The server's id seeds source-aware disciplines (damped), so a
		// fleet of servers does not resolve equal-rank ties identically.
		disc := sched.ApplyProfile(sched.MustByName(cfg.Sched), cfg.Profile)
		sched.ApplySource(disc, int32(cfg.ID))
		return transport.NewSendQueue(disc)
	}
	return &Server{
		cfg:     cfg,
		recvQ:   newQ(),
		sendQ:   newQ(),
		conns:   make(map[net.Conn]struct{}),
		writers: make(map[uint8]*connWriter),
		keys:    make(map[uint64]*reduction),
		bufs: bufPool{free: make(map[int][][]float32), refs: make(map[*float32]int),
			made: make(map[int]int), want: make(map[int]int)},
		accepted: make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start listens on addr (use "127.0.0.1:0" for tests) and returns the bound
// address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("pstcp: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(2)
	go s.acceptLoop()
	go s.processLoop()
	go s.sendLoop()
	if s.cfg.HeartbeatEvery > 0 {
		s.wg.Add(1)
		go s.heartbeatLoop()
	}
	return ln.Addr().String(), nil
}

// Close shuts the server down and waits for its goroutines.
func (s *Server) Close() {
	close(s.done)
	if s.ln != nil {
		s.ln.Close()
		<-s.accepted // no reader is added once connWG.Wait below has begun
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close() // a silent peer's too: its reader would block forever
	}
	s.mu.Unlock()
	s.connWG.Wait() // readers drain before the process queue closes
	s.recvQ.Close()
	s.sendQ.Close()
	s.wg.Wait()
}

// Stats returns (pushes processed, updates applied).
func (s *Server) Stats() (pushes, updates int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushes, s.updates
}

func (s *Server) acceptLoop() {
	defer close(s.accepted)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.readLoop(conn)
	}
}

// readLoop is the per-connection producer: every received frame goes into
// the receive priority queue for the single processor goroutine. Any read
// error — a closed peer, a corrupt frame, or a worker silent past the read
// deadline — closes the connection and deregisters its writer, so the send
// side stops queueing broadcasts for a dead worker. Heartbeats refresh the
// deadline (every read does) and are otherwise dropped here, never
// reaching the receive queue.
//
// A frame's values are decoded where dst chooses: a Push or Init whose count
// fits the key's stored tensor (or whose key is new) gets a buffer from the
// free list; anything else gets none — its body is discarded off the wire, so
// a frame costs memory only once its header has earned it, and the connection
// stays usable. The frame then carries no values: a payload on a type that
// has none is ignored, and handlePush and handleInit drop and count the one
// whose shape was wrong.
func (s *Server) readLoop(conn net.Conn) {
	defer s.connWG.Done()
	var sender uint8
	r := transport.NewFrameReader(deadlineConn{conn: conn, readTimeout: s.cfg.ReadTimeout})
	var body []float32 // the free-list buffer the frame being read decodes into
	dst := func(f *transport.Frame, n int) []float32 {
		if f.Type == transport.TypePush || f.Type == transport.TypeInit {
			s.mu.Lock()
			r := s.keys[f.Key]
			s.mu.Unlock()
			if r == nil || len(r.param) == n {
				body = s.bufs.get(n)
			}
		}
		return body
	}
	for {
		body = nil
		f, err := transport.ReadFrameInto(r, dst)
		if err != nil {
			// Connection closed, corrupt, or silent past the deadline. A body
			// cut short goes back whole: the list is keyed by length.
			s.bufs.put(body)
			break
		}
		switch f.Type {
		case transport.TypeHello:
			sender = f.Sender
			s.mu.Lock()
			s.writers[f.Sender] = &connWriter{
				conn: conn,
				w:    transport.NewFrameWriter(deadlineConn{conn: conn, writeTimeout: s.cfg.WriteTimeout}),
			}
			s.mu.Unlock()
		case transport.TypeHeartbeat:
			// Keep-alive only; arrival already refreshed the read deadline.
		default:
			s.recvQ.Push(f)
		}
	}
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	// Deregister only our own registration, if Hello made one: the worker
	// may already have reconnected on a fresh connection that must keep its
	// writer.
	if cw := s.writers[sender]; cw != nil && cw.conn == conn {
		delete(s.writers, sender)
	}
	s.mu.Unlock()
}

// heartbeatLoop keeps idle-but-healthy worker connections inside the
// workers' read deadlines: a payload-free maximally-urgent frame per
// registered worker, every HeartbeatEvery.
func (s *Server) heartbeatLoop() {
	defer s.wg.Done()
	//p3:wallclock-ok liveness heartbeats pace the real transport
	t := time.NewTicker(s.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		s.mu.Lock()
		ids := make([]uint8, 0, len(s.writers))
		for id := range s.writers {
			ids = append(ids, id)
		}
		s.mu.Unlock()
		for _, id := range ids {
			s.sendQ.Push(&transport.Frame{
				Type: transport.TypeHeartbeat, Sender: uint8(s.cfg.ID), Dst: id,
				Priority: heartbeatPriority,
			})
		}
	}
}

// processLoop is the consumer of the receive queue: the P3Server's
// aggregation thread.
func (s *Server) processLoop() {
	defer s.wg.Done()
	for {
		f, ok := s.recvQ.Pop()
		if !ok {
			return
		}
		switch f.Type {
		case transport.TypeInit:
			s.handleInit(f)
		case transport.TypePush:
			s.handlePush(f)
		case transport.TypePull:
			s.handlePull(f)
		}
		s.recvQ.Done(f)
		s.bufs.put(f.Values) // folded in: the body goes back (a snapshot once its destinations are done too)
	}
}

func (s *Server) handleInit(f *transport.Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.keys[f.Key]; r == nil { // first init wins; replicas agree anyway
		s.newKey(f.Key, append([]float32(nil), f.Values...)) //p3:alloc-ok a key's stored tensor is made once
	} else if len(r.param) != len(f.Values) {
		s.drops++
	}
}

// newKey makes key k from its first Init or Push, with param as its stored
// tensor, and answers the pulls parked for its initial value. Called with
// mu held.
func (s *Server) newKey(k uint64, param []float32) *reduction {
	r := &reduction{Slot: worker.NewSlots(1, s.cfg.Workers, nil)[0], param: param, sum: make([]float32, len(param))} //p3:alloc-ok a key's state is made once
	s.keys[k] = r
	s.bufs.reserve(len(param), s.cfg.Workers)
	s.parked.Release(k, -1, func(p worker.Pull) { s.answer(k, r, p) })
	return r
}

func (s *Server) handlePush(f *transport.Frame) {
	s.mu.Lock()
	r := s.keys[f.Key]
	if r == nil {
		// Push before init: treat the first push's shape as authoritative
		// with zero-initialized parameters.
		r = s.newKey(f.Key, make([]float32, len(f.Values))) //p3:alloc-ok a key's stored tensor is made once
	}
	if len(f.Values) != len(r.param) || int(f.Sender) >= s.cfg.Workers {
		// Shape mismatch (the read loop already discarded the body unread,
		// unless the key did not exist yet when it arrived), or a sender the
		// update does not wait for.
		s.drops++
		s.mu.Unlock()
		return
	}
	if r.Answerable(f.Iter) {
		// A retry of a completed iteration: the worker's reconnect path
		// re-sent a push it could not know had arrived. It counts zero and
		// is answered as a pull, so the worker also gets the broadcast it
		// may have missed.
		s.answer(f.Key, r, worker.Pull{Iter: f.Iter, Src: int32(f.Sender), Priority: f.Priority})
		s.mu.Unlock()
		return
	}
	added, complete := r.Add(f.Iter, int(f.Sender), int(f.Sender)+1, -1)
	if added == 0 {
		// A retry duplicate within the open iteration, or a push older than it.
		s.mu.Unlock()
		return
	}
	s.pushes++
	// One pass over each pushed value: the first push of an iteration is
	// copied into the sum, the middle ones are added to it, and the Nth is
	// read by the update itself, alongside the sum. With one worker the
	// first push is the Nth and the sum is never written: it stays zero.
	var snapshot []float32
	var dsts []uint8
	switch {
	case complete:
		s.updates++
		// The update leaves the new values in the Nth push's own buffer,
		// under the lock: the stored tensor mutates on later updates while
		// the send loop is still serializing this broadcast.
		s.cfg.Updater(f.Key, r.param, r.sum, f.Values, s.cfg.Workers)
		for id := range s.writers {
			dsts = append(dsts, id)
		}
		if !s.cfg.NotifyPull && len(dsts) > 0 && len(r.param) > 0 {
			// One reference per destination, beside the one processLoop drops.
			snapshot = f.Values
			s.bufs.share(snapshot, len(dsts))
		}
		s.parked.Release(f.Key, f.Iter, func(p worker.Pull) { s.answer(f.Key, r, p) })
	case r.Count() == 1:
		copy(r.sum, f.Values)
	default:
		for i, v := range f.Values {
			r.sum[i] += v
		}
	}
	s.mu.Unlock()

	if complete {
		typ := transport.TypeData
		if s.cfg.NotifyPull {
			// Stock KVStore: notify now, serve the data on explicit Pull.
			typ = transport.TypeNotify
		}
		// With immediate broadcast (P3, Section 4.2) the data goes out
		// right away — no notify/pull round trip.
		for _, id := range dsts {
			s.sendQ.Push(&transport.Frame{
				Type: typ, Sender: uint8(s.cfg.ID), Dst: id,
				Priority: f.Priority, Key: f.Key, Iter: f.Iter, Values: snapshot,
			})
		}
	}
}

// handlePull answers a pull once key holds the iteration it asks for (-1:
// the initial value) and parks it until then (worker.Parked).
func (s *Server) handlePull(f *transport.Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := worker.Pull{Iter: f.Iter, Src: int32(f.Sender), Priority: f.Priority}
	switch r := s.keys[f.Key]; {
	case int(f.Sender) >= s.cfg.Workers:
		s.drops++ // not one the update waits for, as in handlePush: parking stays bounded by Workers
	case r != nil && r.Answerable(f.Iter):
		s.answer(f.Key, r, p)
	default:
		s.parked.Park(f.Key, p)
	}
}

// answer sends pull p a copy of key k's stored tensor (r), tagged with the
// iteration it asked for. Called with mu held.
func (s *Server) answer(k uint64, r *reduction, p worker.Pull) {
	var values []float32
	if len(r.param) > 0 {
		values = s.bufs.get(len(r.param))
		copy(values, r.param)
	}
	s.sendQ.Push(&transport.Frame{
		Type: transport.TypeData, Sender: uint8(s.cfg.ID), Dst: uint8(p.Src),
		Priority: p.Priority, Key: k, Iter: p.Iter, Values: values,
	})
}

// sendLoop is the consumer of the send queue: transport.SendLoop writes one
// admitted frame at a time, most urgent first, flow-aware across the
// per-worker connections. Credit is
// returned at flush, so a credit-gated discipline bounds the
// buffered-but-unflushed backlog; a Data frame's reference on its snapshot
// is dropped at the same point, or when the frame fails or is dropped.
func (s *Server) sendLoop() {
	defer s.wg.Done()
	transport.SendLoop(s.sendQ, func(f *transport.Frame) transport.FlushWriter {
		s.mu.Lock()
		cw := s.writers[f.Dst]
		s.mu.Unlock()
		if cw == nil {
			return nil
		}
		return cw.w
	}, nil, func(f *transport.Frame) { s.bufs.put(f.Values) })
}

// heartbeatPriority ranks keep-alives ahead of all real traffic without
// sitting at the int32 extreme (rank arithmetic inside disciplines stays
// overflow-free).
const heartbeatPriority = -(1 << 20)

// ErrClosed is returned by operations on a closed worker.
var ErrClosed = errors.New("pstcp: closed")
