package transport

import (
	"sync"

	"p3/internal/sched"
)

// SendQueue is the blocking scheduled queue behind every producer/consumer
// pair in the real transport (Section 4.2): producers enqueue frames as
// gradients become ready, a single consumer goroutine pops the most urgent
// frame and performs the blocking network write. The ordering — and any
// credit gating — comes from the sched.Discipline supplied at construction:
// fifo reproduces the baseline, p3 the paper's priority mechanism, credit a
// ByteScheduler-style bounded preemption window.
//
// The underlying sched.Queue is per-flow (keyed by Frame.Dst), so under a
// credit-gated discipline a destination whose window is exhausted never
// blocks admissible frames bound for other destinations: Pop and TryPop
// dispatch the most urgent admissible flow head (flow-aware head skipping),
// all under the queue's one mutex/condvar.
type SendQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       *sched.Queue[*Frame]
	waiters int // consumers parked in cond.Wait
	closed  bool
}

// frameItem is the scheduler-visible view of a frame: the wire priority,
// the payload size, and the destination endpoint (the flow key of
// per-destination disciplines such as credit-adaptive). The sending
// endpoint is a property of the whole queue, injected into source-aware
// disciplines via sched.ApplySource by the queue's owner (pstcp).
func frameItem(f *Frame) sched.Item {
	return sched.Item{Priority: f.Priority, Bytes: 4 * int64(len(f.Values)), Dest: int32(f.Dst)}
}

// NewSendQueue creates a queue ordered by d. d must be a fresh discipline
// instance (stateful disciplines carry per-queue state); obtain one from
// sched.ByName.
func NewSendQueue(d sched.Discipline) *SendQueue {
	s := &SendQueue{q: sched.NewQueue(d, frameItem)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// signal wakes one parked consumer, if any. Tracking the waiter count keeps
// the producer fast path free of the condvar's notify list when the consumer
// is keeping up (the common case under load); callers must hold s.mu.
func (s *SendQueue) signal() {
	if s.waiters > 0 {
		s.cond.Signal()
	}
}

// Push enqueues a frame. Pushing to a closed queue is a no-op.
func (s *SendQueue) Push(f *Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.q.Push(f)
	s.signal()
}

// Pop blocks until a frame is admitted by the discipline or the queue is
// closed. The second result is false once the queue is closed and drained.
// With a credit-gated discipline the caller must Done every popped frame
// once its write completes, or the window fills and Pop blocks forever.
func (s *SendQueue) Pop() (*Frame, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		if f, ok := s.q.PopReady(); ok {
			return f, true
		}
		s.waiters++
		s.cond.Wait()
		s.waiters--
	}
	// Closed: drain without the credit gate — the consumer is shutting
	// down and acknowledgements may never come.
	return s.q.Pop()
}

// TryPop pops without blocking; the second result is false if nothing is
// queued or the discipline refuses to admit every flow head right now.
func (s *SendQueue) TryPop() (*Frame, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.q.Pop()
	}
	return s.q.PopReady()
}

// Done releases f's in-flight credit and wakes a consumer that may now be
// admitted. Call it once per popped frame after the blocking write
// completes. For a discipline without a credit window the release is a
// no-op and nothing new can become admissible, so ungated queues skip the
// lock round-trip entirely — Done costs nothing on the fifo/p3 hot path
// (whether a queue is gated is fixed at construction, so the check needs
// no lock).
func (s *SendQueue) Done(f *Frame) {
	if !s.q.Gated() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q.Done(f)
	s.signal()
}

// Cancel releases f's in-flight credit without signalling a completion —
// the caller backed out of the write (the frame was never put on the wire),
// so adaptive disciplines must not tune their windows on it. The refund is
// routed by f's own destination, so a flow skipped at dispatch never
// absorbs another flow's refund.
func (s *SendQueue) Cancel(f *Frame) {
	if !s.q.Gated() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q.Cancel(f)
	s.signal()
}

// Requeue returns a popped-but-unacknowledged frame to the queue — the
// reconnect path's primitive: the frame's write failed (or its connection
// died before the flush), so its in-flight credit is refunded as a Cancel
// (the bytes never reached the peer; adaptive windows must not tune on
// them) and the frame rejoins the schedule to be retried on the next
// connection. Requeueing on a closed queue refunds the credit but drops
// the frame: the consumer is shutting down and no retry is coming.
func (s *SendQueue) Requeue(f *Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q.Cancel(f)
	if !s.closed {
		s.q.Push(f)
	}
	s.signal()
}

// SetProfile installs a (re)calibrated timing profile on the queue's
// discipline when it is profile-aware (tictac, damped:tictac); a no-op
// otherwise. It is the runtime hook of the calibrated mode: a worker or
// server that has measured its real per-layer stalls swaps in the profile
// rebuilt from them (strategy.CalibrateProfile) without tearing the queue
// down. Frames already queued are re-ordered under the new profile
// (sched.Queue.SetProfile rebuilds the heaps, so the swap is safe
// mid-traffic); in-flight credit is untouched.
func (s *SendQueue) SetProfile(p *sched.Profile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.q.SetProfile(p)
	s.signal()
}

// Len reports the queued frame count.
func (s *SendQueue) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.Len()
}

// Close wakes all blocked consumers; queued frames may still be drained via
// Pop/TryPop.
func (s *SendQueue) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}
