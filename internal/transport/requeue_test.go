package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"p3/internal/sched"
)

// TestRequeueRefundsCreditAndReschedules: a popped-but-unacknowledged frame
// returned via Requeue must refund its in-flight credit (the window frees up
// for other traffic) and rejoin the schedule to be popped again.
func TestRequeueRefundsCreditAndReschedules(t *testing.T) {
	q := NewSendQueue(sched.NewCreditGated(100))
	f := &Frame{Priority: 5, Values: make([]float32, 20)} // 80 bytes
	other := &Frame{Priority: 9, Values: make([]float32, 20)}
	q.Push(f)
	q.Push(other)
	got, ok := q.TryPop()
	if !ok || got != f {
		t.Fatalf("first pop = %+v, want the urgent frame", got)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("second frame admitted with the window full")
	}
	q.Requeue(f) // write failed: credit back, frame rescheduled
	if got, ok = q.TryPop(); !ok || got != f {
		t.Fatalf("post-Requeue pop = (%+v,%v), want the requeued frame", got, ok)
	}
	q.Done(f)
	if got, ok = q.TryPop(); !ok || got != other {
		t.Fatalf("final pop = (%+v,%v), want the other frame", got, ok)
	}
	q.Done(other)
}

// TestRequeueOnClosedQueueDropsButRefunds: requeueing after Close must not
// resurrect the frame (no retry is coming) but still refunds its credit so
// the drain stays balanced.
func TestRequeueOnClosedQueueDropsButRefunds(t *testing.T) {
	q := NewSendQueue(sched.NewCreditGated(100))
	f := &Frame{Priority: 1, Values: make([]float32, 20)}
	q.Push(f)
	if _, ok := q.TryPop(); !ok {
		t.Fatal("pop failed")
	}
	q.Close()
	q.Requeue(f)
	if _, ok := q.Pop(); ok {
		t.Fatal("closed queue resurrected a requeued frame")
	}
}

// errWriter fails every write after the first n bytes worth of calls.
type errWriter struct {
	err      error
	failNow  bool
	writes   int
	flushErr error
}

func (w *errWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failNow {
		return 0, w.err
	}
	return len(p), nil
}

func (w *errWriter) Flush() error { return w.flushErr }

// TestSendLoopErrRoutesFailuresToCallback: frames whose destination has no
// writer, whose write errors, or whose flush errors must reach onErr with
// their credit still held — and a Requeue from the callback retries them on
// the writer that exists by then.
func TestSendLoopErrRoutesFailuresToCallback(t *testing.T) {
	q := NewSendQueue(sched.NewP3Priority())
	good := &errWriter{}
	bad := &errWriter{err: errors.New("broken pipe"), failNow: true}

	var mu sync.Mutex
	failCh := make(chan error, 8)

	// Dst 0 has no writer; dst 1 fails writes until flipped; dst 2 works.
	writers := map[uint8]FlushWriter{1: bad, 2: good}
	retried := map[*Frame]bool{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		SendLoop(q, func(f *Frame) FlushWriter {
			if w, ok := writers[f.Dst]; ok {
				return w
			}
			return nil
		}, func(f *Frame, w FlushWriter, err error) {
			mu.Lock()
			// The error path names the writer that failed: none for a
			// destination without one, the broken one for a write error.
			if want := writers[f.Dst]; w != want {
				t.Errorf("frame for dst %d failed on writer %v, want %v", f.Dst, w, want)
			}
			if !errors.Is(err, ErrNoWriter) {
				bad.failNow = false // "reconnected": the retry must succeed
			}
			if !retried[f] {
				retried[f] = true
				q.Requeue(f)
			} else {
				q.Cancel(f)
			}
			mu.Unlock()
			failCh <- err
		}, nil)
	}()

	noWriter := &Frame{Type: TypePush, Dst: 0, Key: 10}
	flaky := &Frame{Type: TypePush, Dst: 1, Key: 11}
	clean := &Frame{Type: TypePush, Dst: 2, Key: 12}
	q.Push(noWriter)
	q.Push(flaky)
	q.Push(clean)

	// Close only after both failure kinds surfaced, so the retry Requeue
	// happens on a live queue.
	var sawNoWriter, sawWriteErr bool
	timeout := time.After(5 * time.Second)
	for !(sawNoWriter && sawWriteErr) {
		select {
		case err := <-failCh:
			if errors.Is(err, ErrNoWriter) {
				sawNoWriter = true
			} else if err != nil {
				sawWriteErr = true
			}
		case <-timeout:
			t.Fatalf("failures never surfaced (sawNoWriter=%v sawWriteErr=%v)", sawNoWriter, sawWriteErr)
		}
	}
	q.Close()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if !retried[flaky] && !retried[noWriter] {
		t.Error("no failed frame was retried")
	}
	// The flaky frame's retry must have landed on a writer: after failNow is
	// cleared, dst 1 accepts the write.
	if bad.writes < 2 {
		t.Errorf("flaky writer saw %d writes, want the original attempt plus the retry", bad.writes)
	}
	if good.writes == 0 {
		t.Error("clean frame never written")
	}
}
