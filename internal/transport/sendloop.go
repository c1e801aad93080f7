package transport

import (
	"errors"
	"io"
)

// FlushWriter is the buffered per-connection writer the send loop serializes
// frames into.
type FlushWriter interface {
	io.Writer
	Flush() error
}

// ErrNoWriter is the error SendLoop hands its onErr callback for a
// frame whose destination has no writer right now (never registered, or
// its connection is down awaiting a reconnect).
var ErrNoWriter = errors.New("transport: no writer for destination")

// SendLoop is the consumer thread of Section 4.2, shared by the worker and
// server sides of pstcp: it drains q until the queue is closed and empty,
// writing each admitted frame whole to the writer sink resolves for it (a
// nil sink result drops the frame — e.g. a destination that never
// registered). Credit bookkeeping follows the batch-flush protocol: a
// popped frame's credit is returned (Done) when the loop flushes, which
// happens whenever nothing is admitted — so a credit-gated discipline
// bounds the buffered-but-unflushed backlog.
//
// Both callbacks may be nil. onErr is the error path: every popped frame
// that did not make it onto the wire — nil sink (ErrNoWriter), write error,
// or a failed flush — is handed to it instead of being acknowledged, with
// the writer that failed (nil for ErrNoWriter): by the time a buffered
// frame's flush fails, its destination may already be on a fresh writer. The
// callback owns the frame's credit from that point: it must eventually
// Requeue (retry on a fresh connection) or Cancel it on the queue.
// Duplicates are possible — a flush error cannot tell how many buffered
// bytes reached the peer before the connection died — so receivers retried
// through this path must deduplicate (pstcp servers track a per-iteration
// seen-sender set). Without onErr the loop is fire-and-forget:
// undeliverable frames are dropped with their credit returned.
//
// done is called once per frame, after its credit is returned, when the
// loop has finished with it for good — flushed, or failed or dropped with
// no onErr to take it: the point at which the owner of the frame's Values
// may reuse them.
func SendLoop(q *SendQueue, sink func(*Frame) FlushWriter, onErr func(*Frame, FlushWriter, error), done func(*Frame)) {
	pending := make(map[FlushWriter][]*Frame) // written, not yet flushed/acked
	var spare [][]*Frame                      // emptied pending slices, reused by the next writer to need one
	finish := q.Done
	if done != nil {
		finish = func(f *Frame) { q.Done(f); done(f) }
	}
	fail := func(f *Frame, w FlushWriter, err error) {
		if onErr != nil {
			onErr(f, w, err)
		} else {
			finish(f)
		}
	}
	flushAll := func() {
		for w, fs := range pending {
			err := w.Flush()
			for _, f := range fs {
				if err != nil {
					fail(f, w, err)
				} else {
					finish(f)
				}
			}
			clear(fs)
			spare = append(spare, fs[:0])
			delete(pending, w)
		}
	}
	for {
		f, ok := q.TryPop()
		if !ok {
			// Nothing admitted right now — either the queue is empty or the
			// credit window is full of unflushed frames. Flush, return their
			// credit, then block for the next admitted frame.
			flushAll()
			if f, ok = q.Pop(); !ok {
				flushAll()
				return
			}
		}
		w := sink(f)
		if w == nil {
			fail(f, nil, ErrNoWriter)
			continue
		}
		if err := WriteFrame(w, f); err != nil {
			fail(f, w, err)
			continue
		}
		fs, ok := pending[w]
		if !ok && len(spare) > 0 {
			fs, spare = spare[len(spare)-1], spare[:len(spare)-1]
		}
		pending[w] = append(fs, f)
	}
}
