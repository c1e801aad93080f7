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

// ErrNoWriter is the error SendLoopErr hands its onErr callback for a
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
func SendLoop(q *SendQueue, sink func(*Frame) FlushWriter) {
	SendLoopErr(q, sink, nil)
}

// SendLoopErr is SendLoop with an error path: every popped frame that did
// not make it onto the wire — nil sink (ErrNoWriter), write error, or a
// failed flush — is handed to onErr instead of being acknowledged. The
// callback owns the frame's credit from that point: it must eventually
// Requeue (retry on a fresh connection) or Cancel it on the queue.
// Duplicates are possible — a flush error cannot tell how many buffered
// bytes reached the peer before the connection died — so receivers retried
// through this path must deduplicate (pstcp servers track a per-iteration
// seen-sender set). A nil onErr restores SendLoop's fire-and-forget
// semantics: undeliverable frames are dropped with their credit returned.
func SendLoopErr(q *SendQueue, sink func(*Frame) FlushWriter, onErr func(*Frame, error)) {
	pending := make(map[FlushWriter][]*Frame) // written, not yet flushed/acked
	fail := func(f *Frame, err error) {
		if onErr != nil {
			onErr(f, err)
		} else {
			q.Done(f)
		}
	}
	flushAll := func() {
		for w, fs := range pending {
			err := w.Flush()
			for _, f := range fs {
				if err != nil {
					fail(f, err)
				} else {
					q.Done(f)
				}
			}
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
			fail(f, ErrNoWriter)
			continue
		}
		if err := WriteFrame(w, f); err != nil {
			fail(f, err)
			continue
		}
		pending[w] = append(pending[w], f)
	}
}
