package transport

import (
	"bytes"
	"testing"

	"p3/internal/sched"
)

// bufSink is an in-memory FlushWriter.
type bufSink struct{ bytes.Buffer }

func (b *bufSink) Flush() error { return nil }

// TestSendLoopWholeFrames: every frame is written whole, in the
// discipline's order, with its credit returned on flush.
func TestSendLoopWholeFrames(t *testing.T) {
	q := NewSendQueue(sched.NewCreditGated(1 << 20))
	var sink bufSink
	for i := 0; i < 5; i++ {
		q.Push(&Frame{Type: TypePush, Priority: int32(i), Key: uint64(i), Values: make([]float32, 64)})
	}
	q.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		SendLoop(q, func(*Frame) FlushWriter { return &sink }, nil, nil)
	}()
	<-done
	for i := 0; i < 5; i++ {
		f, err := ReadFrame(&sink.Buffer)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Key != uint64(i) {
			t.Fatalf("frame %d: key %d, want priority order", i, f.Key)
		}
	}
}
