package transport

import (
	"bytes"
	"io"
	"math"
	"p3/internal/sched"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Type: TypePush, Sender: 3, Priority: -7, Key: 123456789, Iter: 42,
		Values: []float32{1.5, -2.25, 0, math.MaxFloat32},
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFrame(got, f) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(typ, sender uint8, prio int32, key uint64, iter int32, vals []float32) bool {
		in := &Frame{Type: typ, Sender: sender, Priority: prio, Key: key, Iter: iter, Values: vals}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return sameFrame(out, in) // bit patterns: NaN != NaN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyPayloadFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Frame{Type: TypeHello, Sender: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeHello || len(got.Values) != 0 {
		t.Fatalf("hello round trip: %+v", got)
	}
}

func TestMultipleFramesStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		if err := WriteFrame(&buf, &Frame{Type: TypePush, Key: uint64(i), Values: []float32{float32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != uint64(i) || got.Values[0] != float32(i) {
			t.Fatalf("frame %d out of order: %+v", i, got)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, &Frame{Type: TypePush, Values: []float32{1, 2, 3}})
	raw := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestCorruptLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("absurd length accepted")
	}
	raw = []byte{1, 0, 0, 0, 0} // below header size
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("undersized length accepted")
	}
}

func TestCorruptCount(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, &Frame{Type: TypePush, Values: []float32{1, 2}})
	raw := buf.Bytes()
	// Corrupt the declared value count (offset 4+18 = 22).
	raw[22] = 99
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("count/length mismatch accepted")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	f := &Frame{Type: TypePush, Values: make([]float32, MaxFrameValues+1)}
	if err := WriteFrame(io.Discard, f); err == nil {
		t.Fatal("oversize frame written")
	}
}

// ---- SendQueue ----

func TestQueueFIFO(t *testing.T) {
	q := NewSendQueue(sched.NewFIFO())
	for i := int32(0); i < 5; i++ {
		q.Push(&Frame{Iter: i, Priority: -i}) // priorities would reverse it
	}
	for i := int32(0); i < 5; i++ {
		f, ok := q.Pop()
		if !ok || f.Iter != i {
			t.Fatalf("FIFO pop %d = %+v", i, f)
		}
	}
}

func TestQueuePriority(t *testing.T) {
	q := NewSendQueue(sched.NewP3Priority())
	for _, p := range []int32{5, 1, 3, 1, 4} {
		q.Push(&Frame{Priority: p})
	}
	want := []int32{1, 1, 3, 4, 5}
	for i, w := range want {
		f, _ := q.Pop()
		if f.Priority != w {
			t.Fatalf("pop %d priority %d, want %d", i, f.Priority, w)
		}
	}
}

func TestQueueBlockingPop(t *testing.T) {
	q := NewSendQueue(sched.NewP3Priority())
	done := make(chan *Frame)
	go func() {
		f, _ := q.Pop()
		done <- f
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(&Frame{Key: 7})
	select {
	case f := <-done:
		if f.Key != 7 {
			t.Fatalf("popped %+v", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop never woke up")
	}
}

func TestQueueCloseWakesConsumers(t *testing.T) {
	q := NewSendQueue(sched.NewFIFO())
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := q.Pop(); ok {
				t.Error("closed empty queue returned a frame")
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	wg.Wait()
	// Push after close is a no-op.
	q.Push(&Frame{})
	if q.Len() != 0 {
		t.Fatal("push after close landed")
	}
}

func TestQueueDrainAfterClose(t *testing.T) {
	q := NewSendQueue(sched.NewFIFO())
	q.Push(&Frame{Key: 1})
	q.Push(&Frame{Key: 2})
	q.Close()
	f, ok := q.Pop()
	if !ok || f.Key != 1 {
		t.Fatalf("drain after close: %+v %v", f, ok)
	}
	if f, ok := q.TryPop(); !ok || f.Key != 2 {
		t.Fatalf("TryPop after close: %+v %v", f, ok)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on drained queue returned a frame")
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	q := NewSendQueue(sched.NewP3Priority())
	const producers, per = 8, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Push(&Frame{Priority: int32(p*per + i)})
			}
		}(p)
	}
	wg.Wait()
	if q.Len() != producers*per {
		t.Fatalf("queue has %d frames", q.Len())
	}
	last := int32(-1)
	for q.Len() > 0 {
		f, _ := q.Pop()
		if f.Priority < last {
			t.Fatal("priority order violated")
		}
		last = f.Priority
	}
}
