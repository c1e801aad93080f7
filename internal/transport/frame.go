// Package transport implements the wire protocol of the real (non-simulated)
// parameter server: length-prefixed binary frames carrying float32 tensors,
// plus the blocking scheduled queue (SendQueue) that the sender and receiver
// producer/consumer loops of Section 4.2 drain. SendQueue takes its ordering
// from a sched.Discipline — fifo for the baseline wire behaviour, p3 for the
// paper's priority mechanism, credit for a ByteScheduler-style bounded
// in-flight window, or any other discipline registered in internal/sched —
// so the transport itself is policy-free.
//
// The frame layout (little-endian):
//
//	uint32  payload length (bytes after this field)
//	uint8   type
//	uint8   sender id
//	int32   priority (lower = more urgent)
//	uint64  key (chunk id)
//	int32   iteration
//	uint32  value count
//	float32 x count values
//
// # Ownership
//
// Every float that crosses the real path has one home per hop; the codec
// itself holds none. WriteFrame encodes straight into the free space of the
// bufio.Writer it is given and ReadFrameInto decodes straight out of the
// bufio.Reader's buffer into a destination its caller chose from the
// validated header, so neither side builds a per-frame byte buffer.
//
//   - Outgoing: the caller owns the Values it queues (pstcp's Push and Init)
//     and must leave them untouched until the frame is flushed; the send loop
//     only reads them.
//   - Worker, incoming: a Data frame decodes into the buffer the worker holds
//     for that (connection, key) — allocated on the key's first Data, reused
//     ever after — so a handler's f.Values is valid until the next Data frame
//     for the same key on the same connection, and a handler that retains
//     values longer copies them.
//   - Server, incoming: a Push or Init body decodes into a buffer from the
//     server's size-keyed free list and goes back once the processing loop has
//     folded the frame in (or as soon as the read fails mid-body). A body
//     whose count disagrees with the key's stored shape takes no buffer: it
//     is discarded off the wire.
//   - Server, outgoing: one broadcast is one snapshot from the same free
//     list holding one reference per destination; the send loop's done
//     callback drops a reference when that destination's frame is flushed,
//     failed or dropped, and the last one returns the snapshot.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Frame types.
const (
	TypeInit      uint8 = iota + 1 // worker -> server: set initial parameter values
	TypePush                       // worker -> server: gradient contribution
	TypePull                       // worker -> server: request current value
	TypeData                       // server -> worker: updated parameter values
	TypeNotify                     // server -> worker: key updated (no payload)
	TypeHello                      // worker -> server: register this connection
	TypeHeartbeat                  // either direction: keep-alive, refreshes the peer's read deadline
)

// MaxFrameValues bounds a single frame's tensor payload; larger tensors must
// be sliced (which P3 does anyway). Prevents hostile/corrupt length fields
// from allocating unbounded memory.
const MaxFrameValues = 1 << 24

// headerBytes is the fixed frame size excluding the leading length field and
// the values.
const headerBytes = 1 + 1 + 4 + 8 + 4 + 4

// chunkBytes is how much of a frame's values the decoder asks its buffered
// reader for at a time. A bufio.Reader or bufio.Writer at least this large
// (bufio's default size) is used in place; anything else is wrapped in one.
const chunkBytes = 4096

var le = binary.LittleEndian

// Frame is one protocol message.
type Frame struct {
	Type     uint8
	Sender   uint8
	Priority int32
	Key      uint64
	Iter     int32
	Values   []float32

	// Dst routes an outgoing frame to a peer inside a process's send queue.
	// It is not serialized.
	Dst uint8
}

// WriteFrame serializes f to w. When w is a bufio.Writer (NewFrameWriter's)
// the frame is encoded in place into its free space, flushing only when that
// fills, and the caller flushes once the send queue momentarily drains; any
// other writer receives the whole frame before WriteFrame returns.
func WriteFrame(w io.Writer, f *Frame) error {
	if len(f.Values) > MaxFrameValues {
		return fmt.Errorf("transport: frame carries %d values, max %d", len(f.Values), MaxFrameValues)
	}
	if bw, ok := w.(*bufio.Writer); ok && bw.Size() >= chunkBytes {
		return encode(bw, f)
	}
	bw := bufio.NewWriterSize(w, chunkBytes) //p3:alloc-ok a writer the caller did not buffer: tests and tools, not the send loop
	encode(bw, f)                            // an error sticks to bw and is Flush's result
	return bw.Flush()
}

// encode is the one encode loop: header and values are written into bw's own
// buffer (AvailableBuffer), which Write then merely accounts for. A failed
// Flush sticks to bw and fails the Write that follows it.
//
//p3:noescape
func encode(bw *bufio.Writer, f *Frame) error {
	if bw.Available() < 4+headerBytes {
		bw.Flush()
	}
	b := bw.AvailableBuffer()
	b = le.AppendUint32(b, uint32(headerBytes+4*len(f.Values)))
	b = append(b, f.Type, f.Sender)
	b = le.AppendUint32(b, uint32(f.Priority))
	b = le.AppendUint64(b, f.Key)
	b = le.AppendUint32(b, uint32(f.Iter))
	b = le.AppendUint32(b, uint32(len(f.Values)))
	for vals := f.Values; ; b = bw.AvailableBuffer() {
		k := min((cap(b)-len(b))/4, len(vals))
		for _, v := range vals[:k] {
			b = le.AppendUint32(b, math.Float32bits(v))
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if vals = vals[k:]; len(vals) == 0 {
			return nil
		}
		bw.Flush() // values left over: bw has no room for another
	}
}

// ReadFrame deserializes one frame from r into freshly allocated Values.
func ReadFrame(r io.Reader) (*Frame, error) {
	return ReadFrameInto(r, func(_ *Frame, n int) []float32 { return make([]float32, n) }) //p3:alloc-ok ReadFrame's contract; the read loops choose held buffers
}

// ReadFrameInto deserializes one frame from r, decoding its values into the
// slice dst returns. dst is called once the header has been validated, with
// the frame (Values still nil) and its value count n > 0, and returns the n
// values the frame's Values then alias — or nil, in which case the values
// are discarded off the wire and Values stays nil. Nothing proportional to
// the declared count is allocated by the codec itself. A bufio.Reader
// (NewFrameReader's) is decoded from in place; any other reader is read
// exactly — the prefix, then no further than the length it declares — so a
// stream of frames can be read one call at a time.
func ReadFrameInto(r io.Reader, dst func(f *Frame, n int) []float32) (*Frame, error) {
	if br, ok := r.(*bufio.Reader); ok && br.Size() >= chunkBytes {
		return decode(br, dst)
	}
	var pre [4 + headerBytes]byte //p3:alloc-ok a reader the caller did not buffer: tests and tools, not the read loops
	n, err := io.ReadFull(r, pre[:])
	if n == 0 {
		return nil, err
	}
	rest := io.LimitReader(r, int64(le.Uint32(pre[:]))-headerBytes)
	return decode(bufio.NewReaderSize(io.MultiReader(bytes.NewReader(pre[:n]), rest), chunkBytes), dst)
}

// truncated wraps the error of a read that ended inside a frame.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("transport: truncated frame: %w", err)
}

// decode is the one decode loop: the header is validated before anything
// else is read or allocated, then the values are converted chunk by chunk
// out of r's buffer (Peek, Discard) into the destination.
//
//p3:noescape
func decode(r *bufio.Reader, dst func(*Frame, int) []float32) (*Frame, error) {
	h, err := r.Peek(4 + headerBytes)
	if len(h) == 0 {
		return nil, err // io.EOF propagates cleanly on clean shutdown
	}
	if err != nil {
		return nil, truncated(err)
	}
	n, count := le.Uint32(h), le.Uint32(h[22:])
	if count > MaxFrameValues || uint64(n) != headerBytes+4*uint64(count) {
		return nil, fmt.Errorf("transport: invalid frame: length %d declaring %d values", n, count) //p3:alloc-ok error path
	}
	f := &Frame{ //p3:alloc-ok the frame itself: queues and handlers retain it
		Type:     h[4],
		Sender:   h[5],
		Priority: int32(le.Uint32(h[6:])),
		Key:      le.Uint64(h[10:]),
		Iter:     int32(le.Uint32(h[18:])),
	}
	r.Discard(4 + headerBytes)
	if count > 0 {
		f.Values = dst(f, int(count))
	}
	vals := f.Values
	for rem := int(count); rem > 0; {
		k := min(rem, chunkBytes/4)
		b, err := r.Peek(4 * k)
		if err != nil {
			return nil, truncated(err)
		}
		if vals != nil {
			for i := range vals[:k] {
				vals[i] = math.Float32frombits(le.Uint32(b))
				b = b[4:]
			}
			vals = vals[k:]
		}
		r.Discard(4 * k)
		rem -= k
	}
	return f, nil
}

// NewFrameWriter returns a buffered writer sized for typical slice frames.
func NewFrameWriter(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, 256<<10) }

// NewFrameReader returns a buffered reader sized for typical slice frames.
func NewFrameReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 256<<10) }
