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
// The values are exactly the in-memory layout of a little-endian []float32,
// so on a little-endian host a body is copied whole, never converted value by
// value: into the writer's free space on encode; on decode, what is already
// buffered out of the reader's buffer and the rest straight off the
// connection into the destination. A big-endian host runs the same copies,
// then reverses each 4-byte word in place where the bytes landed — in the
// writer's buffer on encode, in the destination on decode.
//
// # Ownership
//
// Every float that crosses the real path has one home per hop; the codec
// itself holds none. WriteFrame encodes straight into the free space of the
// bufio.Writer it is given and ReadFrameInto decodes out of the
// bufio.Reader's buffer, or past it off the connection, into a destination
// its caller chose from the validated header, so neither side builds a
// per-frame byte buffer.
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
//   - Server, outgoing: one broadcast is one snapshot — the body of the push
//     that completed the update, overwritten with the updated values —
//     holding one reference per destination; the send loop's done callback
//     drops a reference when that destination's frame is flushed, failed or
//     dropped, and the last one returns the snapshot to the free list.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
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

// chunkBytes is the smallest bufio.Reader or bufio.Writer the codec uses in
// place (bufio's default size); anything else is wrapped in one this large.
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

// encode is the one encode loop: the header and then the body's bytes are
// written into bw's own buffer (AvailableBuffer), which Write then merely
// accounts for; a body larger than the free space goes one buffer's worth
// of whole words at a time, so a big-endian host can swap each word where it
// lands. A failed Flush sticks to bw and fails the Write that follows it.
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
	for body := floatBytes(f.Values); ; b = bw.AvailableBuffer() {
		n := len(b)
		k := min((cap(b)-n)&^3, len(body))
		b = append(b, body[:k]...)
		if bigEndian {
			swapWords(b[n:])
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if body = body[k:]; len(body) == 0 {
			return nil
		}
		bw.Flush() // bytes left over: bw has no room for another word
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
// else is read or allocated, then the body is copied into the destination's
// bytes — the part already buffered out of r's buffer (Peek, Discard), the
// rest read straight from the connection (io.ReadFull) — or discarded off the
// wire when there is no destination.
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
	if count == 0 {
		return f, nil
	}
	if f.Values = dst(f, int(count)); f.Values == nil {
		if _, err := r.Discard(4 * int(count)); err != nil {
			return nil, truncated(err)
		}
		return f, nil
	}
	body := floatBytes(f.Values)[:4*count]
	buffered, _ := r.Peek(min(r.Buffered(), len(body)))
	k, _ := r.Discard(copy(body, buffered))
	if k < len(body) {
		if _, err := io.ReadFull(r, body[k:]); err != nil {
			return nil, truncated(err)
		}
	}
	if bigEndian {
		swapWords(body)
	}
	return f, nil
}

// floatBytes views v as its in-memory bytes. The wire carries float32s
// little-endian, so on a little-endian host these are the wire's bytes and a
// body moves with one copy; a big-endian host swaps them word by word where
// they land.
func floatBytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// bigEndian reports whether this host stores a float32 most significant byte
// first, the reverse of the wire.
var bigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// swapWords reverses the byte order of every 4-byte word of b in place,
// turning float32 memory into wire order and back on a big-endian host.
func swapWords(b []byte) {
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}

// NewFrameWriter returns a buffered writer sized for typical slice frames.
func NewFrameWriter(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, 256<<10) }

// NewFrameReader returns a buffered reader sized for typical slice frames.
func NewFrameReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 256<<10) }
