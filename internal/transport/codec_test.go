package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// refWriteFrame and refReadFrame are the codec as it stood before frames
// were encoded into the writer's own buffer and decoded into buffers their
// owner already holds (commit de6571e), kept verbatim as the reference the
// differential and fuzz tests compare against: the wire format must stay
// byte-identical and the decoder must accept exactly what this one accepts.
// (One exception, pinned by TestCountOverflowRejected: the reference compares
// count against length in uint32, where 4*count wraps.)
func refWriteFrame(w io.Writer, f *Frame) error {
	if len(f.Values) > MaxFrameValues {
		return fmt.Errorf("transport: frame carries %d values, max %d", len(f.Values), MaxFrameValues)
	}
	var hdr [4 + headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(headerBytes+4*len(f.Values)))
	hdr[4] = f.Type
	hdr[5] = f.Sender
	binary.LittleEndian.PutUint32(hdr[6:], uint32(f.Priority))
	binary.LittleEndian.PutUint64(hdr[10:], f.Key)
	binary.LittleEndian.PutUint32(hdr[18:], uint32(f.Iter))
	binary.LittleEndian.PutUint32(hdr[22:], uint32(len(f.Values)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Values) == 0 {
		return nil
	}
	buf := make([]byte, 4*len(f.Values))
	for i, v := range f.Values {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func refReadFrame(r io.Reader) (*Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err // io.EOF propagates cleanly on clean shutdown
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n < headerBytes || n > headerBytes+4*MaxFrameValues {
		return nil, fmt.Errorf("transport: invalid frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("transport: truncated frame: %w", err)
	}
	f := &Frame{
		Type:     body[0],
		Sender:   body[1],
		Priority: int32(binary.LittleEndian.Uint32(body[2:])),
		Key:      binary.LittleEndian.Uint64(body[6:]),
		Iter:     int32(binary.LittleEndian.Uint32(body[14:])),
	}
	count := binary.LittleEndian.Uint32(body[18:])
	if uint32(len(body)-headerBytes) != 4*count {
		return nil, fmt.Errorf("transport: frame declares %d values but carries %d bytes",
			count, len(body)-headerBytes)
	}
	if count > 0 {
		f.Values = make([]float32, count)
		for i := range f.Values {
			f.Values[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[headerBytes+4*i:]))
		}
	}
	return f, nil
}

// readers returns the two kinds of reader the decoder distinguishes over
// the same bytes: a FrameReader, decoded from in place, and a bare reader,
// read exactly.
func readers(wire []byte) map[string]io.Reader {
	return map[string]io.Reader{
		"FrameReader": NewFrameReader(bytes.NewReader(wire)),
		"bare":        bytes.NewReader(wire),
	}
}

// refAccepts is the reference's verdict on data — and the value count it
// decoded — without paying for its two mistakes: it allocates the declared
// length before reading a byte of it, so a length the data cannot fill is
// decided here, and its count check wraps (see TestCountOverflowRejected),
// so a count past MaxFrameValues is too.
func refAccepts(data []byte) (ok bool, count int) {
	if len(data) < 4 {
		return false, 0
	}
	if n := le.Uint32(data); n < headerBytes || n > headerBytes+4*MaxFrameValues || int(n) > len(data)-4 {
		return false, 0
	}
	if le.Uint32(data[22:]) > MaxFrameValues {
		return false, 0
	}
	f, err := refReadFrame(bytes.NewReader(data))
	if err != nil {
		return false, 0
	}
	return true, len(f.Values)
}

func sameFrame(a, b *Frame) bool {
	if a.Type != b.Type || a.Sender != b.Sender || a.Priority != b.Priority ||
		a.Key != b.Key || a.Iter != b.Iter || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		// NaN != NaN: compare bit patterns.
		if math.Float32bits(a.Values[i]) != math.Float32bits(b.Values[i]) {
			return false
		}
	}
	return true
}

func randomFrame(rng *rand.Rand, n int) *Frame {
	f := &Frame{
		Type: uint8(rng.Uint32()), Sender: uint8(rng.Uint32()), Priority: int32(rng.Uint32()),
		Key: rng.Uint64(), Iter: int32(rng.Uint32()), Values: make([]float32, n),
	}
	for i := range f.Values {
		f.Values[i] = math.Float32frombits(rng.Uint32()) // NaNs and denormals included
	}
	return f
}

// TestCodecMatchesReference: over seeded random frames the new encoder's
// bytes equal the reference's — through a FrameWriter, where successive
// frames start at every offset of the 256 KiB buffer, and through a bare
// writer — and the new decoder returns the reference's frame, or an error
// wherever the reference does, on the intact wire and on corrupted copies.
func TestCodecMatchesReference(t *testing.T) {
	const bufValues = (256 << 10) / 4
	counts := []int{0, 1, 2, 3, 5, 1023, 1024, 1025, 50_000,
		bufValues - 7, bufValues - 6, bufValues - 5, bufValues - 1, bufValues, bufValues + 1, 2*bufValues + 3}
	for _, seed := range []uint64{1, 2, 3} {
		if seed == 3 && !testing.Short() && !raceEnabled {
			counts = append(counts, MaxFrameValues) // 64 MiB: once
		}
		rng := rand.New(rand.NewPCG(seed, 0x70336672616d65))
		var ref, stream bytes.Buffer
		fw := NewFrameWriter(&stream)
		for _, n := range counts {
			f := randomFrame(rng, n)
			var one, bare bytes.Buffer
			if err := refWriteFrame(&one, f); err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(&bare, f); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bare.Bytes(), one.Bytes()) {
				t.Fatalf("seed %d, %d values: bytes written to a bare writer differ from the reference", seed, n)
			}
			for name, r := range readers(one.Bytes()) {
				got, err := ReadFrame(r)
				if err != nil || !sameFrame(got, f) {
					t.Fatalf("seed %d, %d values, %s: decoded frame differs (err %v)", seed, n, name, err)
				}
			}
			if n > 2*bufValues+3 {
				continue // the 64 MiB frame is checked alone, not again in the stream
			}
			ref.Write(one.Bytes())
			if err := WriteFrame(fw, f); err != nil {
				t.Fatal(err)
			}
			checkCorruptions(t, rng, one.Bytes())
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream.Bytes(), ref.Bytes()) {
			t.Fatalf("seed %d: a stream of frames through one FrameWriter differs from the reference bytes", seed)
		}
		// The stream decodes frame by frame on both kinds of reader, and a
		// bare reader is never read past the frame asked for.
		for name, r := range readers(stream.Bytes()) {
			rr := bytes.NewReader(ref.Bytes())
			for i := 0; ; i++ {
				want, werr := refReadFrame(rr)
				got, err := ReadFrame(r)
				if (err == nil) != (werr == nil) {
					t.Fatalf("seed %d, %s, frame %d: err %v, reference %v", seed, name, i, err, werr)
				}
				if werr != nil {
					if err != io.EOF {
						t.Fatalf("seed %d, %s: end of stream is %v, want io.EOF", seed, name, err)
					}
					break
				}
				if !sameFrame(got, want) {
					t.Fatalf("seed %d, %s, frame %d differs from the reference", seed, name, i)
				}
			}
		}
	}
}

// checkCorruptions damages one encoded frame the ways a broken peer does —
// cut short at a random byte, a flipped length or count byte — and requires
// accept/reject agreement with the reference.
func checkCorruptions(t *testing.T, rng *rand.Rand, wire []byte) {
	t.Helper()
	cases := [][]byte{wire[:rng.IntN(len(wire))]}
	for _, off := range []int{0, 1, 2, 3, 22, 23, 24, 25} {
		c := bytes.Clone(wire)
		c[off] ^= 1 << rng.IntN(8)
		cases = append(cases, c)
	}
	for i, c := range cases {
		want, _ := refAccepts(c)
		for name, r := range readers(c) {
			if _, err := ReadFrame(r); (err == nil) != want {
				t.Fatalf("corruption %d of a %d-byte frame, %s: err %v, reference accepts: %v", i, len(wire), name, err, want)
			}
		}
	}
}

// TestCountOverflowRejected: a count whose byte size wraps uint32 to match
// a tiny length (count 2^30+1 against a 4-byte body) must be rejected. The
// reference accepted the header, allocated 4 GiB and indexed past the body.
func TestCountOverflowRejected(t *testing.T) {
	wire := make([]byte, 4+headerBytes+4)
	le.PutUint32(wire, headerBytes+4)
	le.PutUint32(wire[22:], 1<<30+1)
	for name, r := range readers(wire) {
		if _, err := ReadFrame(r); err == nil {
			t.Fatalf("%s: wrapped value count accepted", name)
		}
	}
}

// FuzzReadFrame: arbitrary bytes never panic the decoder, never yield a
// frame whose Values differ in number from the declared count, and are
// accepted exactly when the reference accepts them.
func FuzzReadFrame(f *testing.F) {
	enc := func(fr *Frame) []byte {
		var b bytes.Buffer
		refWriteFrame(&b, fr)
		return b.Bytes()
	}
	three := enc(&Frame{Type: TypePush, Values: []float32{1, 2, 3}})
	f.Add(three)
	f.Add(three[:len(three)-2])                       // TestTruncatedFrame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // TestCorruptLength: absurd
	f.Add([]byte{1, 0, 0, 0, 0})                      // TestCorruptLength: below header size
	corrupt := enc(&Frame{Type: TypePush, Values: []float32{1, 2}})
	corrupt[22] = 99 // TestCorruptCount
	f.Add(corrupt)
	f.Add(enc(&Frame{Type: TypeHello, Sender: 1}))
	f.Add(append(enc(&Frame{Type: TypeData, Key: 9, Iter: -1, Values: make([]float32, 1500)}), three...))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, declared := refAccepts(data)
		for name, r := range readers(data) {
			got, err := ReadFrame(r)
			if (err == nil) != want {
				t.Fatalf("%s: err %v, reference accepts: %v", name, err, want)
			}
			if err == nil && len(got.Values) != declared {
				t.Fatalf("%s: %d values for a declared count of %d", name, len(got.Values), declared)
			}
		}
	})
}

// TestWriteFrameAllocatesNothing: encoding into a FrameWriter costs 0
// allocations per frame, small or slice-sized.
func TestWriteFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, n := range []int{16, 50_000} {
		f := &Frame{Type: TypePush, Key: 7, Values: make([]float32, n)}
		w := NewFrameWriter(io.Discard)
		allocs := testing.AllocsPerRun(100, func() {
			if err := WriteFrame(w, f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%d values: %v allocs per WriteFrame, want 0", n, allocs)
		}
	}
}

// TestReadFrameIntoAllocatesTheFrameOnly: with the destination already
// held, decoding from a FrameReader costs the Frame and nothing else.
func TestReadFrameIntoAllocatesTheFrameOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, n := range []int{16, 50_000} {
		var wire bytes.Buffer
		if err := WriteFrame(&wire, &Frame{Type: TypeData, Key: 7, Values: make([]float32, n)}); err != nil {
			t.Fatal(err)
		}
		held := make([]float32, n)
		dst := func(*Frame, int) []float32 { return held }
		src := bytes.NewReader(nil)
		r := NewFrameReader(src)
		allocs := testing.AllocsPerRun(100, func() {
			src.Reset(wire.Bytes())
			r.Reset(src)
			if f, err := ReadFrameInto(r, dst); err != nil || len(f.Values) != n {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%d values: %v allocs per ReadFrameInto, want at most 1 (the Frame)", n, allocs)
		}
	}
}

// TestTruncatedHugeFrameCostsOneDestination: a header declaring 16 M values
// followed by a hundred bytes costs the decoder nothing proportional to the
// declared count — bare ReadFrame pays for its one fresh destination, and a
// caller that refuses the body or already holds the destination pays
// nothing.
func TestTruncatedHugeFrameCostsOneDestination(t *testing.T) {
	wire := make([]byte, 4+headerBytes+100)
	le.PutUint32(wire, headerBytes+4*MaxFrameValues)
	wire[4] = TypePush
	le.PutUint32(wire[22:], MaxFrameValues)
	held := make([]float32, MaxFrameValues)
	allocated := func(dst func(*Frame, int) []float32) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range readers(wire) {
			if _, err := ReadFrameInto(r, dst); err == nil {
				t.Fatal("truncated frame accepted")
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const slack = 1 << 20 // the two readers' own buffers
	if got := allocated(func(*Frame, int) []float32 { return nil }); got > slack {
		t.Errorf("refused body: %d bytes allocated", got)
	}
	if got := allocated(func(*Frame, int) []float32 { return held }); got > slack {
		t.Errorf("held destination: %d bytes allocated", got)
	}
	fresh := func(_ *Frame, n int) []float32 { return make([]float32, n) } // what ReadFrame passes
	if got := allocated(fresh); got > 2*4*MaxFrameValues+slack {
		t.Errorf("fresh destination: %d bytes allocated over two reads, want one destination each", got)
	}
}

// TestSmallBufioStillCarriesFrames: a bufio.Writer too small to encode into in
// place (and a bufio.Reader too small to peek a chunk from) still carry
// whole frames.
func TestSmallBufioStillCarriesFrames(t *testing.T) {
	f := randomFrame(rand.New(rand.NewPCG(4, 4)), 3000)
	var wire, ref bytes.Buffer
	w := bufio.NewWriterSize(&wire, 16)
	if err := WriteFrame(w, f); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	refWriteFrame(&ref, f)
	if !bytes.Equal(wire.Bytes(), ref.Bytes()) {
		t.Fatal("bytes through a 16-byte bufio.Writer differ from the reference")
	}
	got, err := ReadFrame(bufio.NewReaderSize(&wire, 16))
	if err != nil || !sameFrame(got, f) {
		t.Fatalf("frame through a 16-byte bufio.Reader differs (err %v)", err)
	}
}

// TestSwapWords: swapWords turns float32 memory into the other byte order —
// the wire's on a big-endian host — word by word, undoes itself, and leaves
// a trailing partial word alone.
func TestSwapWords(t *testing.T) {
	vals := []float32{1, -2.5, float32(math.Inf(-1)), math.Float32frombits(0x7fc00001), 3e-42, 0}
	other := binary.ByteOrder(binary.BigEndian)
	if bigEndian {
		other = binary.LittleEndian
	}
	b := bytes.Clone(floatBytes(vals))
	swapWords(b)
	for i, v := range vals {
		if got := other.Uint32(b[4*i:]); got != math.Float32bits(v) {
			t.Fatalf("value %d: swapped word reads %#08x, want %#08x", i, got, math.Float32bits(v))
		}
	}
	swapWords(b)
	if !bytes.Equal(b, floatBytes(vals)) {
		t.Fatal("swapping twice changed the bytes")
	}
	odd := []byte{1, 2, 3, 4, 5, 6}
	if swapWords(odd); !bytes.Equal(odd, []byte{4, 3, 2, 1, 5, 6}) {
		t.Fatalf("six bytes swap to %v, want [4 3 2 1 5 6]", odd)
	}
}
