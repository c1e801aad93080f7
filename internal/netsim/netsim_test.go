package netsim

import (
	"maps"
	"testing"

	"p3/internal/sim"
	"p3/internal/trace"
)

// cfg returns a config with clean arithmetic: 8 Gbps = 1 byte/ns, zero
// overheads unless a test opts in.
func cleanCfg(egress string) Config {
	return Config{
		BandwidthGbps:      8,
		PropDelay:          0,
		PerMsgOverhead:     0,
		HeaderBytes:        0,
		LocalBandwidthGbps: 8000,
		LocalDelay:         0,
		Egress:             egress,
	}
}

type delivery struct {
	m  Message
	at sim.Time
}

func runNet(t *testing.T, cfg Config, n int, send func(nw *Network)) []delivery {
	t.Helper()
	var eng sim.Engine
	var got []delivery
	var nw *Network
	nw = New(&eng, n, cfg, func(m Message) {
		got = append(got, delivery{m, eng.Now()})
	}, nil)
	send(nw)
	eng.Run()
	return got
}

func TestSerializationTiming(t *testing.T) {
	// 1000 bytes at 8 Gbps (1 byte/ns): egress 1000 ns + ingress 1000 ns.
	got := runNet(t, cleanCfg("fifo"), 2, func(nw *Network) {
		nw.Send(Message{From: 0, To: 1, Bytes: 1000})
	})
	if len(got) != 1 {
		t.Fatalf("%d deliveries", len(got))
	}
	if got[0].at != 2000 {
		t.Fatalf("delivered at %v ns, want 2000 (store-and-forward)", got[0].at)
	}
}

func TestOverheadAndHeaderAccounting(t *testing.T) {
	cfg := cleanCfg("fifo")
	cfg.PerMsgOverhead = 100
	cfg.HeaderBytes = 50
	got := runNet(t, cfg, 2, func(nw *Network) {
		nw.Send(Message{From: 0, To: 1, Bytes: 1000})
	})
	// Each direction: 100 overhead + 1050 bytes/1Bpns = 1150; two directions.
	if got[0].at != 2300 {
		t.Fatalf("delivered at %v, want 2300", got[0].at)
	}
}

func TestPropagationDelay(t *testing.T) {
	cfg := cleanCfg("fifo")
	cfg.PropDelay = 500
	got := runNet(t, cfg, 2, func(nw *Network) {
		nw.Send(Message{From: 0, To: 1, Bytes: 1000})
	})
	if got[0].at != 2500 {
		t.Fatalf("delivered at %v, want 2500", got[0].at)
	}
}

func TestLoopbackBypassesNIC(t *testing.T) {
	got := runNet(t, cleanCfg("fifo"), 2, func(nw *Network) {
		nw.Send(Message{From: 1, To: 1, Bytes: 8_000_000})
	})
	// Local rate 8000 Gbps = 1000 bytes/ns: 8000 ns, no double count.
	if got[0].at != 8000 {
		t.Fatalf("loopback delivered at %v, want 8000", got[0].at)
	}
}

func TestFIFOEgressOrder(t *testing.T) {
	got := runNet(t, cleanCfg("fifo"), 2, func(nw *Network) {
		nw.Send(Message{From: 0, To: 1, Bytes: 100, Priority: 9, Chunk: 0})
		nw.Send(Message{From: 0, To: 1, Bytes: 100, Priority: 1, Chunk: 1})
		nw.Send(Message{From: 0, To: 1, Bytes: 100, Priority: 5, Chunk: 2})
	})
	for i, d := range got {
		if d.m.Chunk != int32(i) {
			t.Fatalf("FIFO violated: delivery %d is chunk %d", i, d.m.Chunk)
		}
	}
}

// TestPriorityEgressPreemption is the paper's worker-side mechanism: queued
// messages reorder by priority, but the in-flight message completes first
// (preemption at message granularity).
func TestPriorityEgressPreemption(t *testing.T) {
	cfg := cleanCfg("p3")
	var eng sim.Engine
	var got []int32
	nw := New(&eng, 2, cfg, func(m Message) { got = append(got, m.Chunk) }, nil)
	// Chunk 0 (low priority) starts transmitting immediately; chunks pushed
	// while it is in flight reorder: 3 (prio 1) before 1 (prio 2) before 2
	// (prio 8).
	nw.Send(Message{From: 0, To: 1, Bytes: 10_000, Priority: 9, Chunk: 0})
	eng.After(100, func() {
		nw.Send(Message{From: 0, To: 1, Bytes: 100, Priority: 2, Chunk: 1})
		nw.Send(Message{From: 0, To: 1, Bytes: 100, Priority: 8, Chunk: 2})
		nw.Send(Message{From: 0, To: 1, Bytes: 100, Priority: 1, Chunk: 3})
	})
	eng.Run()
	want := []int32{0, 3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", got, want)
		}
	}
}

// TestCreditGatedEgressWindow: with a credit window smaller than two
// messages, the second transmission may not start until the first is fully
// delivered and its credit returns — the ByteScheduler-style bounded
// preemption window.
func TestCreditGatedEgressWindow(t *testing.T) {
	deliveries := func(egress string) []delivery {
		return runNet(t, cleanCfg(egress), 2, func(nw *Network) {
			nw.Send(Message{From: 0, To: 1, Bytes: 600, Chunk: 0})
			nw.Send(Message{From: 0, To: 1, Bytes: 600, Chunk: 1})
		})
	}
	// Ungated: egress pipelines into ingress; second delivery at 1800.
	got := deliveries("fifo")
	if got[0].at != 1200 || got[1].at != 1800 {
		t.Fatalf("fifo deliveries at %v/%v, want 1200/1800", got[0].at, got[1].at)
	}
	// 1000-byte window: the second 600-byte message must wait for the
	// first's delivery at 1200 before serializing (1200..1800), then
	// ingress (1800..2400).
	got = deliveries("credit:1000")
	if got[0].at != 1200 || got[1].at != 2400 {
		t.Fatalf("credit deliveries at %v/%v, want 1200/2400", got[0].at, got[1].at)
	}
}

// TestWindowRelaxedCreditRefund pins the refund quantization of the
// window-relaxed protocol: a delivered message's credit returns to the
// sender exactly one lookahead after delivery — the conservative delay
// that makes gated egress an ordinary cross-LP edge on any shard count.
// With a zero-latency topology the lookahead is 0 and the refund is
// effectively at delivery (the historical protocol, pinned above); with a
// propagation delay the second transmission starts one lookahead late.
func TestWindowRelaxedCreditRefund(t *testing.T) {
	cfg := cleanCfg("credit:1000")
	cfg.PropDelay = 100
	got := runNet(t, cfg, 2, func(nw *Network) {
		nw.Send(Message{From: 0, To: 1, Bytes: 600, Chunk: 0})
		nw.Send(Message{From: 0, To: 1, Bytes: 600, Chunk: 1})
	})
	// First: egress 600, prop 100, ingress 600 -> 1300. Its refund lands
	// at 1300 + 100 (lookahead); the second then serializes 1400-2000,
	// prop to 2100, ingress -> 2700.
	if got[0].at != 1300 || got[1].at != 2700 {
		t.Fatalf("window-relaxed credit deliveries at %v/%v, want 1300/2700", got[0].at, got[1].at)
	}
}

func TestIngressSerializesIncast(t *testing.T) {
	// Two senders to one receiver: their ingress serializations cannot
	// overlap, so the second delivery lands ~1000 ns after the first.
	got := runNet(t, cleanCfg("fifo"), 3, func(nw *Network) {
		nw.Send(Message{From: 0, To: 2, Bytes: 1000})
		nw.Send(Message{From: 1, To: 2, Bytes: 1000})
	})
	if len(got) != 2 {
		t.Fatalf("%d deliveries", len(got))
	}
	if got[0].at != 2000 || got[1].at != 3000 {
		t.Fatalf("incast deliveries at %v/%v, want 2000/3000", got[0].at, got[1].at)
	}
}

func TestParallelSendersDontInterfere(t *testing.T) {
	// Distinct sender and receiver pairs: full parallelism.
	got := runNet(t, cleanCfg("fifo"), 4, func(nw *Network) {
		nw.Send(Message{From: 0, To: 2, Bytes: 1000})
		nw.Send(Message{From: 1, To: 3, Bytes: 1000})
	})
	for _, d := range got {
		if d.at != 2000 {
			t.Fatalf("parallel transfer delayed: %v", d.at)
		}
	}
}

func TestByteConservation(t *testing.T) {
	var eng sim.Engine
	var delivered int64
	var nw *Network
	nw = New(&eng, 4, cleanCfg("fifo"), func(m Message) { delivered += m.Bytes }, nil)
	var sent int64
	for i := 0; i < 100; i++ {
		b := int64(i*13 + 1)
		nw.Send(Message{From: i % 4, To: (i + 1) % 4, Bytes: b})
		sent += b
	}
	eng.Run()
	if delivered != sent {
		t.Fatalf("delivered %d bytes, sent %d", delivered, sent)
	}
	if nw.BytesDelivered() != sent || nw.BytesSent() != sent {
		t.Fatalf("stats: sent %d delivered %d, want %d", nw.BytesSent(), nw.BytesDelivered(), sent)
	}
	if nw.MsgsDelivered() != 100 {
		t.Fatalf("msgs delivered = %d", nw.MsgsDelivered())
	}
}

func TestUtilizationRecording(t *testing.T) {
	var eng sim.Engine
	rec := trace.NewRecorder(2, 10*sim.Millisecond)
	rec.Start(0)
	cfg := cleanCfg("fifo")
	cfg.HeaderBytes = 0
	nw := New(&eng, 2, cfg, func(Message) {}, rec)
	nw.Send(Message{From: 0, To: 1, Bytes: 5000})
	eng.Run()
	if out := rec.TotalBytes(0, trace.Out); out != 5000 {
		t.Fatalf("machine 0 outbound = %v, want 5000", out)
	}
	if in := rec.TotalBytes(1, trace.In); in != 5000 {
		t.Fatalf("machine 1 inbound = %v, want 5000", in)
	}
	// Loopback must not touch the recorder.
	nw.Send(Message{From: 0, To: 0, Bytes: 700})
	eng.Run()
	if out := rec.TotalBytes(0, trace.Out); out != 5000 {
		t.Fatalf("loopback counted on NIC: %v", out)
	}
}

func TestQueuedEgress(t *testing.T) {
	var eng sim.Engine
	nw := New(&eng, 2, cleanCfg("fifo"), func(Message) {}, nil)
	for i := 0; i < 5; i++ {
		nw.Send(Message{From: 0, To: 1, Bytes: 1000})
	}
	// One in flight, four queued.
	if got := nw.QueuedEgress(0); got != 4 {
		t.Fatalf("QueuedEgress = %d, want 4", got)
	}
	eng.Run()
	if got := nw.QueuedEgress(0); got != 0 {
		t.Fatalf("QueuedEgress after run = %d", got)
	}
}

func TestInvalidBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero bandwidth")
		}
	}()
	var eng sim.Engine
	New(&eng, 1, Config{}, func(Message) {}, nil)
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(25)
	if cfg.BandwidthGbps != 25 || cfg.HeaderBytes == 0 || cfg.PerMsgOverhead == 0 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
}

// TestPreemptiveEgressRecoversUrgent: with a preemption quantum, a small
// urgent message overtakes an in-flight bulk transfer at the next segment
// boundary; the bulk message retains its progress and pays exactly the
// urgent message's service time. Times are exact: 8 Gbps = 1 byte/ns,
// no overheads.
func TestPreemptiveEgressRecoversUrgent(t *testing.T) {
	run := func(quantum int64) map[int32]sim.Time {
		cfg := cleanCfg("p3")
		cfg.PreemptQuantum = quantum
		out := map[int32]sim.Time{}
		var eng sim.Engine
		nw := New(&eng, 2, cfg, func(m Message) { out[m.Chunk] = eng.Now() }, nil)
		nw.Send(Message{From: 0, To: 1, Bytes: 10_000, Priority: 9, Chunk: 0})
		eng.After(100, func() {
			nw.Send(Message{From: 0, To: 1, Bytes: 100, Priority: 0, Chunk: 1})
		})
		eng.Run()
		return out
	}
	base := run(0)
	// Non-preemptive: urgent waits out the full bulk serialization
	// (egress 10000..10100, ingress idle until the bulk drains at 20000).
	if base[1] != 20100 || base[0] != 20000 {
		t.Fatalf("non-preemptive deliveries = %v, want urgent 20100, bulk 20000", base)
	}
	pre := run(1000)
	// Preemptive: the urgent message starts at the 1000-byte boundary
	// (egress 1000..1100, ingress 1100..1200); the bulk tail resumes and
	// finishes one urgent-service later than before (egress done 10100,
	// ingress 10100..20100).
	if pre[1] != 1200 {
		t.Fatalf("urgent delivered at %v, want 1200 (next segment boundary)", pre[1])
	}
	if pre[0] != 20100 {
		t.Fatalf("bulk delivered at %v, want 20100 (progress retained, one urgent service paid)", pre[0])
	}
}

// TestPreemptQuantumTimingTelescopes: segment durations are computed from
// cumulative byte offsets, so when no preemption fires a segmented run is
// bit-identical to the whole-message path — for any quantum, overheads
// included.
func TestPreemptQuantumTimingTelescopes(t *testing.T) {
	run := func(egress string, quantum int64) []delivery {
		cfg := DefaultConfig(1.5) // real overheads, headers, prop delay
		cfg.Egress = egress
		cfg.PreemptQuantum = quantum
		var eng sim.Engine
		var got []delivery
		nw := New(&eng, 3, cfg, func(m Message) {
			got = append(got, delivery{m, eng.Now()})
		}, nil)
		for i := 0; i < 40; i++ {
			nw.Send(Message{
				From: i % 3, To: (i + 1) % 3, Bytes: int64(i*7001 + 13),
				Priority: int32(i % 5), Chunk: int32(i),
			})
		}
		eng.Run()
		return got
	}
	for _, egress := range []string{"fifo", "p3"} {
		base := run(egress, 0)
		for _, q := range []int64{999, 64 << 10, 1 << 30} {
			got := run(egress, q)
			// fifo never preempts; this p3 workload (all queued up front,
			// popped in priority order) never triggers an inversion against
			// an in-flight more-urgent message either.
			if len(got) != len(base) {
				t.Fatalf("%s q=%d: %d deliveries, want %d", egress, q, len(got), len(base))
			}
			for i := range base {
				if got[i].m.Chunk != base[i].m.Chunk || got[i].at != base[i].at {
					t.Fatalf("%s q=%d: delivery %d = chunk %d @%v, want chunk %d @%v",
						egress, q, i, got[i].m.Chunk, got[i].at, base[i].m.Chunk, base[i].at)
				}
			}
		}
	}
}

// TestPreemptionConservesBytes: preemption reorders serialization but every
// byte still arrives exactly once, and the Preemptions counter reports the
// parking events.
func TestPreemptionConservesBytes(t *testing.T) {
	cfg := cleanCfg("p3")
	cfg.PreemptQuantum = 500
	var eng sim.Engine
	var delivered int64
	var nw *Network
	nw = New(&eng, 2, cfg, func(m Message) { delivered += m.Bytes }, nil)
	var sent int64
	nw.Send(Message{From: 0, To: 1, Bytes: 50_000, Priority: 9, Chunk: 0})
	sent += 50_000
	for i := 0; i < 10; i++ {
		at := sim.Time(200 + i*300)
		b := int64(100 + i*10)
		eng.After(at, func() {
			nw.Send(Message{From: 0, To: 1, Bytes: b, Priority: 0, Chunk: int32(i + 1)})
		})
		sent += b
	}
	eng.Run()
	if delivered != sent {
		t.Fatalf("delivered %d bytes, sent %d", delivered, sent)
	}
	if nw.Preemptions() == 0 {
		t.Fatal("urgent arrivals against a 50 KB bulk transfer never preempted")
	}
}

// FuzzSegmentTelescopes generalises TestPreemptQuantumTimingTelescopes to
// any sizes, senders, send times and quantum: fifo egress never preempts,
// so a segmented run must deliver every message at exactly the tick of the
// whole-message run. Each five bytes of prog send one message: sender,
// receiver (a loopback when they are equal), payload size (two bytes) and
// send time in microseconds. Inputs that would cut more than 1<<16
// segments are skipped to keep one execution short.
func FuzzSegmentTelescopes(f *testing.F) {
	f.Add(int64(999), []byte{0, 1, 0x27, 0x10, 0, 1, 2, 0xff, 0xff, 3, 2, 0, 0x01, 0x00, 3, 2, 2, 0, 9, 0})
	f.Add(int64(64<<10), []byte{0, 1, 0xff, 0xff, 0, 0, 2, 0xff, 0xff, 0, 1, 0, 0, 0, 1})
	f.Add(int64(1), []byte{2, 0, 0, 200, 0, 1, 0, 0, 65, 0})
	f.Fuzz(func(t *testing.T, quantum int64, prog []byte) {
		const machines, maxMsgs = 3, 32
		prog = prog[:min(len(prog), 5*maxMsgs)]
		q := 1 + int64(uint64(quantum)%(1<<20))
		cfg := DefaultConfig(1.5) // real overhead, framing and prop delay
		cfg.Egress = "fifo"
		var msgs []Message
		var at []sim.Time
		segs := int64(0)
		for i := 0; i+5 <= len(prog); i += 5 {
			b := prog[i : i+5]
			m := Message{From: int(b[0]) % machines, To: int(b[1]) % machines, Bytes: int64(b[2])<<8 | int64(b[3]), Chunk: int32(len(msgs))}
			msgs, at = append(msgs, m), append(at, sim.Time(b[4])*sim.Microsecond)
			segs += (m.Bytes + cfg.HeaderBytes + q - 1) / q
		}
		if segs > 1<<16 {
			t.Skip("too many segments for one execution")
		}
		run := func(quantum int64) map[int32]sim.Time {
			cfg.PreemptQuantum = quantum
			var eng sim.Engine
			got := map[int32]sim.Time{}
			nw := New(&eng, machines, cfg, func(m Message) { got[m.Chunk] = eng.Now() }, nil)
			for i, m := range msgs {
				eng.At(at[i], func() { nw.Send(m) })
			}
			eng.Run()
			return got
		}
		whole, segmented := run(0), run(q)
		if len(whole) != len(msgs) {
			t.Fatalf("%d of %d messages delivered", len(whole), len(msgs))
		}
		if !maps.Equal(whole, segmented) {
			for c, w := range whole {
				if segmented[c] != w {
					t.Fatalf("quantum %d: message %+v delivered at %d ns, whole-message run at %d", q, msgs[c], segmented[c], w)
				}
			}
			t.Fatalf("quantum %d: %d deliveries, whole-message run %d", q, len(segmented), len(whole))
		}
	})
}
