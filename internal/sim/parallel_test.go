package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// lockstepTrace runs a deterministic multi-LP workload on the given exec
// and returns each LP's observed (time, tag) sequence. Every LP relays a
// token around the ring with a per-hop delay of at least the lookahead, at
// staggered points fans a burst out to every other LP at one shared
// timestamp, and schedules local timers on the same quantized grid the
// bursts land on — so cross arrivals collide both with each other and
// with locally scheduled events at one (LP, instant), exercising every
// class of canonical tie.
func lockstepTrace(t *testing.T, mk func(nLP int, look Time) Exec) [][]string {
	t.Helper()
	const (
		nLP  = 6
		look = Time(40)
		hops = 120
	)
	x := mk(nLP, look)
	traces := make([][]string, nLP)
	procs := make([]Proc, nLP)
	for lp := 0; lp < nLP; lp++ {
		procs[lp] = x.Proc(lp)
	}
	// Quantizing burst and timer targets onto one grid manufactures exact
	// collisions between cross arrivals and local events.
	grid := func(t Time) Time { return (t + 63) / 64 * 64 }
	var relay func(lp, hop int) func()
	relay = func(lp, hop int) func() {
		return func() {
			traces[lp] = append(traces[lp], fmt.Sprintf("%d@%d", hop, procs[lp].Now()))
			if hop >= hops {
				return
			}
			next := (lp + 1) % nLP
			// Per-hop jitter derived from the inputs alone.
			d := look + Time((lp*7+hop*13)%29)
			x.Cross(lp, next, procs[lp].Now()+d, relay(next, hop+1))
			// A local timer on the shared grid: it ties with whatever
			// bursts land on the same grid point at this LP, the
			// local-versus-cross collision class.
			tick := grid(procs[lp].Now() + 2*look)
			procs[lp].At(tick, func() {
				traces[lp] = append(traces[lp], fmt.Sprintf("tick%d@%d", hop, procs[lp].Now()))
			})
			if hop%10 == lp {
				// Fan a burst out to every LP at one shared grid instant:
				// same-timestamp arrivals from one source at many
				// destinations, and (across bursting LPs) at the same
				// destination.
				at := grid(procs[lp].Now() + 4*look)
				for dst := 0; dst < nLP; dst++ {
					if dst == lp {
						continue
					}
					dst := dst
					x.Cross(lp, dst, at, func() {
						traces[dst] = append(traces[dst], fmt.Sprintf("burst%d@%d", lp, procs[dst].Now()))
					})
				}
			}
		}
	}
	for lp := 0; lp < nLP; lp++ {
		procs[lp].At(Time(lp), relay(lp, 0))
	}
	x.Run()
	return traces
}

// TestParallelMatchesSingleTrace pins the determinism contract at the
// engine level: per-LP event sequences of a sharded run equal the
// single-engine run's, for several shard counts, including the
// same-instant multi-source bursts.
func TestParallelMatchesSingleTrace(t *testing.T) {
	want := lockstepTrace(t, func(nLP int, look Time) Exec {
		return &Engine{}
	})
	for _, shards := range []int{2, 3, 4, 6} {
		got := lockstepTrace(t, func(nLP int, look Time) Exec {
			lpShard := make([]int, nLP)
			for lp := range lpShard {
				lpShard[lp] = lp * shards / nLP
			}
			p, err := NewParallel(shards, lpShard, look)
			if err != nil {
				t.Fatal(err)
			}
			return p
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-shard trace diverges from single-engine trace:\n got %v\nwant %v", shards, got, want)
		}
	}
}

func TestParallelZeroLookaheadRejected(t *testing.T) {
	_, err := NewParallel(2, []int{0, 1}, 0)
	if err == nil {
		t.Fatal("NewParallel accepted a zero lookahead")
	}
	if !strings.Contains(err.Error(), "lookahead") {
		t.Fatalf("unhelpful zero-lookahead error: %v", err)
	}
	if _, err := NewParallel(2, []int{0, 2}, 10); err == nil {
		t.Fatal("NewParallel accepted an out-of-range shard assignment")
	}
}

func TestParallelCrossBelowLookaheadPanics(t *testing.T) {
	p, err := NewParallel(2, []int{0, 1}, 50)
	if err != nil {
		t.Fatal(err)
	}
	p.Proc(0).At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-shard send below the lookahead did not panic")
			}
			p.Stop()
		}()
		p.Cross(0, 1, p.Proc(0).Now()+10, func() {})
	})
	p.Run()
}

// TestParallelStopFromShardEvent pins that Stop called from inside a shard
// event halts the run without deadlocking the barrier protocol, and leaves
// unfired events pending.
func TestParallelStopFromShardEvent(t *testing.T) {
	const nLP = 4
	lpShard := []int{0, 1, 2, 3}
	p, err := NewParallel(4, lpShard, 25)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	var relay func(lp, hop int) func()
	relay = func(lp, hop int) func() {
		return func() {
			// Only LP 0's chain counts and stops, so the counter stays
			// unshared; the other chains just keep the shards busy.
			if lp == 0 {
				fired++
				if fired == 5 {
					p.Stop()
					return
				}
			}
			p.Cross(lp, lp, p.Proc(lp).Now()+25, relay(lp, hop+1))
		}
	}
	for lp := 0; lp < nLP; lp++ {
		p.Proc(lp).At(0, relay(lp, 0))
	}
	p.Run()
	if fired != 5 {
		t.Fatalf("Stop did not halt the run promptly: %d counted events fired", fired)
	}
}

// TestParallelConcurrentCrossSends floods the outboxes from every shard at
// once — the -race exercise for the barrier protocol: shards write only
// their own outbox rows during a window, the coordinator drains them only
// at the barrier.
func TestParallelConcurrentCrossSends(t *testing.T) {
	const (
		nLP    = 8
		shards = 8
		rounds = 200
	)
	lpShard := make([]int, nLP)
	for lp := range lpShard {
		lpShard[lp] = lp % shards
	}
	p, err := NewParallel(shards, lpShard, 10)
	if err != nil {
		t.Fatal(err)
	}
	received := make([]int, nLP) // per-LP, shard-owned
	var step func(lp, round int) func()
	step = func(lp, round int) func() {
		return func() {
			received[lp]++
			if round >= rounds {
				return
			}
			// Each chain relays to a rotating destination at one shared
			// instant: every window has all shards executing and all
			// outbox rows in use simultaneously.
			dst := (lp + round + 1) % nLP
			p.Cross(lp, dst, p.Proc(lp).Now()+10, step(dst, round+1))
		}
	}
	for lp := 0; lp < nLP; lp++ {
		p.Proc(lp).At(0, step(lp, 0))
	}
	p.Run()
	total := 0
	for _, n := range received {
		total += n
	}
	if want := nLP * (rounds + 1); total != want {
		t.Fatalf("received %d events, want %d", total, want)
	}
	if uint64(total) != p.Processed() {
		t.Fatalf("received %d events, engine processed %d", total, p.Processed())
	}
}

// shardedProgram interprets code as a program of Proc.At calls (zero delay
// included) and Cross calls (delay at least the lookahead) over six LPs on
// x, and returns each LP's firing trace of (id, time) pairs. Every fired
// event reads how many children to schedule, and each child's kind,
// destination and delay, from its own LP's cursor into code; ids and the
// spawning budget are per LP too. So everything an event touches belongs to
// its LP, as the state discipline requires, and each trace is a function
// of that LP's own event sequence.
func shardedProgram(x Exec, code []byte) [][]int64 {
	const (
		nLP    = 6
		look   = Time(10)
		budget = 60
	)
	type lpState struct {
		pc, ids, fired int
		trace          []int64
	}
	st := make([]lpState, nLP)
	procs := make([]Proc, nLP)
	for lp := range procs {
		st[lp].pc = 7 * lp
		procs[lp] = x.Proc(lp)
	}
	next := func(pc *int) int {
		if len(code) == 0 {
			return 0
		}
		b := code[*pc%len(code)]
		*pc++
		return int(b)
	}
	// Few distinct delays, so instants repeat and ties are the rule.
	delays := [...]Time{0, 0, 3, 10, 10, 20, 35}
	var mk func(lp int, id int64) func()
	mk = func(lp int, id int64) func() {
		return func() {
			s := &st[lp]
			s.fired++
			now := procs[lp].Now()
			s.trace = append(s.trace, id, int64(now))
			children := next(&s.pc) % 4
			if s.fired > budget {
				children = 0
			}
			for c := 0; c < children; c++ {
				b := next(&s.pc)
				s.ids++
				cid := int64(lp)<<32 | int64(s.ids)
				d := delays[(b>>4)%len(delays)]
				if b%2 == 0 {
					procs[lp].At(now+d, mk(lp, cid))
				} else {
					dst := (b >> 1) % nLP
					x.Cross(lp, dst, now+look+d, mk(dst, cid))
				}
			}
		}
	}
	top := 0
	for i, n := 0, 1+next(&top)%8; i < n; i++ {
		b := next(&top)
		lp := b % nLP
		procs[lp].At(delays[(b>>4)%len(delays)], mk(lp, -int64(i)-1))
	}
	x.Run()
	traces := make([][]int64, nLP)
	for lp := range st {
		traces[lp] = st[lp].trace
	}
	return traces
}

// FuzzShardedOrder holds a Parallel run at 2, 3 and 4 shards, with the
// LP-to-shard assignment drawn from the input, to the per-LP firing traces
// and the processed count of the same program on one Engine.
func FuzzShardedOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05\x13\x21\x35\x47\x59\x6b\x7d\x8f\x91\xa3\xb5"))
	f.Add([]byte{0x03, 0x11, 0x00, 0x03, 0x01, 0x13, 0x27, 0x03, 0x41, 0x00, 0x02, 0x33})
	f.Fuzz(func(t *testing.T, code []byte) {
		eng := &Engine{}
		want := shardedProgram(eng, code)
		for shards := 2; shards <= 4; shards++ {
			lpShard := make([]int, len(want))
			for lp := range lpShard {
				if len(code) > 0 {
					lpShard[lp] = int(code[lp%len(code)]) % shards
				}
			}
			p, err := NewParallel(shards, lpShard, 10)
			if err != nil {
				t.Fatal(err)
			}
			got := shardedProgram(p, code)
			for lp := range want {
				if !slices.Equal(got[lp], want[lp]) {
					t.Fatalf("%d shards %v: LP %d's (id, time) trace diverges from one Engine's\n got %v\nwant %v", shards, lpShard, lp, got[lp], want[lp])
				}
			}
			if p.Processed() != eng.Processed() {
				t.Fatalf("%d shards %v: processed %d events, one Engine %d", shards, lpShard, p.Processed(), eng.Processed())
			}
		}
	})
}
