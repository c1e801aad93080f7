package sched

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// FuzzByName hammers the registry's name/arg parsing. Historical catches:
// "credit:" (colon, empty argument) used to resolve silently to the default
// window, masking a lost argument, and "rr:junk" used to resolve to rr with
// the argument dropped; both are errors now. The invariants checked on
// every successful resolution keep a future discipline from wedging or
// misordering a queue: a resolved credit window is positive, an Admitter
// admits onto an idle queue, and the order the discipline's Key states —
// read through sched.Less — is the pairwise order specLess specifies for
// it, irreflexive and asymmetric, on two fuzzed Items (ranked through the
// discipline first when it ranks at enqueue). The corpus seeds the values
// where a sign-biased integer key would break first.
func FuzzByName(f *testing.F) {
	edge := [...]Item{
		{Priority: math.MinInt32, Dest: -1, Bytes: 0},
		{Priority: -1, Dest: math.MinInt32, Bytes: 1 << 40},
		{Priority: 0, Dest: 0, Bytes: math.MaxInt64},
		{Priority: math.MaxInt32, Dest: math.MaxInt32, Bytes: math.MinInt64},
		{Priority: 1, Dest: 0, Bytes: 100},
	}
	for _, seed := range []string{
		"", "fifo", "p3", "rr", "smallest", "credit", "tictac",
		"credit-adaptive", "credit:1048576", "credit-adaptive:65536",
		"credit:", "credit:-5", "credit:abc", "credit:0", "credit:+7",
		"credit:5:6", "adaptive:0", "bytescheduler:7", "dag", "rr:junk",
		"tictac:5", "zgoneba", ":", "::", "CREDIT", " credit", "credit ",
		"credit:99999999999999999999",
		"damped", "damped:tictac", "damped:credit:1500@3",
	} {
		for i, a := range edge {
			b := edge[(i+1)%len(edge)]
			f.Add(seed, a.Priority, a.Dest, a.Bytes, b.Priority, b.Dest, b.Bytes)
		}
	}
	f.Fuzz(func(t *testing.T, name string, aPri, aDest int32, aBytes int64, bPri, bDest int32, bBytes int64) {
		d, err := ByName(name)
		if err != nil {
			if d != nil {
				t.Fatalf("ByName(%q) returned both a discipline and error %v", name, err)
			}
			return
		}
		if d == nil {
			t.Fatalf("ByName(%q) returned nil without error", name)
		}
		if d.Name() == "" {
			t.Fatalf("ByName(%q): empty canonical name", name)
		}
		if strings.ContainsRune(name, ':') && strings.HasSuffix(name, ":") {
			t.Fatalf("ByName(%q): empty argument resolved silently to %q", name, d.Name())
		}
		switch c := d.(type) {
		case *CreditGated:
			if c.Credit <= 0 {
				t.Fatalf("ByName(%q): zero/negative credit window %d would wedge the queue", name, c.Credit)
			}
		case *AdaptiveCredit:
			if c.Initial <= 0 || c.Min <= 0 || c.Max < c.Initial || c.Step <= 0 {
				t.Fatalf("ByName(%q): degenerate adaptive window (initial %d, min %d, max %d, step %d)",
					name, c.Initial, c.Min, c.Max, c.Step)
			}
		}
		// A small profile, so that tictac orders by slack with both fuzzed
		// classes almost always outside it (clamped), not by its p3 fallback.
		ApplyProfile(d, &Profile{
			NeedAtNs:     []int64{50_000, 1_000, 30_000, 30_000},
			LayerBytes:   []int64{100, 1_000_000},
			GbpsEstimate: 1,
		})
		a := Item{Priority: aPri, Dest: aDest, Bytes: aBytes}
		b := Item{Priority: bPri, Dest: bDest, Bytes: bBytes}
		if r, ok := d.(Ranker); ok {
			a, b = r.Rank(a), r.Rank(b)
		}
		for _, p := range [][2]Item{{a, b}, {b, a}, {a, a}, {b, b}} {
			x, y := p[0], p[1]
			if got, want := Less(d, x, y), specLess(d, x, y); got != want {
				t.Fatalf("ByName(%q): Less(%+v, %+v) = %v, specified %v", name, x, y, got, want)
			}
		}
		if Less(d, a, a) || Less(d, b, b) {
			t.Fatalf("ByName(%q): Less(x, x) = true", name)
		}
		if Less(d, a, b) && Less(d, b, a) {
			t.Fatalf("ByName(%q): Less(%+v, %+v) holds both ways", name, a, b)
		}
		if a, ok := d.(Admitter); ok {
			if !a.Admit(Item{Bytes: 1 << 40}) {
				t.Fatalf("ByName(%q): idle queue refused an oversized item: wedge", name)
			}
		}
	})
}

// FuzzQueueMatchesReference runs fuzzed programs — pushes, bursts, pops of
// every kind, drains, Done and Cancel, preemption probes,
// recalibrations — over p3, fifo and credit-adaptive through the reference
// tests' interpreter (program), which holds every primitive to refQueue's
// answer and every unused slab slot to zero. The program's bytes are its
// choices, one per decision.
func FuzzQueueMatchesReference(f *testing.F) {
	for seed := uint64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 3))
		prog := make([]byte, 600)
		for i := range prog {
			prog[i] = byte(rng.Uint32())
		}
		f.Add(uint8(seed), prog)
	}
	names := []string{"p3", "fifo", "credit-adaptive:1500"}
	f.Fuzz(func(t *testing.T, disc uint8, prog []byte) {
		// The fuzzer minimizes each new input in time quadratic in its
		// length, so programs stop at 128 choices: enough for bursts of up
		// to 24 copies each, drains, and a swap in about one random
		// program in seven.
		prog = prog[:min(len(prog), 128)]
		next := func(n int) int {
			if len(prog) == 0 {
				return 0
			}
			b := int(prog[0])
			prog = prog[1:]
			return b % n
		}
		p := newProgram(t, names[int(disc)%len(names)], next)
		for len(prog) > 0 {
			p.step()
		}
		p.drain()
	})
}
