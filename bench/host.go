package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read: everything the benchmark
// reports is real host time around calls into the layers, never simulated
// time.
func now() time.Time {
	return time.Now() //p3:wallclock-ok the benchmark measures real host time around calls into the layers
}

// since returns the nanoseconds elapsed since t0.
func since(t0 time.Time) int64 { return now().Sub(t0).Nanoseconds() }

// refNominalNs is what one refKernel call costs on the host the bounds were
// chosen on (2 cores, go1.24) when nothing else runs. Pass times are reported
// as wall × refNominalNs ÷ ref_ns (run.quietMs), so the number reads
// "milliseconds on the reference host" and a host that is slower or busier
// during a run moves both factors together.
const refNominalNs = 30e6

// refEntry mirrors the shape of the simulator's event: four words moved by
// value through a binary heap.
type refEntry struct {
	at, sched int64
	ord       uint64
	p         *[2]int64
}

var refSink int64

// refKernel is the benchmark-owned reference workload: a 4096-deep binary
// heap of 32-byte entries, popped and re-pushed with a fresh 16-byte
// allocation per step. It touches no code of the repository, so a change to
// the program cannot move it; it exercises what the simulator exercises
// (dependent loads, branchy sifts, the allocator and the collector), which
// is why it co-varies with pass time where an arithmetic spin does not (the
// spin stays within 3 % while both of these move by 20 %). It collects the
// garbage of the passes before it first, so that their collector work is
// not charged to it, and returns its own duration in nanoseconds.
func refKernel() int64 {
	const depth, steps = 4096, 260_000
	runtime.GC()
	t0 := now()
	h := make([]refEntry, 0, depth)
	x := uint64(0x9e3779b97f4a7c15)
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x >> 20)
	}
	less := func(a, b *refEntry) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.ord < b.ord
	}
	push := func(e refEntry) {
		h = append(h, e)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !less(&h[i], &h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() refEntry {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h[n] = refEntry{}
		h = h[:n]
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && less(&h[r], &h[l]) {
				m = r
			}
			if !less(&h[m], &h[i]) {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for i := 0; i < depth; i++ {
		push(refEntry{at: next(), ord: uint64(i), p: new([2]int64)})
	}
	var acc int64
	for i := 0; i < steps; i++ {
		e := pop()
		acc += e.p[0]
		cell := new([2]int64)
		cell[0] = e.at & 1
		push(refEntry{at: e.at + next()&0xffff, sched: e.at, ord: uint64(depth + i), p: cell})
	}
	refSink = acc
	return since(t0)
}

// cpuNs returns the process's user+system CPU time (all threads, so the
// collector and the shard workers are included).
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns the process's high-water resident set in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters is the slice of runtime.MemStats the benchmark reads.
type memCounters struct{ allocBytes, mallocs uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.TotalAlloc, ms.Mallocs}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is copied, not reordered). Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range of xs as a share of its median — the
// run-to-run measure the bounds are compared with.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}
