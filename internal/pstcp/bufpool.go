package pstcp

import "sync"

// bufPool is the server's size-keyed free list of value buffers: push and
// init bodies are decoded into one and broadcast snapshots copied into one,
// so a steady iteration moves every float through buffers the previous
// iteration already paid for. A buffer is made only on a miss — when every
// buffer of its length is in flight — so the list never holds more buffers
// of a length than were in flight at once. It is a plain list and not a
// sync.Pool on purpose: a GC cycle must not empty it mid-iteration.
type bufPool struct {
	mu   sync.Mutex
	free map[int][][]float32
	// refs counts the holders beyond the first of a buffer handed to more
	// than one (a broadcast snapshot: one per destination), keyed by its
	// first element; a buffer never shared has no entry.
	refs map[*float32]int
	made int // buffers ever made; those not on a free list are out with a holder
}

// get hands out a buffer of n > 0 values with the given number of holders,
// each of which must put it exactly once. Its contents are unspecified.
//
//p3:noescape
func (p *bufPool) get(n, holders int) []float32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.free[n]
	if len(l) == 0 {
		l = append(l, make([]float32, n)) //p3:alloc-ok free-list miss: every buffer of this length is in flight
		p.made++
	}
	b := l[len(l)-1]
	p.free[n] = l[:len(l)-1]
	if holders > 1 {
		p.refs[&b[0]] = holders - 1
	}
	return b
}

// put drops one holder's reference; the last one returns b, at the length
// it was handed out with, to the free list. A nil b is a no-op, so a caller
// may put the Values of any frame it is done with.
//
//p3:noescape
func (p *bufPool) put(b []float32) {
	if len(b) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.refs[&b[0]] > 0 {
		p.refs[&b[0]]--
		return
	}
	p.free[len(b)] = append(p.free[len(b)], b) //p3:alloc-ok the list of one length grows to its high-water mark once
}
