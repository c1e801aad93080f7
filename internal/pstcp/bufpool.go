package pstcp

import "sync"

// bufPool is the server's size-keyed free list of value buffers: push and
// init bodies are decoded into one, and a push that completes an update
// becomes the broadcast snapshot in place. A key's tensor is made together
// with one buffer per worker (reserve), the most its pushes can hold at once
// in a synchronous iteration, so once the keys exist a steady iteration never
// misses; a list grown only on misses would reach its high-water mark in
// whichever iteration timing first demanded it. Beyond those a buffer is made
// only on a miss (a retried duplicate, a Pull). It is a plain list and not a
// sync.Pool on purpose: a GC cycle must not empty it mid-iteration.
type bufPool struct {
	mu   sync.Mutex
	free map[int][][]float32
	// refs counts the holders beyond the first of a buffer handed to more
	// than one (a push become the broadcast snapshot: one per destination),
	// keyed by its first element; a buffer never shared has no entry.
	refs map[*float32]int
	// made counts the buffers of each length ever made; those not on a free
	// list are out with a holder. want is what reserve asked for.
	made, want map[int]int
}

// get hands out a buffer of n > 0 values to one holder, who must put it
// exactly once. Its contents are unspecified.
//
//p3:noescape
func (p *bufPool) get(n int) []float32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.free[n]
	if len(l) == 0 {
		l = append(l, make([]float32, n)) //p3:alloc-ok free-list miss: every buffer of this length is in flight
		p.made[n]++
	}
	b := l[len(l)-1]
	p.free[n] = l[:len(l)-1]
	return b
}

// share adds holders to b, a buffer already handed out; each must put it
// exactly once more.
func (p *bufPool) share(b []float32, holders int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refs[&b[0]] += holders
}

// reserve asks for k more buffers of n values than before and makes those
// the pool does not have yet, onto the free list.
func (p *bufPool) reserve(n, k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.want[n] += k; n > 0 && p.made[n] < p.want[n]; p.made[n]++ {
		p.free[n] = append(p.free[n], make([]float32, n))
	}
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
