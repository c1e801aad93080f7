package worker

// Pull is a parked pull: the iteration it asks for, who asked, and the
// priority its answer carries.
type Pull struct{ Iter, Src, Priority int32 }

// Parked is the pull half of the parameter server's rule, beside Slot's
// push half, for one owner's keys: a chunk's server or rack cache in the
// simulator, the TCP server's keys. A pull returns the value for the
// iteration it asks for, or a newer one; a pull that arrives before its key
// holds that iteration parks here until it does. Every server parks rather
// than answering at once with whatever it stores: an early answer would
// carry an older iteration's values under the asked-for tag, and a pull for
// a key not made yet would have nothing to answer with at all.
//
// The zero value is ready to use and holds nothing until the first Park.
type Parked struct {
	m map[uint64][]Pull
}

// Park holds p until key holds iteration p.Iter.
func (p *Parked) Park(key uint64, pull Pull) {
	if p.m == nil {
		p.m = make(map[uint64][]Pull)
	}
	p.m[key] = append(p.m[key], pull)
}

// Release answers, in arrival order, the pulls parked on key that iteration
// iter satisfies (those asking for iter or an older one), and keeps the
// rest parked.
func (p *Parked) Release(key uint64, iter int32, answer func(Pull)) {
	held := p.m[key]
	if len(held) == 0 {
		return
	}
	rest := held[:0]
	for _, q := range held {
		if q.Iter <= iter {
			answer(q)
		} else {
			rest = append(rest, q)
		}
	}
	if len(rest) == 0 {
		delete(p.m, key)
	} else {
		p.m[key] = rest
	}
}
