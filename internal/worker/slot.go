package worker

// Slot is the parameter server's aggregation rule for one slot — a chunk at
// a simulated server or aggregator, a key at the TCP server — without the
// values, which stay the caller's (Section 4.2: aggregate each slice, and
// the Nth fresh push of an iteration completes the update):
//
//   - a contribution counts once per member: one worker, or the machines
//     below a reduced stream. A member already counted toward the
//     iteration adds nothing, so a retried or re-pushed contribution never
//     double-counts;
//   - a contribution for a newer iteration resets the slot; one for an
//     older (stale) iteration counts zero;
//   - the contribution that brings the count to the slot's need completes
//     the iteration, which is Answerable from then on.
//
// A pull for an iteration that is not yet Answerable parks until it is
// (Parked, the rule's pull half).
type Slot struct {
	iter, done  int32    // the newest iteration contributed to, the newest completed (-1 initially)
	count, need int32    // members counted toward iter; the count that completes it
	seen        []uint64 // bit m: member m is counted toward iter
}

// NewSlots returns n slots over members [0, members): slot i completes an
// iteration once need(i) members are counted toward it, or all of them
// when need is nil.
func NewSlots(n, members int, need func(slot int) int) []Slot {
	words := (members + 63) / 64
	seen := make([]uint64, n*words)
	s := make([]Slot, n)
	for i := range s {
		s[i] = Slot{iter: -1, done: -1, need: int32(members), seen: seen[i*words : (i+1)*words : (i+1)*words]}
		if need != nil {
			s[i].need = int32(need(i))
		}
	}
	return s
}

// Add counts members [lo, hi) other than skip toward iteration iter. It
// returns how many of them were not counted yet, and whether they complete
// the iteration.
//
//p3:noescape
func (s *Slot) Add(iter int32, lo, hi, skip int) (added int, complete bool) {
	if iter <= s.done || iter < s.iter {
		return 0, false
	}
	if iter > s.iter {
		s.iter, s.count = iter, 0
		clear(s.seen)
	}
	for m := lo; m < hi; m++ {
		if bit := uint64(1) << (m % 64); m != skip && s.seen[m/64]&bit == 0 {
			s.seen[m/64] |= bit
			added++
		}
	}
	s.count += int32(added)
	if complete = s.count == s.need; complete {
		s.done = iter
	}
	return added, complete
}

// Answerable reports whether iteration iter, or a newer one, has completed.
func (s *Slot) Answerable(iter int32) bool { return iter <= s.done }

// Open reports whether iter is the slot's iteration and still incomplete.
func (s *Slot) Open(iter int32) bool { return iter == s.iter && iter > s.done }

// Seen reports whether member m is counted toward the slot's iteration.
func (s *Slot) Seen(m int) bool { return s.seen[m/64]&(1<<(m%64)) != 0 }

// Count is how many members are counted toward the slot's iteration.
func (s *Slot) Count() int { return int(s.count) }

// Abandon forgets an open iteration's count — the partial reduction of an
// aggregator that crashed — and returns it. The iteration's contributions
// then open it afresh.
func (s *Slot) Abandon() int {
	if s.iter <= s.done {
		return 0
	}
	n := s.count
	s.iter, s.count = s.done, 0
	clear(s.seen)
	return int(n)
}
