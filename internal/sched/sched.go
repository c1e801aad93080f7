package sched

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Item is the scheduler-visible view of a queued element. Callers project
// their own element type (a transport frame, a simulator message, a
// processing-pool work item) into an Item; disciplines only ever see this
// view.
//
// The layout is part of the dispatch budget. Queue no longer stores an
// Item per queued element (an entry is the element and its three-word
// order key, 32 bytes for a pointer), but it passes one by value on every
// gated dispatch: rebuilt from the view for Admit at each head the
// admission walk visits, and for OnStart and OnDispatch. At 24 bytes (the
// two int32 fields share a word) it fits three registers. While the Item
// was stored, a 32-byte Item (64-byte entry) measured +3.5% to +10.5%
// alloc_mb_per_pass across the bench workloads (PR 15); a new field still
// has to pay for itself on the dispatch path.
//
//p3:sizebudget 24
type Item struct {
	// Priority is the urgency class, lower = more urgent. P3 assigns
	// forward-pass layer order, so Priority doubles as the flow key for
	// fairness disciplines.
	Priority int32
	// Dest identifies the flow's destination (receiving machine, worker
	// id, ...); per-destination disciplines (credit-adaptive) key their
	// windows on it. Callers without a meaningful destination leave it 0,
	// which collapses those disciplines to a single shared window.
	//
	// Item deliberately has no Src twin: the element's origin is a
	// property of the QUEUE (a NIC egress queue belongs to one machine, a
	// transport send queue to one worker), injected once per discipline
	// via ApplySource/Sourced.
	Dest int32
	// Bytes is the payload size (wire bytes or processing cost proxy).
	Bytes int64
	// rank is a discipline-assigned ordering key, set by a Ranker at
	// enqueue time (e.g. the stride-scheduling pass of rr).
	rank uint64
}

// Discipline orders a queue by naming each item's place in the order: Key
// maps an Item to a pair of unsigned words compared lexicographically,
// (hi, lo) ascending, and items with equal keys dequeue in insertion
// order. Queue calls Key exactly once per element, at enqueue (after any
// Ranker pass), and from then on compares the stored integers — so Key
// must be a pure function of the Item and of discipline state that changes
// only through SetProfile (Queue.SetProfile re-keys what is queued).
// Signed fields enter a key through ord32/ord64 so that unsigned compare
// orders them as signed. A Discipline instance may be stateful and must
// not be shared between queues — obtain a fresh instance per queue via
// ByName.
type Discipline interface {
	// Name returns the canonical registry name.
	Name() string
	// Key returns the item's position in the order; lower dequeues first.
	Key(it Item) (hi, lo uint64)
}

// Less reports whether a is strictly more urgent than b under d — the
// comparison Key defines, for callers holding two Items rather than a
// queue (preemption checks against an in-flight element).
func Less(d Discipline, a, b Item) bool {
	ka, kb := keyOf(d, a), keyOf(d, b)
	return ka.before(&kb)
}

// ord32 and ord64 map a signed value to the unsigned one with the same
// order (flip the sign bit), so keys built from signed fields compare
// correctly over the whole domain, negative classes included.
func ord32(v int32) uint64 { return uint64(uint32(v) ^ 1<<31) }
func ord64(v int64) uint64 { return uint64(v) ^ 1<<63 }

// Ranker is implemented by disciplines that stamp an item at enqueue time
// (stateful orders that a pure function of the Item cannot express, such
// as round-robin). Rank is called exactly once per item, before Key and
// insertion, and returns the stamped item. (Value-in/value-out rather than
// a pointer: passing a stack Item's address through the interface would
// force every enqueue — under every discipline — to heap-allocate the
// view.)
//
// A Ranker's Key must be (rank, 0), and Rank may change nothing but rank:
// the queue stores only the key, and rebuilds the stamped Item it hands
// to Admit, OnStart and OnDispatch from the element's view with rank
// restored from the key's high word (TestRankerKeyIsRank).
type Ranker interface {
	Rank(it Item) Item
}

// Dispatcher is implemented by disciplines that track dequeues (e.g. to
// advance a virtual clock). OnDispatch is called when an item is popped.
type Dispatcher interface {
	OnDispatch(it Item)
}

// Admitter is implemented by disciplines that gate dispatch with a credit
// window (ByteScheduler-style preemption control). Admit is consulted before
// an item may start; OnStart/OnDone bracket the item's in-flight interval.
// An Admitter must admit at least one item when nothing is in flight, or the
// queue would wedge. Admit is part of the adaptation protocol, not a pure
// query: an adaptive discipline may record a refusal as a congestion
// signal, so callers must not poll it outside the dispatch loop's own
// cadence.
//
// OnCancel refunds an admission the caller backed out of before doing the
// work (a processing pool deferring an item on per-key serialization, a
// send loop re-queueing a frame its connection failed to write). A window
// that adapts releases the charge without feeding its adaptation signals;
// a fixed window may treat it as a completion.
//
// OnPark and OnResume bracket a preempted transmission's time parked
// outside the queue; the eventual OnDone balances as usual. A window may
// move the parked remainder out of its charge (it is off the wire, and a
// window full of parked bytes is not congestion evidence) or keep it
// charged, which is safe but lets a long-parked tail bind its flow's
// window. Neither transition may feed the adaptation.
type Admitter interface {
	Admit(it Item) bool
	OnStart(it Item)
	OnDone(it Item)
	OnCancel(it Item)
	OnPark(it Item)
	OnResume(it Item)
}

// Profile carries the model timing knowledge that model-aware disciplines
// consume: for each priority class p (a layer's forward-pass index, the
// value carried in Item.Priority), NeedAtNs[p] is the compute time from the
// start of a forward pass until that layer's parameters are consumed, and
// GbpsEstimate is the wire rate used to estimate transfer times. Strategies
// populate it from the zoo model's model.Timing (strategy.ComputeProfile)
// and the scheduling sites hand it to their disciplines via ApplyProfile.
type Profile struct {
	NeedAtNs []int64
	// LayerBytes[p] is the total wire size of class p's tensor, used to
	// estimate how early the class's transfer must start.
	LayerBytes   []int64
	GbpsEstimate float64
}

// TxNs estimates the transfer time of a payload at the profiled wire rate
// (Gbit/s == bit/ns, so bits/rate is already nanoseconds).
func (p *Profile) TxNs(bytes int64) int64 {
	if p == nil || p.GbpsEstimate <= 0 {
		return 0
	}
	return int64(float64(bytes) * 8 / p.GbpsEstimate)
}

// Profiled is implemented by disciplines that consume a model Profile
// (tictac). A queue site that has one applies it with ApplyProfile right
// after resolving the discipline; disciplines must tolerate never receiving
// a profile by degrading to a model-blind order.
type Profiled interface {
	SetProfile(*Profile)
}

// ApplyProfile hands p to d when d is profile-aware, and returns d for
// chaining around NewQueue. A nil profile is a no-op.
func ApplyProfile(d Discipline, p *Profile) Discipline {
	if p != nil {
		if pd, ok := d.(Profiled); ok {
			pd.SetProfile(p)
		}
	}
	return d
}

// Sourced is implemented by disciplines that de-synchronize otherwise
// identical schedules across queue owners (damped): the source seed — the
// machine or endpoint the queue belongs to — rotates equal-rank decisions
// differently on every owner, so N machines running the same discipline do
// not collapse their urgent traffic onto the same receiver window. A queue
// site that knows its owner applies it with ApplySource right after
// resolving the discipline; disciplines must behave sensibly (rotation 0)
// without it.
type Sourced interface {
	SetSource(src int32)
}

// ApplySource hands the queue owner's identity to d when d is
// source-aware, and returns d for chaining around NewQueue.
func ApplySource(d Discipline, src int32) Discipline {
	if sd, ok := d.(Sourced); ok {
		sd.SetSource(src)
	}
	return d
}

// ---- built-in disciplines ----

// FIFO dequeues in insertion order: the baseline wire behaviour of
// stock ps-lite/MXNet.
type FIFO struct{}

// NewFIFO returns the fifo discipline.
func NewFIFO() *FIFO { return &FIFO{} }

func (*FIFO) Name() string             { return "fifo" }
func (*FIFO) Key(Item) (hi, lo uint64) { return 0, 0 }

// P3Priority dequeues the lowest Priority value first — the paper's
// mechanism (Section 4.2): chunks of early layers preempt chunks of late
// layers at item granularity, ties in insertion order.
type P3Priority struct{}

// NewP3Priority returns the p3 strict-priority discipline.
func NewP3Priority() *P3Priority { return &P3Priority{} }

func (*P3Priority) Name() string                { return "p3" }
func (*P3Priority) Key(it Item) (hi, lo uint64) { return ord32(it.Priority), 0 }

// RoundRobinLayer interleaves priority classes (layers) fairly via stride
// scheduling: each class holds a pass counter, every enqueued item is
// stamped with its class's next pass (never behind the virtual clock of the
// last dispatch, so an idle class cannot hoard credit), and the smallest
// pass dequeues first. The result is one-from-each-layer round-robin rather
// than strict preemption.
type RoundRobinLayer struct {
	pass    map[int32]uint64
	virtual uint64
}

// NewRoundRobinLayer returns the rr discipline.
func NewRoundRobinLayer() *RoundRobinLayer {
	return &RoundRobinLayer{pass: make(map[int32]uint64)}
}

func (*RoundRobinLayer) Name() string { return "rr" }

func (*RoundRobinLayer) Key(it Item) (hi, lo uint64) { return it.rank, 0 }

func (r *RoundRobinLayer) Rank(it Item) Item {
	p := r.pass[it.Priority]
	if p < r.virtual {
		p = r.virtual
	}
	it.rank = p
	r.pass[it.Priority] = p + 1
	return it
}

func (r *RoundRobinLayer) OnDispatch(it Item) {
	if it.rank+1 > r.virtual {
		r.virtual = it.rank + 1
	}
}

// SmallestFirst dequeues the smallest payload first (shortest-job-first),
// breaking ties by priority. It minimizes mean queueing delay without any
// model knowledge — the natural foil for P3's semantic priorities.
type SmallestFirst struct{}

// NewSmallestFirst returns the smallest discipline.
func NewSmallestFirst() *SmallestFirst { return &SmallestFirst{} }

func (*SmallestFirst) Name() string { return "smallest" }

func (*SmallestFirst) Key(it Item) (hi, lo uint64) {
	return ord64(it.Bytes), ord32(it.Priority)
}

// DefaultCreditBytes is the credit window used by the plain "credit" name:
// 4 MiB, ByteScheduler's default credit of a few slices' worth of traffic.
const DefaultCreditBytes = 4 << 20

// CreditGated is the ByteScheduler-style discipline: strict priority order
// plus a credit window — an item may start only while the bytes already in
// flight (started, not yet Done) leave room for it, except that the window
// never blocks an otherwise idle queue. Small windows approximate perfect
// preemption (a newly urgent item waits behind at most Credit bytes); an
// infinite window degenerates to p3.
type CreditGated struct {
	// Credit is the in-flight byte budget.
	Credit int64
	// inFlight is the byte total of started-but-not-Done items.
	inFlight int64
}

// NewCreditGated returns a credit discipline with the given window
// (<= 0 selects DefaultCreditBytes).
func NewCreditGated(credit int64) *CreditGated {
	if credit <= 0 {
		credit = DefaultCreditBytes
	}
	return &CreditGated{Credit: credit}
}

func (*CreditGated) Name() string                { return "credit" }
func (*CreditGated) Key(it Item) (hi, lo uint64) { return ord32(it.Priority), 0 }

func (c *CreditGated) Admit(it Item) bool {
	return c.inFlight == 0 || c.inFlight+it.Bytes <= c.Credit
}

func (c *CreditGated) OnStart(it Item) { c.inFlight += it.Bytes }

func (c *CreditGated) OnDone(it Item) {
	c.inFlight -= it.Bytes
	if c.inFlight < 0 {
		panic(fmt.Sprintf("sched: credit underflow (%d bytes)", c.inFlight))
	}
}

// OnCancel refunds a backed-out admission as a completion: a fixed window
// has no adaptation for the difference to matter to.
func (c *CreditGated) OnCancel(it Item) { c.OnDone(it) }

// OnPark and OnResume leave a parked transmission's bytes charged.
func (*CreditGated) OnPark(Item)   {}
func (*CreditGated) OnResume(Item) {}

// InFlight reports the bytes currently charged against the window.
func (c *CreditGated) InFlight() int64 { return c.inFlight }

// TicTac ranks transfers by critical-path urgency the way TicTac (Hashemi
// et al., cited in the paper's related work) derives its DAG order: each
// layer's rank is its slack to consumption — the compute time until the
// next forward pass blocks on the layer, minus the estimated time to move
// the layer's bytes — so a heavy tensor's transfer is started earlier than
// its raw position suggests, and layers the timing profile declares
// compute-equivalent are ordered by transfer weight instead of p3's
// arbitrary index order.
//
// The slack is computed per layer (priority class), never per item: ranking
// individual chunks by their own size lets a layer's smaller tail chunk
// sort behind future full-size arrivals of the same layer, and because the
// forward pass consumes a layer all-or-nothing, that one chunk's starvation
// stalls the layer for a whole queue drain (observed on ResNet-50's fc
// layer: one 192 KB tail chunk behind 150 ms of backlog). Within a layer,
// and between layers with identical slack, items keep insertion order.
// Without a Profile the slack is unknowable and the discipline degrades to
// p3 exactly.
type TicTac struct {
	prof  *Profile
	slack []int64 // per priority class, precomputed on SetProfile
}

// NewTicTac returns the tictac discipline; supply timing via SetProfile
// (ApplyProfile) before use, or it behaves as p3.
func NewTicTac() *TicTac { return &TicTac{} }

func (*TicTac) Name() string { return "tictac" }

// SetProfile installs the model timing profile (Profiled) and precomputes
// the per-layer slack ranks.
func (t *TicTac) SetProfile(p *Profile) {
	t.prof = p
	t.slack = nil
	if p == nil {
		return
	}
	t.slack = make([]int64, len(p.NeedAtNs))
	for l := range p.NeedAtNs {
		var bytes int64
		if l < len(p.LayerBytes) {
			bytes = p.LayerBytes[l]
		}
		t.slack[l] = p.NeedAtNs[l] - p.TxNs(bytes)
	}
}

// Slack returns priority class pri's rank: its consumption deadline minus
// its estimated transfer time, in nanoseconds; lower is more urgent.
// Out-of-range classes clamp to the nearest profiled class.
func (t *TicTac) Slack(pri int32) int64 {
	if len(t.slack) == 0 {
		return 0
	}
	if pri < 0 {
		return t.slack[0]
	}
	if int(pri) >= len(t.slack) {
		return t.slack[len(t.slack)-1]
	}
	return t.slack[pri]
}

// Key orders by the class's slack, then by the class itself; p3's key
// without a profile.
func (t *TicTac) Key(it Item) (hi, lo uint64) {
	if len(t.slack) == 0 {
		return ord32(it.Priority), 0
	}
	return ord64(t.Slack(it.Priority)), ord32(it.Priority)
}

// AdaptiveCredit extends the credit gate from one shared window to one
// window per destination (Item.Dest), each tuned by AIMD from the
// admit/acknowledge pattern the queue already observes — no clock needed,
// so the adaptation is identical on the virtual and the real transport:
//
//   - stall: the window ran dry straight after refusing traffic (at most
//     one acknowledgement followed the last refusal), i.e. the destination
//     sat credit-limited with work queued — additive increase (Step,
//     capped at Max). A refusal followed by a burst of acknowledgements is
//     batch bookkeeping (the real send loops flush pending frames whenever
//     the gate refuses), not starvation, and does not grow the window;
//   - idle margin: 2x the window's worth of bytes completed without the
//     gate ever binding — the window buys no preemption it is paying for,
//     multiplicative decrease (halve, floored at Min).
//
// Window sizing is independent per destination: a slow receiver tunes its
// own window without inflating or shrinking anyone else's, the rack-scale
// imbalance Parameter Hub's analysis attributes to shared gates. Dispatch
// is decoupled the same way: Queue keeps one subqueue per destination and
// PopReady consults the flow heads in urgency order, so a destination that
// is out of credit is skipped and the most urgent admissible item bound
// elsewhere dispatches (flow-aware head skipping) — only items behind a
// refused head of their OWN destination wait for its window.
type AdaptiveCredit struct {
	// Initial is the starting window per destination.
	Initial int64
	// Min and Max bound the adaptation; Step is the additive increment.
	Min, Max, Step int64
	wins           map[int32]*destWindow
}

type destWindow struct {
	credit   int64
	inFlight int64
	parked   int64 // bytes of parked (preempted) transmissions, off the wire
	refused  bool  // the gate refused an item in the current busy period
	sinceRef int   // completions since the gate last refused
	clean    int64 // bytes acked since the gate last bound (or last adjust)
}

// NewAdaptiveCredit returns a credit-adaptive discipline whose per-
// destination windows start at initial bytes (<= 0 selects
// DefaultCreditBytes) and adapt within [initial/8, initial*16].
func NewAdaptiveCredit(initial int64) *AdaptiveCredit {
	if initial <= 0 {
		initial = DefaultCreditBytes
	}
	a := &AdaptiveCredit{
		Initial: initial,
		Min:     initial / 8,
		Max:     initial * 16,
		Step:    initial / 4,
		wins:    make(map[int32]*destWindow),
	}
	if a.Max/16 != initial { // initial*16 overflowed int64
		a.Max = math.MaxInt64
	}
	if a.Min < 1 {
		a.Min = 1
	}
	if a.Step < 1 {
		a.Step = 1
	}
	return a
}

func (*AdaptiveCredit) Name() string                { return "credit-adaptive" }
func (*AdaptiveCredit) Key(it Item) (hi, lo uint64) { return ord32(it.Priority), 0 }

func (a *AdaptiveCredit) win(dst int32) *destWindow {
	w := a.wins[dst]
	if w == nil {
		w = &destWindow{credit: a.Initial}
		a.wins[dst] = w
	}
	return w
}

func (a *AdaptiveCredit) Admit(it Item) bool {
	w := a.win(it.Dest)
	if w.inFlight == 0 || w.inFlight+it.Bytes <= w.credit {
		return true
	}
	w.refused = true
	w.sinceRef = 0
	w.clean = 0
	return false
}

func (a *AdaptiveCredit) OnStart(it Item) { a.win(it.Dest).inFlight += it.Bytes }

func (a *AdaptiveCredit) OnDone(it Item) {
	w := a.win(it.Dest)
	w.inFlight -= it.Bytes
	if w.inFlight < 0 {
		panic(fmt.Sprintf("sched: credit-adaptive underflow (dest %d, %d bytes)", it.Dest, w.inFlight))
	}
	if w.refused {
		w.sinceRef++
	}
	if w.inFlight == 0 {
		if w.refused {
			// The busy period ended with traffic having been refused. If at
			// most one completion followed the last refusal, the window ran
			// dry straight after binding — the destination stalled on
			// credit, not on data: additive increase. A burst of
			// completions after the refusal instead means the consumer
			// acknowledges in batches (the real send loops flush a whole
			// pending batch whenever the gate refuses), which drains the
			// window to zero as a matter of bookkeeping, not starvation —
			// growing on that signal would ratchet every window to Max and
			// degrade the discipline to an ungated p3 queue.
			if w.sinceRef <= 1 {
				w.credit += a.Step
				if w.credit > a.Max {
					w.credit = a.Max
				}
			}
			w.refused = false
			w.sinceRef = 0
			w.clean = 0
			return
		}
		// Idle drain without any refusal: fall through and count the bytes
		// as unconstrained.
	}
	if !w.refused {
		w.clean += it.Bytes
		if w.clean >= 2*w.credit {
			w.credit /= 2
			if w.credit < a.Min {
				w.credit = a.Min
			}
			w.clean = 0
		}
	}
}

// OnCancel refunds an admission without feeding the AIMD: the caller
// backed out of the work, so the bytes were neither stalled on nor cleanly
// delivered. If the refund drains the window, any pending refusal evidence
// is discarded rather than interpreted — a drain by cancellation says
// nothing about credit starvation.
func (a *AdaptiveCredit) OnCancel(it Item) {
	w := a.win(it.Dest)
	w.inFlight -= it.Bytes
	if w.inFlight < 0 {
		panic(fmt.Sprintf("sched: credit-adaptive underflow on cancel (dest %d, %d bytes)", it.Dest, w.inFlight))
	}
	if w.inFlight == 0 {
		w.refused = false
		w.sinceRef = 0
	}
}

// OnPark moves a preempted transmission's bytes out of the admission
// window: the remainder is off the wire while parked, so leaving
// it charged would refuse admissible traffic and feed those refusals to
// the AIMD as if the destination were stalled on credit — preemption would
// spuriously tune the window. Like OnCancel, a drain by parking discards
// pending refusal evidence instead of interpreting it.
func (a *AdaptiveCredit) OnPark(it Item) {
	w := a.win(it.Dest)
	w.inFlight -= it.Bytes
	w.parked += it.Bytes
	if w.inFlight < 0 {
		panic(fmt.Sprintf("sched: credit-adaptive underflow on park (dest %d, %d bytes)", it.Dest, w.inFlight))
	}
	if w.inFlight == 0 {
		w.refused = false
		w.sinceRef = 0
	}
}

// OnResume re-charges a parked transmission when it continues; the
// eventual OnDone balances the charge. Resuming is not an admission and
// feeds no adaptation signal.
func (a *AdaptiveCredit) OnResume(it Item) {
	w := a.win(it.Dest)
	w.parked -= it.Bytes
	w.inFlight += it.Bytes
	if w.parked < 0 {
		panic(fmt.Sprintf("sched: credit-adaptive resume without park (dest %d, %d bytes)", it.Dest, w.parked))
	}
}

// Window reports dst's current credit window (Initial if never used).
func (a *AdaptiveCredit) Window(dst int32) int64 {
	if w := a.wins[dst]; w != nil {
		return w.credit
	}
	return a.Initial
}

// InFlight reports the bytes currently charged against dst's window.
func (a *AdaptiveCredit) InFlight(dst int32) int64 {
	if w := a.wins[dst]; w != nil {
		return w.inFlight
	}
	return 0
}

// Parked reports the bytes of dst's transmissions currently parked
// (preempted), which do not count against the admission window.
func (a *AdaptiveCredit) Parked(dst int32) int64 {
	if w := a.wins[dst]; w != nil {
		return w.parked
	}
	return 0
}

// ---- registry ----

// names are the canonical discipline names, sorted; usage is the same list
// with the argument grammar of the parameterized ones, so ByName's error
// text (and the CLI -sched help strings built from it) documents how to
// invoke them, not just that they exist.
var (
	names = []string{"credit", "credit-adaptive", "damped", "fifo", "p3", "rr", "smallest", "tictac"}
	usage = []string{"credit[:bytes]", "credit-adaptive[:bytes]", "damped[:base[@weight]]", "fifo", "p3", "rr", "smallest", "tictac"}
)

// Names returns the canonical discipline names, sorted.
func Names() []string { return slices.Clone(names) }

// Usage returns the canonical discipline names with argument grammar
// ("credit[:bytes]", "damped[:base[@weight]]"), sorted like Names.
func Usage() []string { return slices.Clone(usage) }

// noArg returns the parameterless discipline d, rejecting a stray argument
// ("rr:junk" must not silently resolve to rr).
func noArg(name, arg string, d Discipline) (Discipline, error) {
	if arg != "" {
		return nil, fmt.Errorf("sched: %s takes no argument (got %q)", name, arg)
	}
	return d, nil
}

// windowArg parses the optional byte-count argument of the credit
// disciplines; the empty string selects the default window.
func windowArg(name, arg string) (int64, error) {
	if arg == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(arg, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("sched: %s window %q (want a positive byte count)", name, arg)
	}
	return n, nil
}

// ByName resolves a discipline name or alias (optionally parameterized as
// "name:arg") to a fresh instance. The empty name resolves to fifo.
func ByName(name string) (Discipline, error) {
	if name == "" {
		return NewFIFO(), nil
	}
	base, arg := name, ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		base, arg = name[:i], name[i+1:]
		if arg == "" {
			// "credit:" is a malformed parameterization, not a request for
			// the default window — resolving it silently would mask a lost
			// argument (found by FuzzByName).
			return nil, fmt.Errorf("sched: %q has an empty argument (drop the colon for the default)", name)
		}
	}
	switch base {
	case "fifo", "baseline":
		return noArg("fifo", arg, NewFIFO())
	case "p3", "priority", "p3priority":
		return noArg("p3", arg, NewP3Priority())
	case "rr", "roundrobin":
		return noArg("rr", arg, NewRoundRobinLayer())
	case "smallest", "sjf":
		return noArg("smallest", arg, NewSmallestFirst())
	case "tictac", "dag", "criticalpath":
		return noArg("tictac", arg, NewTicTac())
	case "credit", "bytescheduler":
		n, err := windowArg("credit", arg)
		if err != nil {
			return nil, err
		}
		return NewCreditGated(n), nil
	case "credit-adaptive", "adaptive":
		n, err := windowArg("credit-adaptive", arg)
		if err != nil {
			return nil, err
		}
		return NewAdaptiveCredit(n), nil
	case "damped", "damp":
		return dampedByArg(arg)
	}
	return nil, fmt.Errorf("sched: unknown discipline %q (want %s)", name, strings.Join(usage, "|"))
}

// MustByName is ByName for statically known names; it panics on error.
func MustByName(name string) Discipline {
	d, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return d
}
