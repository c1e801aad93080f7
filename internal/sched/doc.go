// Package sched is the pluggable scheduling subsystem behind every
// send/processing queue in the tree: the simulator's NIC egress queues and
// endpoint processing pools (internal/netsim, internal/cluster, on the
// parameter server and on ring all-reduce) and the real TCP transport's
// producer/consumer queues (internal/transport, internal/pstcp) all order
// their work through a sched.Discipline.
//
// P3's core contribution (Section 4.2 of the paper) is an ordering
// discipline on parameter-chunk traffic; the related systems differ mainly
// in which discipline they apply to the same queues — ByteScheduler gates a
// credit window, TicTac derives a DAG order, Parameter Hub schedules at rack
// scale. Making the discipline a first-class value turns every queue into an
// experiment knob: a strategy (internal/strategy) names its discipline, the
// registry resolves it, and each queue instantiates a fresh copy so stateful
// disciplines never share state across queues.
//
// # Contracts
//
// A Discipline is a named key: Key maps an Item to a pair of unsigned words,
// lower pair first, and items with equal keys always dequeue in insertion
// order, which keeps the discrete-event simulator reproducible and matches
// the paper's implementation (slices of one layer go out in order). The
// key is the only statement of the order — Queue evaluates it once per
// element, at enqueue, and compares stored integers afterwards; Less(d, a,
// b) derives the pairwise answer from it for callers that hold two Items
// (preemption checks). The pairwise comparators the built-ins started out
// with survive as the test-side specification the keys are checked against
// (specLess in reference_test.go). Three optional interfaces extend it:
//
//   - Ranker: stamps the item at enqueue time, before Key sees it, for
//     stateful orders a pure function of the Item cannot express (rr's
//     stride scheduling, damped's epoch rank). Rank is called exactly once
//     per item, before insertion, may change only the rank, and the key
//     is (rank, 0): the queue stores the key alone and restores the rank
//     from it when it rebuilds the Item at dispatch.
//   - Dispatcher: observes dequeues (OnDispatch), e.g. to advance a
//     virtual clock.
//   - Admitter: gates dispatch with a credit window, one contract for
//     every event of an admitted item. Admit is consulted before an item
//     may start; OnStart/OnDone bracket its in-flight interval; an
//     Admitter must admit at least one item when nothing is in flight, or
//     the queue would wedge. Admit doubles as an adaptation signal (a
//     refusal is congestion evidence to credit-adaptive), so it belongs
//     inside the dispatch loop's cadence, never in a free-standing poll.
//     OnCancel refunds an admission the caller backed out of; OnPark and
//     OnResume bracket a preempted element's time off the wire. Neither
//     feeds the adaptation: credit-adaptive releases the bytes, credit
//     refunds a cancel as a completion and keeps parked bytes charged.
//     Queue.Done/Cancel/Park/Resume route the calls and are no-ops for
//     ungated disciplines.
//
// Profiled disciplines (tictac, damped over a profiled base) additionally
// consume a Profile — the model timing that strategies derive via
// strategy.ComputeProfile — through ApplyProfile; without one they must
// degrade to a model-blind order, never panic.
//
// # Damped rank
//
// Damped ("damped[:base[@weight]]") composes over a priority-ordered base
// (p3 by default; tictac and the credit gates compose too) and re-ranks
// every item to (arrival epoch + weight x class): between classes the base's
// urgency order holds only within a bounded horizon — an urgent item may
// overtake at most weight x Δclass earlier arrivals, so aging guarantees
// every class progress — and rank ties resolve by the per-source rotation
// Dest XOR source seed (the queue owner's identity, ApplySource/Sourced),
// which de-synchronizes the otherwise identical schedules of N machines.
// The schedule is a permutation of the base's (same items, bounded
// displacement, no starvation). This is the fan-in-aware damping
// that fixes the 64-machine p3-vs-fifo inversion: at high fan-in strict
// priority lets every machine defer its gradient-push tail behind fresher
// urgent broadcasts in lockstep, and the aggregation barrier turns the
// shared deferral into idle ingest windows (66% wire utilization vs fifo's
// 86%, 34% slower at 64 machines/1.5 Gbps); damping restores the pipeline
// while keeping strict-priority behaviour through shallow queues.
//
// # Core-port scheduling and in-rack aggregation
//
// Under a rack topology (netsim.Topology) every ToR uplink and downlink
// port is itself a scheduling site: Topology.CoreSched names a registry
// discipline and each port instantiates a fresh copy, seeded with the
// port's LP index via ApplySource and given the run's Profile via
// ApplyProfile — so a rank means the same thing at a ToR port as it does
// at the host NIC that assigned it (Item.Priority and Item.Dest travel
// with the message), and p3/tictac/damped orders survive into the core
// instead of dissolving in a priority-blind FIFO. An empty CoreSched keeps
// the blind FIFO port, bit-identical to the pre-CoreSched simulator, and
// the "fifo" discipline is pinned bit-identical to it. Determinism at the
// core is inherited from the Discipline contract (equal items dequeue in
// insertion order) plus netsim's canonical arrival order (simultaneous
// arrivals enqueue in source-LP order). Gated disciplines are shard-safe
// everywhere, but for two different reasons: at a core port the admission
// window opens and closes entirely on that port's LP — PopReady at
// serialization start, Done at serialization end — so there is no
// cross-shard edge at all; at a host egress queue the Done refund is
// driven by a delivery on the receiver's LP, and netsim closes that
// cross-shard edge with the window-relaxed credit protocol: the refund is
// carried home as a scheduled event on the sender's own LP, delayed by
// exactly one conservative lookahead window after the delivery. Every
// shard count sees the identical refund timeline (the delay is a constant
// of the topology, not of the shard layout), so credit-gated runs are
// bit-identical from shards=1 through shards=N — pinned by
// internal/cluster's TestShardedGatedMatchesSingle — and the old
// shards=1 fallback for Admitter disciplines is gone. The relaxation is
// semantically free at PropDelay=0 (lookahead 0 means the refund lands at
// the delivery instant, the pre-protocol timing) and otherwise trades at
// most one lookahead of window staleness for parallel execution.
//
// Ordering alone cannot beat an oversubscribed core, though: once the
// core is the bottleneck, every order drains the same bytes through the
// same pipe (the PR-6 negative result). cluster.Config.RackAggregation
// attacks the bytes instead — Parameter Hub-style in-rack reduction sums
// each rack's gradient pushes at an aggregator LP and sends one reduced
// stream per rack across the core, with server broadcasts fanned back out
// at the ToR — after which the core stops saturating and the discipline
// axis differentiates again (damped hosts + damped core ports beat fifo
// at 256 machines under a 4:1 core; TestRackAggregationFinding).
//
// # Calibrated profiles
//
// A Profile may be built from measured stalls instead of static timing:
// strategy.CalibrateProfile shifts each layer's consumption deadline by the
// observed per-layer forward stalls of a prior run
// (cluster.Result.MeanLayerStalls), so slack ranking follows the iteration
// timeline the system actually produced — the closed-loop form of TicTac's
// observed-timing priorities. The simulator exposes it as a two-pass mode
// (cluster.RunCalibrated, on either aggregation method), the real
// transport as runtime hooks (transport.SendQueue.SetProfile, pstcp.Worker.SetProfile —
// safe mid-traffic: Queue.SetProfile re-keys and re-enqueues
// what is queued, so it re-orders under the new profile), and the CLIs as
// -calibrate/-stalls/-stallsout. Caveat, pinned by
// the scale sweep: under STRICT priority at saturation the feedback
// diverges (stretching a starved layer's deadline makes it less urgent
// still); under the damped rank it converges — compose them.
//
// # Flows
//
// Queue, the building block behind every scheduling site, is per-flow:
// elements are bucketed into subqueues keyed by Item.Dest (the receiving
// machine, worker id, or server connection — 0 when the caller has no
// meaningful destination), and the dispatcher selects among the flow heads
// by discipline order, global insertion order on ties. For plain
// disciplines this is indistinguishable from one priority heap — fifo, p3,
// rr, smallest and tictac dequeue bit-identically to a single queue. The
// structure pays off under an Admitter: PopReady consults flow heads in
// urgency order and dispatches the first one admitted, so a destination
// whose credit window is exhausted never blocks admissible traffic bound
// for other destinations (flow-aware head skipping). Cancel refunds route
// by the element's own Dest, so a skipped flow can never absorb another
// flow's refund.
//
// # Complexity and allocation contract
//
// Queue keeps each flow's entries in a binary heap and the non-empty flows
// in a second one ordered by head urgency, in which every flow tracks its
// own slot, so no primitive ever scans the flow set linearly. Both heaps
// compare the (key, insertion count) triple stored in the entry at enqueue
// — a head compare reads a copy of that triple cached in the flow — so an
// operation's cost is integer compares and copies of 32-byte entries (for a
// pointer element), with exactly one Discipline.Key call per Push (plus one
// per Preempts, for the held element) and none per Pop. The entry keeps no
// Item: a gated or dispatch-tracking discipline gets one rebuilt from the
// view, one view call per head the admission walk visits and one per
// dispatch; every built-in but rr and the credit gates makes none. With F
// non-empty flows, n_f elements in the touched flow, and k the number of
// flow heads the admission walk visits before its verdict (k = 1 whenever
// the most urgent head is admitted — the common case, in which no flow
// leaves the head heap — and k never exceeds F):
//
//   - Push: O(log F + log n_f), plus a scan of the idle shells when the
//     flow's slab is full
//   - Peek: O(1)
//   - Pop: O(log F + log n_f)
//   - PopReady, PopReadyIf, Preempts:
//     O(k log F + log n_f); ungated disciplines pin k = 1
//   - Done, Cancel, Len, Discipline: O(1)
//
// Steady-state operation allocates nothing: elements, flow heads and the
// admission walk all live in reusable slabs, a drained flow is evicted from
// the flow map immediately (a long-running queue holds memory proportional
// to its current flow set, not its historical one) and its shell is
// recycled through a free list for the next flow that appears. A flow
// whose slab is full swaps in the largest idle slab on that list with more
// room before it grows (TestSlabSwapMatchesReference), so a deep flow that
// lands on a shallow recycled shell reuses the slab a deep flow left idle.
// Allocation occurs only while the slabs or the flow map are still growing
// toward the working-set high-water mark; SizeFlows lets a caller that
// knows how deep each destination's flow gets start each new shell there.
// The CI benchmark gate (`p3bench -baseline`) enforces both halves of this
// contract — allocs/op must be zero and ns/op may not regress — and
// TestDispatchMatchesLinearScanReference pins the dispatcher bit-identical
// to the retained linear-scan reference implementation. TestEntrySize pins
// the entry at 32 bytes for a pointer element, and Item's //p3:sizebudget
// the 24-byte Item every gated dispatch passes by value.
//
// # Preemption
//
// internal/netsim's resumable egress charges serialization in segments
// and re-decides at segment boundaries: Preempts(hold) reports whether
// PopReady would dispatch something strictly more urgent than the
// in-flight element — ties never preempt, preserving insertion order
// within a priority class — and PopReadyIf adds netsim's size gates, so an
// in-flight message is parked, retaining partial progress, whenever an
// express message can win the exchange outright. The real transport writes
// every frame whole: slicing already captures what preemption would buy
// there.
//
// # Registry
//
// ByName resolves a discipline name, optionally parameterized as
// "name:arg", to a fresh instance; the empty name resolves to fifo. The
// disciplines (aliases in parentheses):
//
//   - fifo (baseline): insertion order — the MXNet/ps-lite wire behaviour.
//   - p3 (priority, p3priority): strict priority, lower Item.Priority
//     first — the paper's mechanism.
//   - rr (roundrobin): round-robin across priority classes via stride
//     scheduling — layers share the wire instead of starving each other.
//   - smallest (sjf): smallest payload first — the model-blind foil for
//     slicing experiments.
//   - tictac (dag, criticalpath): critical-path order from the timing
//     Profile — per-layer slack to consumption; p3 without a profile.
//   - credit[:bytes] (bytescheduler): ByteScheduler-style credit gate —
//     priority order plus one bounded in-flight window per queue.
//   - credit-adaptive[:bytes] (adaptive): one credit window per
//     destination, each tuned by AIMD from the admit/ack pattern.
//   - damped[:base[@weight]] (damp): fan-in-aware priority damping over a
//     priority-ordered base (default p3, weight 8): bounded-horizon
//     urgency plus per-source tie rotation. Rejects bases that rank at
//     enqueue (rr, damped) or order by something other than priority
//     (fifo, smallest).
//
// ByName's unknown-name diagnostic (and Usage) spells the parameterized
// grammar for each of these.
package sched
