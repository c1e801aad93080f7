// Package lint statically enforces the contracts this repo's correctness
// and performance results rest on. Every invariant below was first paid for
// dynamically — a divergence hunted across shard counts, a benchmark
// regression bisected to a struct field — and each analyzer is the static
// form of one of those lessons: the tree fails `go vet` at the moment the
// contract is broken, instead of a determinism test or a benchmark gate
// failing several PRs later.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library alone: packages load via
// `go list -deps -export` with dependencies type-checked from compiled
// export data, and cmd/p3lint additionally speaks cmd/go's vettool protocol
// (-flags, -V=full, per-unit vet.cfg), so the same analyzers run standalone
// and under `go vet -vettool`.
//
// # The invariants
//
// wallclock — a simulation Result must be a pure function of its inputs.
// The discrete-event engines define time; the cluster model pre-draws all
// randomness from seeded PCG streams (compute jitter is precomputed
// per (worker, iteration) exactly so that event order cannot perturb the
// random sequence). One time.Now or global-rand read anywhere in the
// determinism-critical packages (sim, netsim, cluster, faults, ring,
// worker, sched, pq, trace) silently breaks the N-shard == 1-shard bit-identity contract,
// so there the analyzer rejects wall-clock reads outright — even annotated
// ones. Elsewhere (the real pstcp transport, experiment harnesses that
// report wall-clock throughput, the CLI binaries) real time is legitimate
// and is declared with //p3:wallclock-ok <reason>. Methods on an explicitly
// seeded *rand.Rand and the seeded constructors (rand.New, NewPCG, ...) are
// always fine; it is the runtime-seeded package-level source that is banned.
//
// maporder — every event carries a canonical (scheduling time, LP, per-LP
// order) tie key, stamped in scheduling call order. Feeding a scheduling
// call — Engine.At/After, Proc.At/After, an Exec.Cross send, sched's
// Queue.Push, netsim's Send and fault-injection surface — from a `range`
// over a map makes that order, and with it the whole Result, a function of
// Go's per-process map seed. This is the static form of the PR 9
// local-vs-cross tie bug, which surfaced only at particular shard counts.
// The analyzer follows calls transitively within the package, including
// through closures built in the loop body; iterate sorted keys instead, or
// document a genuinely order-insensitive walk with //p3:maporder-ok <reason>.
//
// sizebudget — five hot structs sit on measured performance cliffs, pinned
// with //p3:sizebudget <bytes>:
//
//   - sim's event struct (32 bytes: at, sched, packed ord, fn). The event
//     heap moves events by value; at 32 bytes those copies are compiled to
//     register moves. One more word pushes them off that path and was
//     measured (PR 9) to roughly triple per-event heap cost — the
//     difference between ~17ns and ~50ns per event across a
//     quarter-billion-event sweep. That is why lp and seq share the packed
//     ord word instead of having fields of their own.
//
//   - sched.Item (24 bytes, 4 fields: Priority and Dest sharing a word,
//     Bytes, rank). The budget is the queue entry's: sched.Queue stores
//     the element, its Item and a three-word order key per queued element,
//     56 bytes for a pointer-sized element with Item at 24 — what an entry
//     cost before the key was stored. With Item at 32 bytes (64-byte
//     entry) the same code measured +3.5% to +10.5% alloc_mb_per_pass on
//     the bench workloads (PR 15), past the benchmark's 5% bound, and the
//     heaps move entries by value, so every byte is also copied per sift
//     level. That is also why Item has no Src field — the element's origin
//     is a property of the queue, injected per discipline via ApplySource.
//     (sched's TestEntrySize pins the 56 directly.)
//
//   - sim.Engine (128 bytes, 24 of them padding). Every event writes the
//     header; 128 bytes is a size class whose objects own their two cache
//     lines, so concurrent sweep cells cannot false-share it. At its
//     natural 80 bytes two pooled cells cost up to a third more wall time,
//     by allocation luck (PR 19).
//
//   - sim's pshard (256 bytes, 96 of them padding), one shard of a
//     Parallel run: an embedded Engine plus the shard's outboxes and work
//     channel, for the same reason. Every event writes its Engine header
//     and NewParallel allocates the shards back to back; at its natural
//     160 bytes the shards would share lines, and 256 is the smallest
//     size class above that whose objects are 128-byte aligned.
//
//   - netsim's flight (96 bytes), the record each in-flight message owns.
//     A cell keeps tens of thousands live at its peak and makes every one
//     afresh per run, so the record's size class is paid once per record
//     a run makes: rack256_hier makes about 110 thousand a pass, and each
//     size class up (112, then 128 bytes) costs 1.7 MB of its 33 MB.
//     The wire size is derived, a segment's start is read back from the
//     clock at its end, and the switch port is an index packed beside
//     pri; at 128 bytes, with those three as fields, the same pass
//     allocated 3.5 MB more.
//
// The analyzer recomputes each annotated struct's size under the gc layout
// (types.Sizes) and fails on any mismatch, in either direction: growth is
// the regression itself, shrinkage means the budget and its justifying
// comment are stale and the cliff must be re-measured. Budgets are stated
// for 64-bit targets; on 32-bit the analyzer is silent rather than wrong.
//
// noescape — PR 4 drove the pq and sched dispatch paths to 0 allocs/op in
// steady state (free-listed flow shells, slab-backed heaps), and the
// benchmark gate pins that dynamically. The //p3:noescape directive pins it
// statically: cmd/p3lint compiles the module with -gcflags='<module>/...=-m'
// and fails if any "escapes to heap"/"moved to heap" diagnostic lands
// inside a marked function. Generics make the module-wide build necessary:
// escape analysis of a generic hot path happens in the *importing*
// package's compilation, with positions pointing back into the defining
// file. A documented cold-path allocation inside a marked function — the
// first flow shell per destination — is exempted on its line with
// //p3:alloc-ok <reason>. The simulated message path is pinned
// the same way: every per-message function of netsim (Send, pumpEgress,
// forward/land, the stage's enqueue/pump/serve, which serve every hop,
// host egress included, portEnqueue/routeFromPort, arrive, refundCredit,
// deliverAgg, AggSend/AggFanout, their continuations and the routing
// predicate) and of worker — the
// endpoint Pool (Add/pump/start/finish) and the compute Loop's step
// functions (forward/run/step/Installed) — schedules a record's pre-bound
// func() instead of a closure literal: a closure creeping back into one of
// them is a "func literal escapes to heap" inside a marked function. The
// only exempted lines are the record pool's miss (netsim's newFlight) and
// two misuse panics in Send. This pass drives the compiler, so it runs
// standalone (`p3lint -analyzers=noescape ./...`), not under vet; on an
// unchanged tree the diagnostics replay from the build cache.
//
// # Directive grammar
//
// A directive is a comment beginning exactly //p3: (no space, the Go
// directive convention). The name runs to the first space; the remainder is
// the argument. A directive attaches to the line it trails, or to the line
// immediately below when it stands alone — deliberately narrow, so a stale
// directive cannot silently blanket half a file.
//
//	//p3:wallclock-ok <reason>   allow one wall-clock/global-rand use site
//	//p3:maporder-ok <reason>    allow one map-walk-into-scheduling site
//	//p3:sizebudget <bytes>      pin a struct's exact gc size (on the decl)
//	//p3:noescape                forbid heap escapes in this function
//	//p3:alloc-ok <reason>       exempt one line inside a //p3:noescape body
//
// The -ok suppressions require a reason and are rejected in the
// determinism-critical packages (wallclock) — an empty excuse fails the
// build the same way the violation would.
package lint
