// Package faults scripts deterministic fault injection for the cluster
// simulator: a seeded, JSON-serializable Plan of timed fault events that
// replays bit-identically at every shard count of the parallel engine.
//
// # Plan schema
//
// A Plan is a JSON object:
//
//	{
//	  "seed": 7,             // informational: the Scripted() generator seed
//	  "detect_ns": 5000000,  // failure-detection latency (0 = 5 ms default)
//	  "timeout_ns": 100000000, // recovery retry period (0 = 100 ms default)
//	  "events": [
//	    {"kind": "agg-crash",    "at_ns": 1e7, "until_ns": 6e7, "tier": "rack", "index": 1},
//	    {"kind": "straggler",    "at_ns": 0,   "until_ns": 4e8, "machine": 5, "factor": 1.5},
//	    {"kind": "link-degrade", "at_ns": 2e7, "until_ns": 8e7, "link": "tor", "index": 0, "factor": 0.5},
//	    {"kind": "worker-leave", "at_ns": 3e7, "until_ns": 9e7, "machine": 9}
//	  ]
//	}
//
// Times are virtual nanoseconds on the simulation clock. Decoding is
// strict (unknown fields are errors) and Plan.Validate checks every event
// against the concrete cluster — machine indices against the machine
// count, rack/pod indices against the netsim.Topology — so a plan cannot
// silently reference hardware the run does not have. What a plan needs of
// the run beyond hardware (aggregation for a crash to have something to
// crash, an immediate-broadcast strategy to recover against) is checked,
// with every other prerequisite, by cluster.Config.Validate.
//
// The four kinds:
//
//   - agg-crash: the rack or pod aggregator goes down for [at, until)
//     (until 0 = permanently). Messages addressed to it are dropped, its
//     in-flight partial reductions are lost, and senders — after a
//     detect_ns detection lag — fall back to direct paths: workers push
//     straight to the parameter server, the hierarchical tier re-parents
//     rack streams from the pod aggregator to the server, and server
//     broadcasts fan out per machine instead of per rack/pod. Servers
//     re-arm a timeout_ns barrier timer and request direct re-pushes for
//     contributions the crash swallowed; workers stalled on lost
//     broadcasts re-pull directly. Recovery is dedup-safe, so timeout_ns
//     only tunes recovery latency, never correctness.
//   - straggler: machine's compute steps that start inside the window
//     take factor (>= 1) times longer.
//   - link-degrade: one port's serialization rate is multiplied by factor
//     (in (0, 1]) inside the window — a host NIC, a rack's ToR uplink and
//     downlink, or a pod's spine uplink and downlink.
//   - worker-leave: the machine's training loop pauses for the window;
//     compute steps that would start inside it instead run after until.
//     Synchronous SGD stalls the barrier meanwhile — the realistic
//     semantics of a sync cluster without elastic membership.
//
// # LP quantization rule
//
// Every fault is injected as an ordinary discrete event on the logical
// process that owns the affected state — the degraded port's LP, the
// crashed aggregator's LP — scheduled at construction time, before the
// engines run. Construction-time events carry the earliest insertion
// sequence numbers on both the single-shard and sharded engines, so a
// fault at time t on an LP always sorts before runtime deliveries at t on
// that LP, independent of shard count. State read on fault paths is
// likewise quantized to the reading LP's own clock (e.g. a sender decides
// "aggregator down?" from its own Now(), never a cross-LP peek). This is
// the same discipline as the credit-refund events of the gated transport,
// and it is what makes a plan compose bit-identically with the sharded
// parallel engine: a zero-event Plan schedules nothing and is
// byte-identical to no Plan at every shard count.
package faults
