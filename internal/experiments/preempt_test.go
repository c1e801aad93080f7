package experiments

import (
	"testing"

	"p3/internal/cluster"
	"p3/internal/netsim"
	"p3/internal/sim"
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// sliceSlackNs is the serialization time of one default 50k-parameter slice
// (200 KB) at the 1.5 Gbps bottleneck — the scheduling granularity that
// NON-preemptive priority scheduling itself tolerates: an urgent chunk may
// always wait behind one in-flight slice, so two schedules that differ by
// less than one slice's wire time are equally consistent with the
// discipline. The preemption upper bound is asserted to this slack: the
// closed training loop (aggregation max over four near-symmetric workers,
// limit-cycle phase) deterministically amplifies sub-slice reorderings into
// hairline shifts of either sign, but a true regression — a starved bulk
// tail, lost progress on a parked transmission, an urgent message failing
// to overtake — costs whole slices and fails this bound loudly (the
// unbounded-deferral bug found while building this showed up at 10-20x the
// slack).
const sliceSlackNs = int64(50_000*4*8*2/3) + 1 // bits / 1.5 Gbps, in ns

// TestPreemptionUpperBound pins the headline property of the resumable
// egress on the exact configurations the scheduler ablation reports: at the
// 1.5 Gbps bottleneck, enabling sub-message preemption
// (netsim.DefaultPreemptQuantum) never makes the p3 or tictac
// configurations slower than message-granularity transmission by more than
// the one-slice scheduling slack, on any zoo model, on either aggregation
// path. The quantum only changes the interleaving of serialization — the
// per-message overhead is charged once either way and segment timing
// telescopes exactly — so the preemptive run is the true-preemption upper
// bound that the paper's slicing approximates.
func TestPreemptionUpperBound(t *testing.T) {
	warm, measure := Options{Fast: true}.iters()
	fired := int64(0)
	for _, m := range zoo.All() {
		for _, name := range []string{"p3", "tictac"} {
			st, err := strategy.SlicingOnly(0).WithSched(name)
			if err != nil {
				t.Fatal(err)
			}
			st.Name = "sliced+" + name

			cb := cluster.Run(cluster.Config{Model: m, Machines: 4, Strategy: st,
				BandwidthGbps: 1.5, WarmupIters: warm, MeasureIters: measure, Seed: 1})
			cp := cluster.Run(cluster.Config{Model: m, Machines: 4, Strategy: st,
				BandwidthGbps: 1.5, PreemptQuantum: netsim.DefaultPreemptQuantum,
				WarmupIters: warm, MeasureIters: measure, Seed: 1})
			fired += cp.Preemptions
			if cp.MeanIterTime > cb.MeanIterTime+sim.Time(sliceSlackNs) {
				t.Errorf("cluster %s/%s: preemptive iter %.3f ms exceeds non-preemptive %.3f ms by more than one slice slack",
					m.Name, name, cp.MeanIterTime.Millis(), cb.MeanIterTime.Millis())
			}

			rb := cluster.Run(cluster.Config{Model: m, Machines: 4, Strategy: st, AllReduce: true,
				BandwidthGbps: 1.5, WarmupIters: warm, MeasureIters: measure, Seed: 1})
			rp := cluster.Run(cluster.Config{Model: m, Machines: 4, Strategy: st, AllReduce: true,
				BandwidthGbps: 1.5, PreemptQuantum: netsim.DefaultPreemptQuantum,
				WarmupIters: warm, MeasureIters: measure, Seed: 1})
			if rp.MeanIterTime > rb.MeanIterTime+sim.Time(sliceSlackNs) {
				t.Errorf("ring %s/%s: preemptive iter %.3f ms exceeds non-preemptive %.3f ms by more than one slice slack",
					m.Name, name, rp.MeanIterTime.Millis(), rb.MeanIterTime.Millis())
			}
		}
	}
	if fired == 0 {
		t.Error("no preemption ever fired across the zoo: the ablation axis is measuring nothing")
	}
}

// TestPreemptionRecoversHeadOfLineBlocking pins the regime the mechanism
// exists for: express traffic behind a BULK in-flight message. With one
// huge low-priority message serializing ahead of a small urgent one,
// message-granularity scheduling strands the urgent chunk for the whole
// bulk transfer; the resumable egress delivers it almost immediately, and
// the bulk message still completes without losing progress.
func TestPreemptionRecoversHeadOfLineBlocking(t *testing.T) {
	type outcome struct {
		urgent, bulk sim.Time
	}
	run := func(quantum int64) outcome {
		var eng sim.Engine
		cfg := netsim.Config{
			BandwidthGbps:      8, // 1 byte/ns
			LocalBandwidthGbps: 8000,
			Egress:             "p3",
			PreemptQuantum:     quantum,
		}
		var out outcome
		nw := netsim.New(&eng, 2, cfg, func(m netsim.Message) {
			if m.Chunk == 1 {
				out.urgent = eng.Now()
			} else {
				out.bulk = eng.Now()
			}
		}, nil)
		nw.Send(netsim.Message{From: 0, To: 1, Bytes: 1 << 20, Priority: 9, Chunk: 0})
		eng.After(1000, func() {
			nw.Send(netsim.Message{From: 0, To: 1, Bytes: 4 << 10, Priority: 0, Chunk: 1})
		})
		eng.Run()
		return out
	}
	base := run(0)
	pre := run(64 << 10)
	// Non-preemptive: the urgent message waits out the full 1 MiB bulk
	// serialization. Preemptive: it starts at the next 64 KiB boundary.
	if pre.urgent >= base.urgent {
		t.Fatalf("urgent delivery not improved: %v vs %v", pre.urgent, base.urgent)
	}
	if base.urgent < sim.Time(1<<20) || pre.urgent > sim.Time(200_000) {
		t.Fatalf("head-of-line relief off-scale: base %v, preemptive %v", base.urgent, pre.urgent)
	}
	// Work conservation: the bulk message pays exactly the urgent message's
	// service time (egress side), nothing more.
	if d := pre.bulk - base.bulk; d <= 0 || d > sim.Time(10_000) {
		t.Fatalf("bulk completion shifted by %v, want one small-message service time", d)
	}
}
