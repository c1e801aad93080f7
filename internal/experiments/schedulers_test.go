package experiments

import (
	"testing"

	"p3/internal/sched"
)

// TestSchedulerAblation checks the shape of the sweep and its headline
// claims: every registered discipline appears on both aggregation paths
// with the preemption axis off and on, the p3 discipline beats fifo on
// time-to-convergence for every sweep model at its paper bandwidth, and the
// model-aware disciplines (tictac, credit-adaptive) land close to p3 rather
// than collapsing.
func TestSchedulerAblation(t *testing.T) {
	o := Options{Fast: true}
	tb := SchedulerAblation(o)
	rows := tb.Rows
	checkGolden(t, "sched", tb.TSV())
	checkSection(t, "sched", nil, tb.TSV(), "Scheduler ablation — every discipline", "| --- |")
	cases := len(schedCases(o))
	const paths = 2
	const preempts = 2
	if len(rows) != cases*paths*len(SchedDisciplines())*preempts {
		t.Fatalf("%d rows, want %d", len(rows), cases*paths*len(SchedDisciplines())*preempts)
	}
	for _, name := range []string{"tictac", "credit-adaptive"} {
		found := false
		for _, n := range SchedDisciplines() {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("SchedDisciplines %v misses %q", SchedDisciplines(), name)
		}
	}
	type cellKey struct {
		model string
		gbps  float64
		path  string
	}
	keyOf := func(r Row) cellKey { return cellKey{r.Config.Model.Name, r.Config.BandwidthGbps, r.path()} }
	byCell := map[cellKey]map[string]Row{}
	for _, r := range rows {
		key := keyOf(r)
		if byCell[key] == nil {
			byCell[key] = map[string]Row{}
		}
		if r.PreemptQuantum == 0 {
			byCell[key][r.Config.Strategy.Sched] = r
		}
	}
	ttc := func(r Row) float64 { return float(t, tb, r, "ttc_speedup_vs_fifo") }
	if len(byCell) != cases*paths {
		t.Fatalf("%d (model, bandwidth, path) cells, want %d", len(byCell), cases*paths)
	}
	for cell, per := range byCell {
		if len(per) != len(sched.Names()) {
			t.Errorf("%v: %d disciplines, want every registered one (%d)", cell, len(per), len(sched.Names()))
		}
		fifo, p3 := per["fifo"], per["p3"]
		// At the paper-headline bandwidths ordering is the bottleneck and
		// p3 must win outright; the added 1.5 Gbps rows are so saturated
		// that some models pin to the wire for every discipline, so there
		// p3 only has to not lose.
		if cell.gbps > 1.5 {
			if !(p3.IterMs < fifo.IterMs) {
				t.Errorf("%v: p3 iter %.2f ms not below fifo %.2f ms", cell, p3.IterMs, fifo.IterMs)
			}
			if !(ttc(p3) > 1.0) {
				t.Errorf("%v: p3 time-to-convergence speedup %.3f <= 1", cell, ttc(p3))
			}
		} else if p3.IterMs > fifo.IterMs {
			t.Errorf("%v: p3 iter %.2f ms above fifo %.2f ms", cell, p3.IterMs, fifo.IterMs)
		}
		if ttc(fifo) != 1.0 {
			t.Errorf("%v: fifo speedup %.3f, want exactly 1", cell, ttc(fifo))
		}
		// The credit window approximates p3 (it is p3 plus a bounded
		// in-flight budget), so it must land within a few percent; the
		// adaptive variant converges toward the same regime.
		for _, name := range []string{"credit", "credit-adaptive"} {
			if r := per[name]; r.IterMs > p3.IterMs*1.05 {
				t.Errorf("%v: %s iter %.2f ms >5%% above p3 %.2f ms", cell, name, r.IterMs, p3.IterMs)
			}
		}
		// tictac's timing-derived order coincides with layer order for
		// these linear-chain models (the paper's own observation about
		// TicTac vs P3), so it must track p3 closely — a large gap means
		// the slack ranking inverted something structural.
		if tt := per["tictac"]; tt.IterMs > p3.IterMs*1.10 {
			t.Errorf("%v: tictac iter %.2f ms >10%% above p3 %.2f ms", cell, tt.IterMs, p3.IterMs)
		}
		// Every discipline still moves the same bytes to the same places:
		// throughput may differ, but nothing should collapse below fifo by
		// more than a third (a wedged schedule would).
		for name, r := range per {
			if r.PerMachine < fifo.PerMachine*0.66 {
				t.Errorf("%v/%s: throughput %.1f collapsed vs fifo %.1f", cell, name, r.PerMachine, fifo.PerMachine)
			}
		}
	}
	// The preemption axis: fifo never preempts (nothing is ever more
	// urgent) and neither does rr (stride rank is a dispatch position, not
	// urgency), so their preemptive rows must reproduce the non-preemptive
	// numbers exactly — segment timing telescopes.
	for _, r := range rows {
		sched := r.Config.Strategy.Sched
		if (sched != "fifo" && sched != "rr") || r.PreemptQuantum == 0 {
			continue
		}
		base := byCell[keyOf(r)][sched]
		if r.IterMs != base.IterMs || r.PerMachine != base.PerMachine {
			t.Errorf("%v: preemptive %s (%.4f ms) != %s (%.4f ms); preemption must be inert",
				keyOf(r), sched, r.IterMs, sched, base.IterMs)
		}
	}
}
