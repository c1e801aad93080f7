package experiments

import (
	"strings"
	"testing"
)

// TestScaleSweep runs the trimmed scale axis end to end: every cell must
// complete (a wedged 64-machine protocol panics inside cluster.Run), report
// sane throughput, and show the event volume actually growing with the
// cluster — the regime the O(log F) dispatcher exists for.
func TestScaleSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("64-machine sweep in -short mode")
	}
	rows := Scale(Options{Fast: true, Seed: 1})
	if len(rows) == 0 {
		t.Fatal("no scale rows")
	}
	events := map[int]uint64{}
	var saw64 bool
	type cellKey struct {
		path     string
		machines int
	}
	type variantKey struct {
		sched   string
		profile string
	}
	byCell := map[cellKey]map[variantKey]ScaleRow{}
	for _, r := range rows {
		if r.PerMachine <= 0 || r.IterMs <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		if r.Path == PathCluster && r.Sched == "p3" {
			events[r.Machines] = r.Events
		}
		if r.Machines == 64 {
			saw64 = true
		}
		ck := cellKey{r.Path, r.Machines}
		if byCell[ck] == nil {
			byCell[ck] = map[variantKey]ScaleRow{}
		}
		byCell[ck][variantKey{r.Sched, r.Profile}] = r
	}
	if !saw64 {
		t.Fatal("fast sweep lost the 64-machine cell")
	}
	if events[64] <= events[4] {
		t.Fatalf("64-machine run should dwarf 4-machine event volume: %d vs %d", events[64], events[4])
	}
	// The sweep's headline claims, in every cell: the damped transform beats
	// fifo (no inversion at any scale, on either path) and never loses to
	// strict p3; the calibrated damped:tictac composition also beats fifo
	// (stall feedback converges under damping — under strict tictac at 64
	// machines it diverges, which the table reports but nothing pins).
	for ck, per := range byCell {
		if len(per) != len(scaleVariants()) {
			t.Fatalf("%v: %d variants, want %d", ck, len(per), len(scaleVariants()))
		}
		fifo := per[variantKey{"fifo", "-"}]
		p3 := per[variantKey{"p3", "-"}]
		damped := per[variantKey{"damped", "-"}]
		dampedCal := per[variantKey{"damped:tictac", "measured"}]
		if damped.IterMs > fifo.IterMs {
			t.Errorf("%v: damped %.2f ms above fifo %.2f ms — inversion", ck, damped.IterMs, fifo.IterMs)
		}
		if dampedCal.IterMs > fifo.IterMs {
			t.Errorf("%v: calibrated damped:tictac %.2f ms above fifo %.2f ms", ck, dampedCal.IterMs, fifo.IterMs)
		}
		// At the fan-in that inverted strict priority the damped rank must
		// recover more than the whole inversion (at small scale it may
		// trail strict p3 by the sub-1% cost of its bounded horizon).
		if ck.machines == 64 && damped.IterMs > p3.IterMs {
			t.Errorf("%v: damped %.2f ms above strict p3 %.2f ms", ck, damped.IterMs, p3.IterMs)
		}
	}
	table := ScaleTable(rows)
	checkGolden(t, "scale", stripWall(table))
	if !strings.Contains(table, "cluster\t64\tp3") {
		t.Fatalf("table missing the 64-machine p3 cell:\n%s", table)
	}
	if !strings.Contains(table, "damped:tictac\tmeasured") {
		t.Fatalf("table missing the calibrated damped:tictac column:\n%s", table)
	}
}
