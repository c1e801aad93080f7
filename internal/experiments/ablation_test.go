package experiments

import (
	"strings"
	"testing"
)

func TestAblation(t *testing.T) {
	rows := Ablation(fast)
	if len(rows) != 3 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	for _, r := range rows {
		// Full P3 dominates every single-mechanism variant.
		for name, v := range map[string]float64{
			"baseline":   r.Baseline,
			"+immediate": r.ImmediateOnly,
			"+slicing":   r.SlicingOnly,
			"+priority":  r.PriorityOnly,
		} {
			if r.FullP3 < v*0.99 {
				t.Errorf("%s: full P3 (%.1f) below %s (%.1f)", r.Model, r.FullP3, name, v)
			}
		}
		// Each partial mechanism should at least not hurt the baseline.
		if r.SlicingOnly < r.Baseline*0.98 {
			t.Errorf("%s: slicing (%.1f) hurt the baseline (%.1f)", r.Model, r.SlicingOnly, r.Baseline)
		}
	}
	tbl := tsv(ablationCols, rows)
	if !strings.Contains(tbl, "full_p3") {
		t.Fatalf("table:\n%s", tbl)
	}
	checkGolden(t, "ablation", tbl)
	checkSection(t, "ablation", nil, tbl, "Ablation — contribution of each design decision", "| --- |")
}

func TestExtAllreduce(t *testing.T) {
	figs := ExtAllreduce(fast)
	if len(figs) != 3 {
		t.Fatalf("%d allreduce figures", len(figs))
	}
	checkGolden(t, "allreduce", figsTSV(figs))
	checkSection(t, "allreduce", figs, "", "Extension — P3 principles on ring all-reduce", "| --- |", "Measured: sliced+priority")
	for _, f := range figs {
		checkFigure(t, f)
		if len(f.Series) != 3 {
			t.Fatalf("%s: %d series", f.ID, len(f.Series))
		}
		layer, p3 := f.Series[0], f.Series[2]
		// The paper's claim transplanted: P3-style all-reduce never loses
		// to layer-granularity all-reduce.
		for i := range layer.Y {
			if p3.Y[i] < layer.Y[i]*0.99 {
				t.Errorf("%s: ar-p3 (%.1f) below ar-layer (%.1f) at %g Gbps",
					f.ID, p3.Y[i], layer.Y[i], layer.X[i])
			}
		}
	}
}

func TestTimeToAccuracy(t *testing.T) {
	rows := TimeToAccuracy(fast)
	if len(rows) != 3 {
		t.Fatalf("%d tta rows", len(rows))
	}
	byName := map[string]TimeToAccuracyRow{}
	for _, r := range rows {
		byName[r.Mechanism] = r
		if r.IterMs <= 0 {
			t.Errorf("%s: iteration time %v", r.Mechanism, r.IterMs)
		}
	}
	// P3 iterates faster than the baseline; baseline and P3 share identical
	// final accuracy (dense aggregation is the same arithmetic).
	if byName["p3"].IterMs >= byName["baseline"].IterMs {
		t.Errorf("p3 iteration (%.1f ms) not faster than baseline (%.1f ms)",
			byName["p3"].IterMs, byName["baseline"].IterMs)
	}
	if byName["p3"].FinalAcc != byName["baseline"].FinalAcc {
		t.Error("p3 and baseline final accuracies differ — dense aggregation must be shared")
	}
	// DGC's iterations are the fastest (it barely moves bytes).
	if byName["dgc"].IterMs >= byName["baseline"].IterMs {
		t.Errorf("dgc iteration (%.1f ms) not below baseline (%.1f ms)",
			byName["dgc"].IterMs, byName["baseline"].IterMs)
	}
	tbl := tsv(ttaCols, rows)
	if !strings.Contains(tbl, "minutes_to_80%") {
		t.Fatalf("table:\n%s", tbl)
	}
	checkGolden(t, "tta", tbl)
	checkSection(t, "tta", nil, tbl, "Extension — time to accuracy", "| --- |", "minutes_to_80%")
}
