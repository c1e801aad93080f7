package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var fast = Options{Fast: true, Seed: 1}

func checkFigure(t *testing.T, f *Figure) {
	t.Helper()
	if f.ID == "" || f.Title == "" {
		t.Fatalf("figure missing metadata: %+v", f)
	}
	if len(f.Series) == 0 {
		t.Fatalf("%s: no series", f.ID)
	}
	for _, s := range f.Series {
		if len(s.X) != len(s.Y) {
			t.Fatalf("%s/%s: %d x vs %d y", f.ID, s.Name, len(s.X), len(s.Y))
		}
	}
	if tsv := f.TSV(); !strings.Contains(tsv, f.ID) {
		t.Fatalf("%s: TSV missing header", f.ID)
	}
	if plot := f.ASCII(60, 10); !strings.Contains(plot, f.ID) {
		t.Fatalf("%s: ASCII missing header", f.ID)
	}
}

func TestFig5(t *testing.T) {
	figs := Fig5(fast)
	if len(figs) != 3 {
		t.Fatalf("fig5 has %d sub-figures", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
	}
	// VGG sub-figure must show the dominant fc6 spike.
	vgg := figs[1]
	_, hi := minMax(vgg.Series[0].Y)
	if hi < 100 {
		t.Fatalf("vgg19 max tensor %.1fM, want >100M (fc6)", hi)
	}
	// The three paper claims the report's "Measured: matches" line stands
	// for: no ResNet-50 tensor above 2.4M, fc6 71.5% of VGG-19, Sockeye's
	// first tensor its largest.
	if _, hi := minMax(figs[0].Series[0].Y); hi >= 2.4 {
		t.Errorf("resnet50 largest tensor %.2fM, paper says < 2.4M", hi)
	}
	if share := fmt.Sprintf("%.1f", hi/sum(vgg.Series[0].Y)*100); share != "71.5" {
		t.Errorf("vgg19 fc6 share %s%%, paper says 71.5%%", share)
	}
	if y := figs[2].Series[0].Y; y[0] != slices.Max(y) {
		t.Errorf("sockeye's first tensor (%.2fM) is not its largest (%.2fM)", y[0], slices.Max(y))
	}
	checkSection(t, "fig5", figs, "", "Figure 5 — parameter distribution", "Measured: matches")
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return
}

func TestFig7FastShapes(t *testing.T) {
	figs := Fig7(fast)
	if len(figs) != 4 {
		t.Fatalf("fig7 has %d sub-figures", len(figs))
	}
	checkGolden(t, "fig7", figsTSV(figs))
	checkSection(t, "fig7", figs, "", "Figure 7 — bandwidth vs throughput", "| --- |", "Measured:", "max P3 gain")
	// p3report's known deviations 2 and 3 quote these two gains.
	gainAt := func(f *Figure, series int, x float64) string {
		i := slices.Index(f.Series[0].X, x)
		return fmt.Sprintf("%+.0f%%", (f.Series[series].Y[i]/f.Series[0].Y[i]-1)*100)
	}
	if g := gainAt(figs[2], 1, 30); g != "+17%" {
		t.Errorf("vgg19 slicing-only gain at 30 Gbps %s, the report's deviation 2 says ~+17%%", g)
	}
	if g := gainAt(figs[1], 2, 4); g != "+7%" {
		t.Errorf("inception3 P3 gain at 4 Gbps %s, the report's deviation 3 says +7%%", g)
	}
	for _, f := range figs {
		checkFigure(t, f)
		if len(f.Series) != 3 {
			t.Fatalf("%s: %d series, want baseline/slicing/p3", f.ID, len(f.Series))
		}
		// P3 never loses to the baseline at any measured bandwidth.
		base, p3 := f.Series[0], f.Series[2]
		for i := range base.Y {
			if p3.Y[i] < base.Y[i]*0.99 {
				t.Errorf("%s: p3 (%.1f) below baseline (%.1f) at %g Gbps",
					f.ID, p3.Y[i], base.Y[i], base.X[i])
			}
		}
		// Throughput grows with bandwidth.
		for i := 1; i < len(p3.Y); i++ {
			if p3.Y[i] < p3.Y[i-1]*0.99 {
				t.Errorf("%s: p3 throughput fell between %g and %g Gbps", f.ID, p3.X[i-1], p3.X[i])
			}
		}
	}
}

func TestFig8And9(t *testing.T) {
	for i, figs := range [][]*Figure{Fig8(fast), Fig9(fast)} {
		if len(figs) != 3 {
			t.Fatalf("%d sub-figures", len(figs))
		}
		id := []string{"fig8", "fig9"}[i]
		checkGolden(t, id, figsTSV(figs))
		checkSection(t, id, figs, "", []string{"Figure 8 — baseline network utilization", "Figure 9 — P3 network utilization"}[i], "| --- |")
		for _, f := range figs {
			checkFigure(t, f)
			if len(f.Series) != 2 {
				t.Fatalf("%s: want outbound+inbound", f.ID)
			}
			var total float64
			for _, s := range f.Series {
				for _, y := range s.Y {
					if y < 0 {
						t.Fatalf("%s: negative utilization", f.ID)
					}
					total += y
				}
			}
			if total == 0 {
				t.Fatalf("%s: all-zero utilization", f.ID)
			}
		}
	}
}

func TestFig10Scaling(t *testing.T) {
	figs := Fig10(fast)
	if len(figs) != 3 {
		t.Fatalf("fig10 has %d sub-figures", len(figs))
	}
	checkGolden(t, "fig10", figsTSV(figs))
	checkSection(t, "fig10", figs, "", "Figure 10 — scalability", "| --- |", "Measured: max P3 gain")
	for _, f := range figs {
		checkFigure(t, f)
		for _, s := range f.Series {
			// Aggregate throughput grows with cluster size.
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] <= s.Y[i-1] {
					t.Errorf("%s/%s: no scaling from %g to %g machines", f.ID, s.Name, s.X[i-1], s.X[i])
				}
			}
		}
	}
}

func TestFig12SliceSweep(t *testing.T) {
	figs := Fig12(fast)
	if len(figs) != 3 {
		t.Fatalf("fig12 has %d sub-figures", len(figs))
	}
	checkGolden(t, "fig12", figsTSV(figs))
	checkSection(t, "fig12", figs, "", "Figure 12 — slice size vs throughput", "| --- |", "Measured peak:")
	for _, f := range figs {
		checkFigure(t, f)
		s := f.Series[0]
		// Fast mode measures {1k, 50k, 1M}: the paper's 50k sweet spot must
		// beat both extremes (or at least never lose to them).
		if len(s.Y) == 3 {
			if s.Y[1] < s.Y[0] || s.Y[1] < s.Y[2]*0.99 {
				t.Errorf("%s: 50k (%.1f) not the peak of [%.1f %.1f %.1f]",
					f.ID, s.Y[1], s.Y[0], s.Y[1], s.Y[2])
			}
		}
	}
}

func TestFig13And14(t *testing.T) {
	for i, figs := range [][]*Figure{Fig13(fast), Fig14(fast)} {
		if len(figs) != 1 {
			t.Fatalf("%d figures", len(figs))
		}
		checkFigure(t, figs[0])
		id := []string{"fig13", "fig14"}[i]
		checkGolden(t, id, figsTSV(figs))
		checkSection(t, id, figs, "", []string{"Figure 13 — TensorFlow-style utilization", "Figure 14 — Poseidon/WFBP utilization"}[i], "| --- |")
	}
}

func TestHeadline(t *testing.T) {
	rows := Headline(fast)
	if len(rows) != 4 {
		t.Fatalf("%d headline rows", len(rows))
	}
	for _, r := range rows {
		if r.SpeedupPct < 0 {
			t.Errorf("%s: negative P3 speedup %.1f%%", r.Model, r.SpeedupPct)
		}
		if r.P3 < r.Baseline {
			t.Errorf("%s: P3 %.1f below baseline %.1f", r.Model, r.P3, r.Baseline)
		}
	}
	tbl := tsv(headlineCols, rows)
	if !strings.Contains(tbl, "vgg19") {
		t.Fatalf("headline table:\n%s", tbl)
	}
	checkGolden(t, "headline", tbl)
	checkSection(t, "headline", nil, tbl, "Section 5.3 headline speedups", "| --- |")
}

func TestFig11Fast(t *testing.T) {
	figs := Fig11(fast)
	if len(figs) != 1 {
		t.Fatalf("%d figures", len(figs))
	}
	f := figs[0]
	checkFigure(t, f)
	checkGolden(t, "fig11", figsTSV(figs))
	checkSection(t, "fig11", figs, "", "Figure 11 — convergence: P3 vs DGC", "| --- |", "Measured band gap")
	if len(f.Series) != 4 {
		t.Fatalf("fig11 has %d series, want min/max bands for p3 and dgc", len(f.Series))
	}
	for _, s := range f.Series {
		for _, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("accuracy %v out of range", y)
			}
		}
	}
}

func TestFig15Fast(t *testing.T) {
	figs := Fig15(fast)
	f := figs[0]
	checkFigure(t, f)
	checkGolden(t, "fig15", figsTSV(figs))
	checkSection(t, "fig15", figs, "", "Figure 15 — ASGD vs P3", "80% reached at")
	if len(f.Series) != 2 {
		t.Fatalf("fig15 has %d series", len(f.Series))
	}
	// Time axis must be strictly increasing.
	for _, s := range f.Series {
		for i := 1; i < len(s.X); i++ {
			if s.X[i] <= s.X[i-1] {
				t.Fatalf("%s: time axis not increasing", s.Name)
			}
		}
	}
}

func TestASCIIHandlesEmptyFigure(t *testing.T) {
	f := &Figure{ID: "x", Title: "t", Series: []Series{{Name: "s"}}}
	if out := f.ASCII(40, 8); !strings.Contains(out, "no data") {
		t.Fatalf("empty figure rendering: %q", out)
	}
}

// TestAll checks the experiment list's structure: unique IDs, exactly one
// of Figures and Table, a Summary only beside Figures, a golden for every
// ID but fig5 (its figures run no simulation) and no golden without an ID,
// and no report paragraph pointing at a DESIGN.md the repository never had.
func TestAll(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if e.ID == "" || e.Title == "" || seen[e.ID] {
			t.Errorf("entry %q: empty or repeated ID, or no title", e.ID)
		}
		seen[e.ID] = true
		if (e.Figures == nil) == (e.Table == nil) {
			t.Errorf("%s: want exactly one of Figures and Table", e.ID)
		}
		if e.Summary != nil && e.Figures == nil {
			t.Errorf("%s: a Summary without Figures", e.ID)
		}
		if _, err := os.Stat(filepath.Join("testdata", e.ID+".golden")); (err == nil) == (e.ID == "fig5") {
			t.Errorf("%s: golden present %v, want it for every ID but fig5", e.ID, err == nil)
		}
		if strings.Contains(e.Title+e.About, "DESIGN.md") {
			t.Errorf("%s: cites DESIGN.md, which does not exist", e.ID)
		}
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		if id := strings.TrimSuffix(filepath.Base(g), ".golden"); !seen[id] {
			t.Errorf("%s: no entry of All has ID %q; delete the golden with its experiment", g, id)
		}
	}
}

func TestTSVToMarkdown(t *testing.T) {
	in := "# comment dropped\na\tb\n1\t2\n3\t4\n"
	got := markdown(in)
	want := "| a | b |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |\n"
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}
