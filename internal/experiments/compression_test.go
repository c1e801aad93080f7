package experiments

import (
	"strings"
	"testing"
)

func TestExtCompression(t *testing.T) {
	rows := ExtCompression(fast)
	if len(rows) != 5 {
		t.Fatalf("%d compression rows", len(rows))
	}
	byName := map[string]CompressionRow{}
	for _, r := range rows {
		byName[r.Mechanism] = r
		if r.FinalAcc <= 0.2 {
			t.Errorf("%s: final accuracy %.3f — diverged", r.Mechanism, r.FinalAcc)
		}
		if r.CompressionRatio < 1 {
			t.Errorf("%s: compression ratio %.2f < 1", r.Mechanism, r.CompressionRatio)
		}
	}
	dense := byName["dense (baseline == p3)"]
	if dense.CompressionRatio != 1 {
		t.Errorf("dense ratio %v", dense.CompressionRatio)
	}
	// 1-bit approaches 32x, terngrad ~16x, dgc hundreds.
	if byName["1bit-sgd"].CompressionRatio < 25 {
		t.Errorf("1bit ratio %v", byName["1bit-sgd"].CompressionRatio)
	}
	if byName["terngrad"].CompressionRatio < 14 {
		t.Errorf("terngrad ratio %v", byName["terngrad"].CompressionRatio)
	}
	if byName["dgc@99.9%"].CompressionRatio < 100 {
		t.Errorf("dgc ratio %v", byName["dgc@99.9%"].CompressionRatio)
	}
	tbl := tsv(compressionCols, rows)
	if !strings.Contains(tbl, "compression_x") {
		t.Fatal("table broken")
	}
	checkGolden(t, "compression", tbl)
	checkSection(t, "compression", nil, tbl, "Extension — compression family", "| --- |")
}
