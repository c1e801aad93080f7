package experiments

import (
	"strings"
	"testing"
)

func TestSensitivity(t *testing.T) {
	rows := Sensitivity(fast)
	if len(rows) != 3 { // fast: 2 server counts + 1 batch
		t.Fatalf("%d sensitivity rows", len(rows))
	}
	var oneServer, fourServers SensitivityRow
	for _, r := range rows {
		if r.Baseline <= 0 || r.P3 <= 0 {
			t.Fatalf("%s=%d: non-positive throughput", r.Knob, r.Value)
		}
		if r.P3 < r.Baseline*0.97 {
			t.Errorf("%s=%d: P3 (%.1f) clearly below baseline (%.1f)", r.Knob, r.Value, r.P3, r.Baseline)
		}
		if r.Knob == "servers" && r.Value == 1 {
			oneServer = r
		}
		if r.Knob == "servers" && r.Value == 4 {
			fourServers = r
		}
	}
	// Concentrating all traffic on one server must not beat spreading it
	// over four (the load-balancing rationale of KVStore and round-robin
	// slicing alike).
	if oneServer.P3 > fourServers.P3*1.001 {
		t.Errorf("1 server (%.1f) beat 4 servers (%.1f) under P3", oneServer.P3, fourServers.P3)
	}
	tbl := tsv(sensitivityCols, rows)
	if !strings.Contains(tbl, "gain%") {
		t.Fatal("table broken")
	}
	checkGolden(t, "sensitivity", tbl)
	checkSection(t, "sensitivity", nil, tbl, "Sensitivity — server count and batch size", "| --- |")
}
