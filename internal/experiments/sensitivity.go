package experiments

import (
	"p3/internal/strategy"
	"p3/internal/zoo"
)

// SensitivityRow is one configuration of the Appendix A.7 customization
// study: varying the server count or the per-machine batch size.
type SensitivityRow struct {
	Knob     string
	Value    int
	Baseline float64 // per-machine samples/sec
	P3       float64
	GainPct  float64
}

// Sensitivity sweeps the two knobs the paper's artifact exposes beyond the
// headline grid: the number of parameter servers (the paper co-locates one
// per machine; fewer servers concentrate ingress and update load) and the
// per-worker batch size (which scales compute time against a fixed
// communication volume). VGG-19 at 15 Gbps, 4 machines.
func Sensitivity(o Options) []SensitivityRow {
	m := zoo.VGG19()
	var rows []SensitivityRow
	var cells []cell
	add := func(knob string, value int, servers, batch int) {
		mm := m
		if batch != m.BatchSize {
			clone := *m
			clone.BatchSize = batch
			mm = &clone
		}
		rows = append(rows, SensitivityRow{Knob: knob, Value: value})
		for _, s := range []strategy.Strategy{strategy.Baseline(), strategy.P3(0)} {
			c := testbed(mm, s, 15)
			c.Servers = servers
			cells = append(cells, c)
		}
	}

	serverCounts := []int{1, 2, 4}
	batches := []int{16, 32, 64}
	if o.Fast {
		serverCounts = []int{1, 4}
		batches = []int{32}
	}
	for _, s := range serverCounts {
		add("servers", s, s, m.BatchSize)
	}
	for _, b := range batches {
		add("batch", b, 4, b)
	}
	outs := runCells(o, cells)
	for i := range rows {
		base, p3 := outs[2*i].PerMachine, outs[2*i+1].PerMachine
		rows[i].Baseline, rows[i].P3, rows[i].GainPct = base, p3, (p3/base-1)*100
	}
	return rows
}

// sensitivityCols print the sweep.
var sensitivityCols = []column[SensitivityRow]{
	{"knob", "%s", func(r SensitivityRow) any { return r.Knob }},
	{"value", "%d", func(r SensitivityRow) any { return r.Value }},
	{"baseline", "%.1f", func(r SensitivityRow) any { return r.Baseline }},
	{"p3", "%.1f", func(r SensitivityRow) any { return r.P3 }},
	{"gain%", "%+.1f", func(r SensitivityRow) any { return r.GainPct }},
}
