package train

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"p3/internal/nn"
)

// TestTrajectoryGoldens pins every synchronous exchange rule bit for bit:
// math.Float64bits of each epoch's TrainLoss and ValAcc (a function of the
// whole parameter trajectory) and an FNV-1a hash over the final parameters'
// bits. testdata/trajectories.golden was generated before runDense and
// runDGC became one loop (and with sequential gradient computation), so it
// is what holds that loop to the rules it replaced. A mismatch writes
// trajectories.golden.got.
func TestTrajectoryGoldens(t *testing.T) {
	tr, val, netCfg := tinyTask(t)
	probe := nn.NewResidualMLP(netCfg)
	plan := PlanFor(probe, 64, 4)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"dense", func(c *Config) {}},
		{"dense-p3order", func(c *Config) { c.ChunkOrder = plan; c.Priority = true }},
		{"dense-noclip", func(c *Config) { c.ClipNorm = 0 }},
		{"dgc", func(c *Config) { c.Mode = DGC; c.DGCSparsity = 0.99 }},
		{"dgc-default-sparsity", func(c *Config) { c.Mode = DGC }},
	}
	var b strings.Builder
	for _, c := range cases {
		cfg := baseCfg(netCfg)
		cfg.Epochs = 4
		c.mutate(&cfg)
		h, net := Run(cfg, tr, val)
		for e := range h.ValAcc {
			fmt.Fprintf(&b, "%s\tepoch %d\tloss %016x\tacc %016x\n", c.name, e,
				math.Float64bits(h.TrainLoss[e]), math.Float64bits(h.ValAcc[e]))
		}
		hash := uint64(14695981039346656037)
		for _, p := range net.Params() {
			for _, x := range p.Data {
				hash = (hash ^ math.Float64bits(x)) * 1099511628211
			}
		}
		fmt.Fprintf(&b, "%s\titers %d\tparams %016x\n", c.name, h.Iterations, hash)
	}
	got := b.String()
	const path = "testdata/trajectories.golden"
	want, err := os.ReadFile(path)
	if err == nil && string(want) == got {
		return
	}
	if werr := os.WriteFile(path+".got", []byte(got), 0o644); werr != nil {
		t.Errorf("writing got-text: %v", werr)
	}
	if err != nil {
		t.Fatalf("%v (got-text written to %s.got)", err, path)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(gotLines); i++ {
		if i >= len(wantLines) || wantLines[i] != gotLines[i] {
			t.Fatalf("trajectory differs at line %d (got-text written to %s.got):\n got %s", i+1, path, gotLines[i])
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(wantLines), len(gotLines))
}
