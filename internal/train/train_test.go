package train

import (
	"testing"

	"p3/internal/data"
	"p3/internal/nn"
	"p3/internal/opt"
)

func tinyTask(t *testing.T) (tr, val *data.Set, netCfg nn.Config) {
	t.Helper()
	set := data.Generate(data.Config{Samples: 480, Features: 16, Classes: 4, Noise: 1.2, Seed: 5})
	tr, val = set.Split(0.25)
	netCfg = nn.Config{In: 16, Width: 24, Classes: 4, Blocks: 2, Seed: 9}
	return tr, val, netCfg
}

func baseCfg(netCfg nn.Config) Config {
	return Config{
		Net: netCfg, Workers: 4, Batch: 8, Epochs: 6,
		Schedule: opt.ConstSchedule(0.05), Momentum: 0.9, WeightDecay: 1e-4,
		ClipNorm: 2, Seed: 31,
	}
}

func finalParams(net *nn.Network) [][]float64 {
	var out [][]float64
	for _, p := range net.Params() {
		out = append(out, append([]float64(nil), p.Data...))
	}
	return out
}

func paramsEqual(a, b [][]float64) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestP3AggregationBitIdentical is the paper's central convergence claim
// (Sections 4, 5.6): P3 reorders *when* gradients move, never what is
// computed. Aggregating tensor-by-tensor (baseline), chunk-by-chunk in plan
// order (slicing), and chunk-by-chunk in priority order (P3) must produce
// bit-identical parameter trajectories.
func TestP3AggregationBitIdentical(t *testing.T) {
	tr, val, netCfg := tinyTask(t)

	run := func(mutate func(*Config)) [][]float64 {
		cfg := baseCfg(netCfg)
		cfg.Mode = Dense
		mutate(&cfg)
		_, net := Run(cfg, tr, val)
		return finalParams(net)
	}

	probe := nn.NewResidualMLP(netCfg)
	plan := PlanFor(probe, 64, 4) // small slices: many chunks per tensor

	baseline := run(func(c *Config) {})
	sliced := run(func(c *Config) { c.ChunkOrder = plan })
	p3 := run(func(c *Config) { c.ChunkOrder = plan; c.Priority = true })

	if !paramsEqual(baseline, sliced) {
		t.Fatal("chunk-ordered aggregation diverged from tensor-ordered")
	}
	if !paramsEqual(baseline, p3) {
		t.Fatal("priority-ordered aggregation diverged from baseline")
	}
}

func TestDenseReplicasStayIdentical(t *testing.T) {
	tr, val, netCfg := tinyTask(t)
	cfg := baseCfg(netCfg)
	cfg.Mode = Dense
	cfg.Epochs = 2
	// Run twice: determinism of the whole trainer.
	h1, net1 := Run(cfg, tr, val)
	h2, net2 := Run(cfg, tr, val)
	if h1.FinalValAcc != h2.FinalValAcc {
		t.Fatal("trainer not deterministic")
	}
	if !paramsEqual(finalParams(net1), finalParams(net2)) {
		t.Fatal("parameters differ across identical runs")
	}
}

func TestDenseConverges(t *testing.T) {
	tr, val, netCfg := tinyTask(t)
	cfg := baseCfg(netCfg)
	cfg.Mode = Dense
	cfg.Epochs = 12
	h, _ := Run(cfg, tr, val)
	if h.FinalValAcc < 0.75 {
		t.Fatalf("dense training reached only %.3f", h.FinalValAcc)
	}
	if h.Iterations != 12*(tr.N()/(4*8)) {
		t.Fatalf("iteration count %d unexpected", h.Iterations)
	}
	if len(h.ValAcc) != 12 || len(h.TrainLoss) != 12 {
		t.Fatalf("history lengths %d/%d", len(h.ValAcc), len(h.TrainLoss))
	}
}

func TestDGCConverges(t *testing.T) {
	tr, val, netCfg := tinyTask(t)
	cfg := baseCfg(netCfg)
	cfg.Mode = DGC
	cfg.DGCSparsity = 0.99
	cfg.Epochs = 12
	h, _ := Run(cfg, tr, val)
	if h.FinalValAcc < 0.7 {
		t.Fatalf("DGC training reached only %.3f", h.FinalValAcc)
	}
}

func TestASGDConverges(t *testing.T) {
	tr, val, netCfg := tinyTask(t)
	cfg := baseCfg(netCfg)
	cfg.Mode = ASGD
	cfg.Schedule = opt.ConstSchedule(0.02) // staleness tolerates less LR
	cfg.Epochs = 12
	h, _ := Run(cfg, tr, val)
	if h.FinalValAcc < 0.7 {
		t.Fatalf("ASGD training reached only %.3f", h.FinalValAcc)
	}
}

func TestClipNorm(t *testing.T) {
	g := [][]float64{{3, 0}, {0, 4}} // norm 5
	clipNorm(g, 10)                  // under the cap: untouched
	if g[0][0] != 3 || g[1][1] != 4 {
		t.Fatal("clip modified in-bounds gradient")
	}
	clipNorm(g, 2.5) // halve
	if g[0][0] != 1.5 || g[1][1] != 2 {
		t.Fatalf("clip = %v", g)
	}
	clipNorm(g, 0) // disabled
	if g[0][0] != 1.5 {
		t.Fatal("disabled clip modified gradient")
	}
}

func TestPlanForMatchesNetwork(t *testing.T) {
	net := nn.NewResidualMLP(nn.Config{In: 8, Width: 16, Classes: 3, Blocks: 1, Seed: 2})
	plan := PlanFor(net, 50, 4)
	params := net.Params()
	if len(plan.ByLayer) != len(params) {
		t.Fatalf("plan covers %d tensors, network has %d", len(plan.ByLayer), len(params))
	}
	for i, p := range params {
		var covered int64
		for _, id := range plan.LayerChunks(i) {
			covered += plan.Chunks[id].Params
		}
		if covered != int64(len(p.Data)) {
			t.Fatalf("tensor %s: plan covers %d of %d", p.Name, covered, len(p.Data))
		}
	}
}

func TestModeString(t *testing.T) {
	if Dense.String() != "dense" || DGC.String() != "dgc" || ASGD.String() != "asgd" {
		t.Fatal("mode names broken")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode empty")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	tr, val, netCfg := tinyTask(t)
	cfg := baseCfg(netCfg)
	cfg.Workers = 0
	defer func() {
		if recover() == nil {
			t.Fatal("workers=0 accepted")
		}
	}()
	Run(cfg, tr, val)
}
