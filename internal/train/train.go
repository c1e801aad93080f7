// Package train runs data-parallel training of the convergence experiments
// (paper Sections 5.6 and Appendix B.2): N workers compute gradients on
// disjoint data shards and exchange them through one of three aggregation
// rules:
//
//   - Dense: synchronous dense aggregation — the rule shared by the MXNet
//     baseline AND P3. The two differ only in *when* bytes move, never in
//     what is computed, so their parameter trajectories are bit-identical;
//     the trainer exposes the chunk-ordered aggregation path so tests can
//     verify exactly that (the paper's "P3 does not affect convergence").
//   - DGC: Deep Gradient Compression (lossy top-k with momentum correction).
//   - ASGD: asynchronous SGD — each worker pushes into the master without
//     waiting for the others, computing on stale parameters.
//
// DGC is the one lossy codec the paper measures (Section 5.6, Figure 11):
// P3's claim is that it needs none.
package train

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"p3/internal/core"
	"p3/internal/data"
	"p3/internal/dgc"
	"p3/internal/model"
	"p3/internal/nn"
	"p3/internal/opt"
)

// Mode selects the gradient-exchange rule.
type Mode int

// Aggregation modes.
const (
	Dense Mode = iota
	DGC
	ASGD
)

func (m Mode) String() string {
	switch m {
	case Dense:
		return "dense"
	case DGC:
		return "dgc"
	case ASGD:
		return "asgd"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config describes one training run.
type Config struct {
	Net         nn.Config
	Workers     int
	Batch       int // per-worker batch size
	Epochs      int
	Schedule    opt.Schedule
	Momentum    float64
	WeightDecay float64

	Mode Mode
	// DGCSparsity is the withheld fraction for Mode == DGC (paper: 0.999).
	DGCSparsity float64

	// ChunkOrder, if non-nil, aggregates gradients chunk-by-chunk in this
	// plan's order (sorted by priority when Priority is true) instead of
	// tensor-by-tensor. Results are bit-identical either way — that is the
	// paper's central convergence claim, and tests assert it.
	ChunkOrder *core.Plan
	Priority   bool

	// ClipNorm rescales gradients whose global L2 norm exceeds it (0
	// disables). Applied to the aggregated gradient in Dense/ASGD and to
	// each worker's local gradient in DGC, as in the DGC paper.
	ClipNorm float64

	Seed int64
}

// clipNorm rescales the tensors in-place so their joint L2 norm is at most
// maxNorm (no-op when maxNorm <= 0).
func clipNorm(grads [][]float64, maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	var ss float64
	for _, g := range grads {
		for _, x := range g {
			ss += x * x
		}
	}
	if ss <= maxNorm*maxNorm {
		return
	}
	scale := maxNorm / math.Sqrt(ss)
	for _, g := range grads {
		for i := range g {
			g[i] *= scale
		}
	}
}

// History records a run's per-epoch metrics.
type History struct {
	Mode        Mode
	ValAcc      []float64 // per epoch
	TrainLoss   []float64 // per epoch (mean over iterations)
	Iterations  int
	FinalValAcc float64
}

// Validate reports the first setting Run cannot train with.
func (c Config) Validate() error {
	switch {
	case c.Workers <= 0 || c.Batch <= 0 || c.Epochs <= 0:
		return fmt.Errorf("train: workers %d, batch %d, epochs %d: each must be at least 1", c.Workers, c.Batch, c.Epochs)
	case c.Net.In <= 0 || c.Net.Width <= 0 || c.Net.Classes <= 0 || c.Net.Blocks < 0:
		return fmt.Errorf("train: network in %d, width %d, classes %d: each must be at least 1; blocks %d: at least 0",
			c.Net.In, c.Net.Width, c.Net.Classes, c.Net.Blocks)
	case c.Mode < Dense || c.Mode > ASGD:
		return fmt.Errorf("train: unknown mode %v", c.Mode)
	case c.Mode == DGC && !(c.DGCSparsity >= 0 && c.DGCSparsity < 1):
		return fmt.Errorf("train: DGC sparsity %g out of (0,1) (0 means 0.999)", c.DGCSparsity)
	}
	return nil
}

// Run trains the configured network and returns its history. The master
// replica's parameters end up in the returned network. It panics with
// Validate's error on a Config that cannot train.
func Run(cfg Config, tr, val *data.Set) (*History, *nn.Network) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Mode == ASGD {
		return runASGD(cfg, tr, val)
	}
	return runSync(cfg, tr, val)
}

// shardsAndBatches prepares per-worker data shards and a deterministic
// batch-index sampler.
func shardsAndBatches(cfg Config, tr *data.Set) ([]*data.Set, func(epoch, iter, worker int) []int) {
	shards := make([]*data.Set, cfg.Workers)
	for w := range shards {
		shards[w] = tr.Shard(w, cfg.Workers)
	}
	sample := func(epoch, iter, worker int) []int {
		seed := uint64(cfg.Seed)*1e9 + uint64(epoch)*1e6 + uint64(iter)*101 + uint64(worker)
		rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
		idx := make([]int, cfg.Batch)
		n := shards[worker].N()
		for i := range idx {
			idx[i] = rng.IntN(n)
		}
		return idx
	}
	return shards, sample
}

// itersPerEpoch is the number of synchronous steps per epoch.
func itersPerEpoch(cfg Config, tr *data.Set) int {
	it := tr.N() / (cfg.Workers * cfg.Batch)
	if it < 1 {
		it = 1
	}
	return it
}

// gradBuffers allocates one flat gradient buffer per parameter tensor.
func gradBuffers(params []*nn.Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = make([]float64, len(p.Data))
	}
	return out
}

// computeGrads runs forward/backward on every worker's batch, one goroutine
// per worker (each writes only its own replica, loss slot and grads[w], and
// aggregation order is fixed afterwards, so results do not depend on the
// interleaving), and copies the resulting per-tensor gradients into grads[w].
// Replicas hold identical parameters in synchronous modes, so this is exactly
// data-parallel SGD.
func computeGrads(cfg Config, replicas []*nn.Network, shards []*data.Set,
	sample func(int, int, int) []int, epoch, iter int, grads [][][]float64) []float64 {

	losses := make([]float64, cfg.Workers)
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			defer wg.Done()
			x, y := shards[w].Batch(sample(epoch, iter, w))
			net := replicas[w]
			logits := net.Forward(x)
			losses[w] = net.LossAndBackward(logits, y)
			for pi, p := range net.Params() {
				copy(grads[w][pi], p.Grad)
			}
		}()
	}
	wg.Wait()
	return losses
}

// aggregate sums per-worker gradients into agg (averaged). If a chunk plan
// is present, aggregation walks chunk-by-chunk in plan (optionally priority)
// order — byte-for-byte the same arithmetic, demonstrating that P3's
// reordering cannot change results.
func aggregate(cfg Config, params []*nn.Param, grads [][][]float64, agg [][]float64) {
	inv := 1.0 / float64(cfg.Workers)
	for pi := range agg {
		for i := range agg[pi] {
			agg[pi][i] = 0
		}
	}
	if cfg.ChunkOrder == nil {
		for pi := range params {
			for w := 0; w < cfg.Workers; w++ {
				g := grads[w][pi]
				a := agg[pi]
				for i := range a {
					a[i] += g[i]
				}
			}
			for i := range agg[pi] {
				agg[pi][i] *= inv
			}
		}
		return
	}
	order := make([]core.Chunk, len(cfg.ChunkOrder.Chunks))
	copy(order, cfg.ChunkOrder.Chunks)
	if cfg.Priority {
		// Stable sort by priority: P3's transmission order.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && order[j].Priority < order[j-1].Priority; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	for _, c := range order {
		a := agg[c.Layer][c.Offset : c.Offset+c.Params]
		for w := 0; w < cfg.Workers; w++ {
			g := grads[w][c.Layer][c.Offset : c.Offset+c.Params]
			for i := range a {
				a[i] += g[i]
			}
		}
		for i := range a {
			a[i] *= inv
		}
	}
}

// PlanFor builds a core slicing plan matching a network's parameter tensors
// so that the trainer can aggregate through P3's chunk order.
func PlanFor(net *nn.Network, maxSlice int64, servers int) *core.Plan {
	params := net.Params()
	m := &model.Model{Name: "trainer", BatchSize: 1, PlateauPerWorker: 1, FwdFraction: 0.5}
	for i, p := range params {
		m.Layers = append(m.Layers, model.Layer{
			Index: i, Name: p.Name, Kind: model.KindFC, Params: int64(len(p.Data)), FwdFLOPs: 1,
		})
	}
	return core.PartitionSlices(m, maxSlice, servers)
}

// runSync is synchronous data-parallel SGD, the one loop behind Dense and
// DGC: every worker computes a gradient on its shard, the gradients are
// summed and averaged, and every replica applies the identical update (the
// parameter-server broadcast). The two rules differ only in how a worker's
// gradient reaches the sum — as is, in chunk-plan order (aggregate), or
// through its dgc.Compressor as a sparse update — in whether ClipNorm sees
// the aggregate (Dense) or each worker's own gradient (DGC, as in its
// paper), and in the server's momentum: DGC carries momentum in the workers
// (momentum correction), so its server applies plain SGD.
func runSync(cfg Config, tr, val *data.Set) (*History, *nn.Network) {
	serverMomentum := cfg.Momentum
	if cfg.Mode == DGC {
		serverMomentum = 0
	}
	shards, sample := shardsAndBatches(cfg, tr)
	replicas := make([]*nn.Network, cfg.Workers)
	opts := make([]*opt.SGD, cfg.Workers)
	params := make([][]*nn.Param, cfg.Workers)
	grads := make([][][]float64, cfg.Workers)
	for w := range replicas {
		replicas[w] = nn.NewResidualMLP(cfg.Net) // same seed -> identical init
		opts[w] = opt.NewSGD(cfg.Schedule.LR(0), serverMomentum, cfg.WeightDecay)
		params[w] = replicas[w].Params()
		grads[w] = gradBuffers(params[w])
	}
	agg := gradBuffers(params[0])
	var comps []*dgc.Compressor
	if cfg.Mode == DGC {
		if cfg.DGCSparsity == 0 {
			cfg.DGCSparsity = 0.999
		}
		sizes := make([]int, len(agg))
		for pi := range agg {
			sizes[pi] = len(agg[pi])
		}
		for range replicas {
			comps = append(comps, dgc.NewCompressor(sizes, cfg.DGCSparsity, cfg.Momentum))
		}
	}

	h := &History{Mode: cfg.Mode}
	iters := itersPerEpoch(cfg, tr)
	inv := 1.0 / float64(cfg.Workers)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.Schedule.LR(epoch)
		var lossSum float64
		for it := 0; it < iters; it++ {
			losses := computeGrads(cfg, replicas, shards, sample, epoch, it, grads)
			for _, l := range losses {
				lossSum += l / float64(cfg.Workers)
			}
			if cfg.Mode == Dense {
				aggregate(cfg, params[0], grads, agg)
				clipNorm(agg, cfg.ClipNorm)
			} else {
				for pi := range agg {
					clear(agg[pi])
				}
				for w := range grads {
					clipNorm(grads[w], cfg.ClipNorm)
					for pi, a := range agg {
						dgc.Apply(a, comps[w].Compress(pi, grads[w][pi]))
					}
				}
				for _, a := range agg {
					for i := range a {
						a[i] *= inv
					}
				}
			}
			for w := range replicas {
				opts[w].LR = lr
				opts[w].StepDense(params[w], agg)
			}
			h.Iterations++
		}
		h.TrainLoss = append(h.TrainLoss, lossSum/float64(iters))
		h.ValAcc = append(h.ValAcc, replicas[0].Accuracy(val.X, val.Y))
	}
	h.FinalValAcc = h.ValAcc[len(h.ValAcc)-1]
	return h, replicas[0]
}

func runASGD(cfg Config, tr, val *data.Set) (*History, *nn.Network) {
	shards, sample := shardsAndBatches(cfg, tr)
	master := nn.NewResidualMLP(cfg.Net)
	masterParams := master.Params()
	sgd := opt.NewSGD(cfg.Schedule.LR(0), cfg.Momentum, cfg.WeightDecay)

	// Each worker computes on a stale snapshot, refreshed after its push.
	replicas := make([]*nn.Network, cfg.Workers)
	for w := range replicas {
		replicas[w] = nn.NewResidualMLP(cfg.Net)
	}
	syncFromMaster := func(w int) {
		for pi, p := range replicas[w].Params() {
			copy(p.Data, masterParams[pi].Data)
		}
	}

	h := &History{Mode: cfg.Mode}
	iters := itersPerEpoch(cfg, tr)
	grad := gradBuffers(masterParams)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		sgd.LR = cfg.Schedule.LR(epoch)
		var lossSum float64
		for it := 0; it < iters; it++ {
			// One "iteration" consumes the same sample budget as a
			// synchronous step: every worker pushes once, in turn, each
			// computing on parameters that are (Workers-1) updates stale by
			// the time its own update lands.
			for w := 0; w < cfg.Workers; w++ {
				x, y := shards[w].Batch(sample(epoch, it, w))
				net := replicas[w]
				logits := net.Forward(x)
				lossSum += net.LossAndBackward(logits, y) / float64(cfg.Workers)
				for pi, p := range net.Params() {
					copy(grad[pi], p.Grad)
				}
				clipNorm(grad, cfg.ClipNorm)
				sgd.StepDense(masterParams, grad)
				syncFromMaster(w)
			}
			h.Iterations++
		}
		h.TrainLoss = append(h.TrainLoss, lossSum/float64(iters))
		h.ValAcc = append(h.ValAcc, master.Accuracy(val.X, val.Y))
	}
	h.FinalValAcc = h.ValAcc[len(h.ValAcc)-1]
	return h, master
}
