package nn

import (
	"math"
	"math/rand/v2"
	"testing"

	"p3/internal/tensor"
)

func randBatch(rng *rand.Rand, n, d, classes int) (*tensor.Mat, []int) {
	x := tensor.NewMat(n, d)
	x.Randn(rng, 1)
	y := make([]int, n)
	for i := range y {
		y[i] = rng.IntN(classes)
	}
	return x, y
}

// TestGradientCheck validates the whole backward pass against central
// finite differences — the canonical correctness test for a hand-written
// autodiff stack.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	net := NewResidualMLP(Config{In: 5, Width: 6, Classes: 3, Blocks: 2, Seed: 21})
	x, y := randBatch(rng, 4, 5, 3)

	logits := net.Forward(x)
	net.LossAndBackward(logits, y)

	params := net.Params()
	const eps = 1e-6
	checked := 0
	for pi, p := range params {
		// Spot-check a handful of coordinates per tensor.
		stride := len(p.Data)/7 + 1
		for i := 0; i < len(p.Data); i += stride {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			_, lossPlus := SoftmaxCrossEntropy(net.Forward(x), y)
			p.Data[i] = orig - eps
			_, lossMinus := SoftmaxCrossEntropy(net.Forward(x), y)
			p.Data[i] = orig

			numeric := (lossPlus - lossMinus) / (2 * eps)
			analytic := p.Grad[i]
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 1e-4 {
				t.Fatalf("param %d (%s) coord %d: analytic %v vs numeric %v",
					pi, p.Name, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d coordinates checked", checked)
	}
}

func TestForwardShapes(t *testing.T) {
	net := NewResidualMLP(Config{In: 10, Width: 16, Classes: 4, Blocks: 3, Seed: 1})
	x := tensor.NewMat(7, 10)
	logits := net.Forward(x)
	if logits.Rows != 7 || logits.Cols != 4 {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
}

func TestParamsLayout(t *testing.T) {
	net := NewResidualMLP(Config{In: 10, Width: 16, Classes: 4, Blocks: 2, Seed: 1})
	ps := net.Params()
	// stem (2) + 2 blocks x 2 linears x 2 tensors + head (2) = 12.
	if len(ps) != 12 {
		t.Fatalf("%d parameter tensors, want 12", len(ps))
	}
	if ps[0].Name != "stem_weight" || ps[len(ps)-1].Name != "head_bias" {
		t.Fatalf("unexpected order: %s .. %s", ps[0].Name, ps[len(ps)-1].Name)
	}
	want := 10*16 + 16 + 2*(16*16+16+16*16+16) + 16*4 + 4
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	for _, p := range ps {
		if len(p.Data) != len(p.Grad) {
			t.Fatalf("%s: data/grad length mismatch", p.Name)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewResidualMLP(Config{In: 4, Width: 8, Classes: 2, Blocks: 1, Seed: 5})
	b := NewResidualMLP(Config{In: 4, Width: 8, Classes: 2, Blocks: 1, Seed: 5})
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatal("same seed produced different init")
			}
		}
	}
	c := NewResidualMLP(Config{In: 4, Width: 8, Classes: 2, Blocks: 1, Seed: 6})
	if c.Params()[0].Data[0] == pa[0].Data[0] {
		t.Fatal("different seed produced identical init")
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := &tensor.Mat{Rows: 1, Cols: 3, Data: []float64{0, 0, 0}}
	probs, loss := SoftmaxCrossEntropy(logits, []int{1})
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Fatalf("uniform loss = %v, want ln 3", loss)
	}
	for _, p := range probs.Row(0) {
		if math.Abs(p-1.0/3.0) > 1e-12 {
			t.Fatalf("uniform probs = %v", probs.Row(0))
		}
	}
	// Large logits must not overflow.
	logits = &tensor.Mat{Rows: 1, Cols: 2, Data: []float64{1e4, -1e4}}
	_, loss = SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss < 0 {
		t.Fatalf("unstable softmax: loss = %v", loss)
	}
}

func TestZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	net := NewResidualMLP(Config{In: 4, Width: 8, Classes: 2, Blocks: 1, Seed: 5})
	x, y := randBatch(rng, 3, 4, 2)
	net.LossAndBackward(net.Forward(x), y)
	net.ZeroGrads()
	for _, p := range net.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatal("gradients not cleared")
			}
		}
	}
}

func TestAccuracyBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	net := NewResidualMLP(Config{In: 4, Width: 8, Classes: 2, Blocks: 1, Seed: 5})
	x, y := randBatch(rng, 50, 4, 2)
	acc := net.Accuracy(x, y)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v out of [0,1]", acc)
	}
}

func TestLossDecreasesWithTraining(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	net := NewResidualMLP(Config{In: 8, Width: 16, Classes: 3, Blocks: 2, Seed: 9})
	x, y := randBatch(rng, 32, 8, 3)
	var first, last float64
	for step := 0; step < 60; step++ {
		loss := net.LossAndBackward(net.Forward(x), y)
		if step == 0 {
			first = loss
		}
		last = loss
		for _, p := range net.Params() {
			for i := range p.Data {
				p.Data[i] -= 0.05 * p.Grad[i]
			}
		}
	}
	if last > first*0.5 {
		t.Fatalf("loss did not halve: %v -> %v", first, last)
	}
}

func TestLossAndBackwardPanicsOnMismatch(t *testing.T) {
	net := NewResidualMLP(Config{In: 4, Width: 8, Classes: 2, Blocks: 1, Seed: 5})
	logits := tensor.NewMat(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("label/logit mismatch accepted")
		}
	}()
	net.LossAndBackward(logits, []int{0})
}
