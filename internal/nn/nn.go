// Package nn implements the residual feed-forward network used by the
// convergence experiments (Sections 5.6 and Appendix B.2 of the paper use
// ResNet-110 on CIFAR-10; our substitute is a residual MLP on a synthetic
// classification task: the claims under test — dense aggregation is
// order-invariant, DGC and ASGD are not — are properties of the update rule,
// not of the network, so the substitution preserves them).
//
// Parameters are exposed as named flat tensors (Param) in forward order,
// mirroring the KVStore key granularity, so the data-parallel trainer can
// exchange gradients through exactly the same slicing/priority machinery as
// the timing experiments.
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"p3/internal/tensor"
)

// Param is one learnable tensor and its gradient, in flat form.
type Param struct {
	Name string
	Data []float64
	Grad []float64
}

// Layer is a differentiable module.
type Layer interface {
	// Forward consumes a batch (rows = samples) and returns the output
	// batch. The layer may cache activations for Backward.
	Forward(x *tensor.Mat) *tensor.Mat
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// parameter gradients.
	Backward(dout *tensor.Mat) *tensor.Mat
	// Params returns the layer's parameter tensors in forward order.
	Params() []*Param
}

// ---- Linear ----

// Linear is a fully connected layer: y = x @ W + b.
type Linear struct {
	In, Out int
	W       *tensor.Mat // In x Out
	B       []float64
	dW      *tensor.Mat
	dB      []float64
	x       *tensor.Mat // cached input
	name    string
}

// NewLinear creates a Linear layer with He-initialized weights.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W:    tensor.NewMat(in, out),
		B:    make([]float64, out),
		dW:   tensor.NewMat(in, out),
		dB:   make([]float64, out),
		name: name,
	}
	l.W.Randn(rng, math.Sqrt(2.0/float64(in)))
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Mat) *tensor.Mat {
	l.x = x
	y := tensor.NewMat(x.Rows, l.Out)
	tensor.Matmul(y, x, l.W)
	for i := 0; i < y.Rows; i++ {
		tensor.Axpy(1, l.B, y.Row(i))
	}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(dout *tensor.Mat) *tensor.Mat {
	tensor.MatmulTN(l.dW, l.x, dout) // dW = x^T @ dout (overwrites)
	for j := range l.dB {
		l.dB[j] = 0
	}
	for i := 0; i < dout.Rows; i++ {
		tensor.Axpy(1, dout.Row(i), l.dB)
	}
	dx := tensor.NewMat(dout.Rows, l.In)
	tensor.MatmulNT(dx, dout, l.W) // dx = dout @ W^T
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []*Param {
	return []*Param{
		{Name: l.name + "_weight", Data: l.W.Data, Grad: l.dW.Data},
		{Name: l.name + "_bias", Data: l.B, Grad: l.dB},
	}
}

// ---- ReLU ----

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	mask []bool
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Mat) *tensor.Mat {
	y := x.Clone()
	if cap(r.mask) < len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	r.mask = r.mask[:len(y.Data)]
	for i, v := range y.Data {
		if v <= 0 {
			y.Data[i] = 0
			r.mask[i] = false
		} else {
			r.mask[i] = true
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Mat) *tensor.Mat {
	dx := dout.Clone()
	for i := range dx.Data {
		if !r.mask[i] {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// ---- Residual block ----

// Residual is a two-layer residual block: y = x + W2·relu(W1·x), followed by
// a ReLU — the MLP analogue of a basic ResNet block.
type Residual struct {
	l1, l2 *Linear
	r1, r2 *ReLU
	x      *tensor.Mat
}

// NewResidual creates a residual block of the given width. The second
// layer's weights are down-scaled at initialization (Fixup-style) so deep
// unnormalized residual stacks train stably at CIFAR-recipe learning rates.
func NewResidual(name string, width int, rng *rand.Rand) *Residual {
	b := &Residual{
		l1: NewLinear(name+"_fc1", width, width, rng),
		l2: NewLinear(name+"_fc2", width, width, rng),
		r1: &ReLU{},
		r2: &ReLU{},
	}
	tensor.Scale(0.2, b.l2.W.Data)
	return b
}

// Forward implements Layer.
func (b *Residual) Forward(x *tensor.Mat) *tensor.Mat {
	b.x = x
	h := b.r1.Forward(b.l1.Forward(x))
	y := b.l2.Forward(h)
	for i := range y.Data {
		y.Data[i] += x.Data[i]
	}
	return b.r2.Forward(y)
}

// Backward implements Layer.
func (b *Residual) Backward(dout *tensor.Mat) *tensor.Mat {
	d := b.r2.Backward(dout)
	dx := b.l1.Backward(b.r1.Backward(b.l2.Backward(d)))
	for i := range dx.Data {
		dx.Data[i] += d.Data[i] // skip connection
	}
	return dx
}

// Params implements Layer.
func (b *Residual) Params() []*Param {
	return append(b.l1.Params(), b.l2.Params()...)
}

// ---- Network ----

// Network is a sequential stack of layers with a softmax cross-entropy head.
type Network struct {
	Layers []Layer
	probs  *tensor.Mat // cached softmax output
}

// Config describes a residual MLP classifier.
type Config struct {
	In, Width, Classes, Blocks int
	Seed                       int64
}

// NewResidualMLP builds input->Width, Blocks residual blocks, Width->Classes.
// It is the stand-in for ResNet-110 in the convergence studies.
func NewResidualMLP(cfg Config) *Network {
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(cfg.Seed)+0x715BA))
	n := &Network{}
	n.Layers = append(n.Layers, NewLinear("stem", cfg.In, cfg.Width, rng), &ReLU{})
	for i := 0; i < cfg.Blocks; i++ {
		n.Layers = append(n.Layers, NewResidual(fmt.Sprintf("block%d", i+1), cfg.Width, rng))
	}
	n.Layers = append(n.Layers, NewLinear("head", cfg.Width, cfg.Classes, rng))
	return n
}

// Forward runs the network and returns the logits.
func (n *Network) Forward(x *tensor.Mat) *tensor.Mat {
	h := x
	for _, l := range n.Layers {
		h = l.Forward(h)
	}
	return h
}

// LossAndBackward computes mean softmax cross-entropy against labels,
// populates all parameter gradients, and returns the loss.
func (n *Network) LossAndBackward(logits *tensor.Mat, labels []int) float64 {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: %d logits rows vs %d labels", logits.Rows, len(labels)))
	}
	probs, loss := SoftmaxCrossEntropy(logits, labels)
	n.probs = probs
	// d(logits) = (probs - onehot) / batch
	dout := probs.Clone()
	inv := 1.0 / float64(len(labels))
	for i, lab := range labels {
		row := dout.Row(i)
		row[lab] -= 1
		tensor.Scale(inv, row)
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		dout = n.Layers[i].Backward(dout)
	}
	return loss
}

// Params returns all parameter tensors in forward order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total scalar parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Data)
	}
	return total
}

// ZeroGrads clears all gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// Accuracy returns the fraction of samples whose argmax logit matches the
// label.
func (n *Network) Accuracy(x *tensor.Mat, labels []int) float64 {
	logits := n.Forward(x)
	correct := 0
	for i, lab := range labels {
		row := logits.Row(i)
		best := 0
		for j := 1; j < len(row); j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if best == lab {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// SoftmaxCrossEntropy returns row-wise softmax probabilities and the mean
// cross-entropy loss against labels.
func SoftmaxCrossEntropy(logits *tensor.Mat, labels []int) (*tensor.Mat, float64) {
	probs := tensor.NewMat(logits.Rows, logits.Cols)
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		out := probs.Row(i)
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			out[j] = e
			sum += e
		}
		for j := range out {
			out[j] /= sum
		}
		p := out[labels[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	return probs, loss / float64(logits.Rows)
}
