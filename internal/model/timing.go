package model

import (
	"p3/internal/sim"
)

// Timing maps a model onto the virtual clock: how long each layer's forward
// and backward computation takes on one worker. Absolute scale comes from the
// calibrated compute-bound plateau throughput (Model.PlateauPerWorker, pinned
// per zoo model to the paper's high-bandwidth plateaus — the one place
// absolute numbers are assumed rather than measured); relative per-layer
// shares come from the FLOP estimates, with backward costing twice forward
// (the usual dgrad+wgrad accounting).
type Timing struct {
	// Fwd[i] and Bwd[i] are the compute durations attributed to layer i for
	// one mini-batch on one worker.
	Fwd []sim.Time
	Bwd []sim.Time
	// IterCompute is the total compute time of one iteration (sum of Fwd and
	// Bwd), before any communication delay.
	IterCompute sim.Time
}

// NewTiming derives per-layer compute durations for m.
//
// Total iteration compute = BatchSize / PlateauPerWorker seconds, split
// FwdFraction : (1-FwdFraction) between the passes, then distributed across
// layers proportionally to their forward-FLOP share. Layers with zero FLOPs
// (pure parameter holders such as biases attributed elsewhere) get zero time
// and simply ride along with their neighbours.
func NewTiming(m *Model) *Timing {
	n := len(m.Layers)
	t := &Timing{Fwd: make([]sim.Time, n), Bwd: make([]sim.Time, n)}
	iter := sim.FromSeconds(float64(m.BatchSize) / m.PlateauPerWorker)
	fwdTotal := sim.Time(float64(iter) * m.FwdFraction)
	bwdTotal := iter - fwdTotal
	flops := m.TotalFwdFLOPs()
	if flops == 0 {
		// Degenerate model: spread uniformly.
		for i := range m.Layers {
			t.Fwd[i] = fwdTotal / sim.Time(n)
			t.Bwd[i] = bwdTotal / sim.Time(n)
		}
	} else {
		for i, l := range m.Layers {
			share := float64(l.FwdFLOPs) / float64(flops)
			t.Fwd[i] = sim.Time(float64(fwdTotal) * share)
			t.Bwd[i] = sim.Time(float64(bwdTotal) * share)
		}
	}
	for i := range t.Fwd {
		t.IterCompute += t.Fwd[i] + t.Bwd[i]
	}
	return t
}
