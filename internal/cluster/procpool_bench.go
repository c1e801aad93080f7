package cluster

import (
	"p3/internal/core"
	"p3/internal/sched"
	"p3/internal/sim"
)

// BenchProcPool is the cluster/procpool row of internal/benchmarks: it
// drives n items through one two-thread p3-ordered processing pool on a
// bare engine, a window of 64 in flight over 16 chunks, so same-chunk
// arrivals defer on the per-key serialization and re-queue. Every finished
// item feeds the next one, as a delivery would. It returns the number of
// items processed.
func BenchProcPool(n int) int {
	const chunks, window = 16, 64
	var eng sim.Engine
	cs := &clusterSim{plan: &core.Plan{Chunks: make([]core.Chunk, chunks)}}
	for c := range cs.plan.Chunks {
		cs.plan.Chunks[c] = core.Chunk{ID: c, Params: int64(1000 + 100*c)}
	}
	view := func(it procItem) sched.Item {
		return sched.Item{Priority: it.priority, Bytes: cs.plan.Chunks[it.chunk].Bytes(), Dest: it.src}
	}
	p := newProcPool(cs, 2, 100, 1, sched.NewQueue(sched.MustByName("p3"), view), &eng)
	added, done := 0, 0
	add := func() {
		added++
		p.add(cs, procItem{chunk: int32(added * 7 % chunks), src: int32(added % 4), priority: int32(added % 8)})
	}
	p.done = func(procItem) {
		done++
		if added < n {
			add()
		}
	}
	for added < window && added < n {
		add()
	}
	eng.Run()
	return done
}
