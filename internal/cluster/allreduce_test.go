package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"p3/internal/strategy"
)

// TestWedgedRunPanics: a machine that never enters one collective leaves
// every rank waiting for that layer with the event queue drained. The run
// must fail loudly (before the shared run summary it returned a negative
// throughput).
func TestWedgedRunPanics(t *testing.T) {
	c := fastCfg(smallModel(), strategy.Strategy{Name: "ar-p3", Granularity: strategy.Slices, Sched: "p3"}, 5)
	c.AllReduce = true
	cs := newClusterSim(c.withDefaults())
	grad := cs.loop.Grad
	cs.loop.Grad = func(w, l int, iter int32) {
		if w == 2 && l == 1 && iter == 2 {
			return
		}
		grad(w, l, iter)
	}
	cs.start()
	cs.exec.Run()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "wedged") {
			t.Fatalf("panic %q, want a wedged-protocol report", msg)
		}
	}()
	r := cs.result()
	t.Fatalf("wedged run returned throughput %v", r.Throughput)
}

// TestRing64InversionRegression asserts at the 64-machine scale that
// inverted the parameter-server path that priority never inverted on the
// ring: each machine's egress feeds exactly one neighbour, so there is no
// fan-in window for urgent chunks to collapse onto, and both strict p3 and
// the damped transform (a single-flow queue dequeues exactly as its base)
// must keep beating fifo. A 64-machine ring costs ~25M events per run, so
// the three independent cells run concurrently, and the test is skipped
// under the race detector (the CI workflow runs it in a dedicated non-race
// step) and in -short mode.
func TestRing64InversionRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("64-machine ring in -short mode")
	}
	if raceEnabled {
		t.Skip("64-machine ring under -race (covered by the dedicated CI step)")
	}
	scheds := []string{"fifo", "p3", "damped"}
	res := make([]Result, len(scheds))
	var wg sync.WaitGroup
	for i, sched := range scheds {
		cfg := scaleCfg(t, 64, sched, true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i] = Run(cfg)
		}()
	}
	wg.Wait()
	fifo, p3, damped := res[0], res[1], res[2]
	if p3.MeanIterTime > fifo.MeanIterTime {
		t.Errorf("ring x64: p3 %.2f ms above fifo %.2f ms", p3.MeanIterTime.Millis(), fifo.MeanIterTime.Millis())
	}
	if damped.MeanIterTime > fifo.MeanIterTime {
		t.Errorf("ring x64: damped %.2f ms above fifo %.2f ms", damped.MeanIterTime.Millis(), fifo.MeanIterTime.Millis())
	}
}
