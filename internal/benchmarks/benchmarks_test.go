package benchmarks

import (
	"strings"
	"testing"
)

func art(calib float64, rs ...Result) *Artifact {
	return &Artifact{GoVersion: "gotest", GOMAXPROCS: 1, CalibNs: calib, Dispatch: rs}
}

// TestCheckGate pins the regression-gate semantics: steady-state allocations
// always fail, ns/op may drift up to the tolerance after calibration
// scaling, and a benchmark cannot silently vanish from the suite.
func TestCheckGate(t *testing.T) {
	base := art(2.0, Result{Name: "queue/p3/64flows", NsPerOp: 400})

	if v := Check(art(2.0, Result{Name: "queue/p3/64flows", NsPerOp: 480}), base, 0.25); len(v) != 0 {
		t.Fatalf("20%% drift within a 25%% tolerance must pass, got %v", v)
	}
	if v := Check(art(2.0, Result{Name: "queue/p3/64flows", NsPerOp: 520}), base, 0.25); len(v) != 1 {
		t.Fatalf("30%% regression must fail, got %v", v)
	}
	// A machine running everything 2x slower (calibration 4.0 vs 2.0) gets
	// its thresholds scaled: 750 ns/op is within 400 * 2 * 1.25 = 1000.
	if v := Check(art(4.0, Result{Name: "queue/p3/64flows", NsPerOp: 750}), base, 0.25); len(v) != 0 {
		t.Fatalf("calibration scaling missing: %v", v)
	}
	// Allocations fail regardless of speed.
	v := Check(art(2.0, Result{Name: "queue/p3/64flows", NsPerOp: 100, AllocsPerOp: 1}), base, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("steady-state alloc must fail, got %v", v)
	}
	// A benchmark missing from the current run is a violation, and a new
	// benchmark without a baseline entry is not.
	v = Check(art(2.0, Result{Name: "queue/brand-new", NsPerOp: 1}), base, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "vanished") {
		t.Fatalf("vanished benchmark must fail, got %v", v)
	}
}

// TestDispatchSuiteNames guards the contract between the suite and the
// checked-in baseline: the names the gate compares against must stay
// stable.
func TestDispatchSuiteNames(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range Dispatch() {
		if n.Name == "" || n.Bench == nil {
			t.Fatalf("malformed suite entry %+v", n)
		}
		if seen[n.Name] {
			t.Fatalf("duplicate benchmark name %q", n.Name)
		}
		seen[n.Name] = true
	}
	for _, want := range []string{"queue/p3/64flows", "sendqueue/p3/64dests", "engine/event", "netsim/host-msg", "netsim/tor-msg", "cluster/procpool"} {
		if !seen[want] {
			t.Fatalf("suite lost %q, which the checked-in baseline gates on", want)
		}
	}
}
