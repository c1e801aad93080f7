package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readResults loads a result file written by -json.
func readResults(path string) (map[string]runResult, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []runResult
	if err := json.Unmarshal(buf, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]runResult, len(rs))
	for _, r := range rs {
		out[r.Workload] = r
	}
	return out, nil
}

// uncertainty is how well one run knows its own median: the samples'
// interquartile range over the median, shrunk by the root of their number.
// On the host the bounds were chosen on it tracks the spread of the median
// from run to run (5 % on ps64_flat by either route).
func uncertainty(v value) float64 {
	if v.Samples < 2 {
		return 0
	}
	return v.Spread / math.Sqrt(float64(v.Samples))
}

// compareFiles applies the end-to-end bounds to two result files, A the
// baseline and B the candidate, and prints one row per metric and workload:
//
//	ok          B is no worse than A by more than the bound
//	worse       B is worse than A by more than the bound
//	unresolved  either median is known no better than the bound (see
//	            uncertainty), so the two runs cannot tell; identical samples are ok
//
// failed_share has no tolerance: any increase is worse. It reports whether
// any row was worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, def := range workloads {
		ra, okA := a[def.name]
		rb, okB := b[def.name]
		if !okA || !okB {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			// change is how much worse B is, as a share of A.
			change := (vb.Value - va.Value) / va.Value
			if d.Better == "higher" {
				change = (va.Value - vb.Value) / va.Value
			}
			verdict := "ok"
			switch {
			case va == vb:
				// The same samples (a file against itself): nothing to resolve.
			case uncertainty(va) > d.Bound || uncertainty(vb) > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+7.2f%% %5.1f%%  %s\n",
				def.name, d.Name, va.Value, vb.Value, 100*change, 100*d.Bound, verdict)
		}
		shareA := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		shareB := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		verdict := "ok"
		if shareB > shareA {
			verdict = "worse"
			anyWorse = true
		}
		fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %8s %6s  %s\n", def.name, "failed_share", shareA, shareB, "", "any", verdict)
	}
	return anyWorse, nil
}
