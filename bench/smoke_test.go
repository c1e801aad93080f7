package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the shape of /BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json and the benchmark's own tables
// together: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %q, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the benchmark has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the benchmark has %d", len(bf.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	setup := false
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v, the benchmark has %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("end-to-end metric %q: name or unit outside the contract's limits, or used twice", m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		seen[m.Name] = true
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, the benchmark has %d (at most 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v, the benchmark has %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer metric %q: name or unit outside the contract's limits, or used twice", m.Name)
		}
		if d.Layer == "" || d.Moves == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %q: no layer, prediction or direction", m.Name)
		}
		seen[m.Name] = true
	}
}

// smokeWorkloads is every workload — or, under the race detector, where a
// simulated cell runs an order of magnitude slower, one simulator workload
// and one TCP workload: enough to put every goroutine the benchmark starts
// in front of the detector.
func smokeWorkloads() []workloadDef {
	if !raceEnabled {
		return workloads
	}
	return []workloadDef{*workloadByName("ps64_flat"), *workloadByName("tcp_small")}
}

// checkPrinted asserts that out has, for every workload, exactly one line
// per metric with the metric's unit, and a well-formed result line.
func checkPrinted(t *testing.T, out string, defs []workloadDef, metrics []metricDef) {
	t.Helper()
	lines := strings.Split(out, "\n")
	for _, w := range defs {
		for _, d := range append([]metricDef{{Name: "failed_share", Unit: "ratio"}}, metrics...) {
			n := 0
			for _, l := range lines {
				f := strings.Fields(l)
				if len(f) >= 4 && f[0] == w.name && f[1] == d.Name {
					n++
					if f[3] != d.Unit {
						t.Errorf("%s %s printed with unit %q, want %q", w.name, d.Name, f[3], d.Unit)
					}
				}
			}
			if n != 1 {
				t.Errorf("%s %s printed %d times, want once", w.name, d.Name, n)
			}
		}
	}
	results := 0
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		results++
		var r struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(l))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil || r.Correct == nil || r.Attempted == nil || r.Failed == nil {
			t.Fatalf("result line %q: %v", l, err)
		}
		if !*r.Correct || *r.Failed != 0 || *r.Attempted < 1 {
			t.Errorf("result line reports correct=%v failed=%d attempted=%d", *r.Correct, *r.Failed, *r.Attempted)
		}
		if len(r.Metrics) != len(metrics) {
			t.Errorf("result line carries %d metrics, want %d", len(r.Metrics), len(metrics))
		}
		for _, d := range metrics {
			if m, ok := r.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("result line: metric %s missing or with unit %q", d.Name, m.Unit)
			}
		}
	}
	if results != len(defs) {
		t.Errorf("%d result lines, want %d", results, len(defs))
	}
}

// TestSmokeEndToEnd runs every workload once at test scale, untraced, and
// compares the result file with itself.
func TestSmokeEndToEnd(t *testing.T) {
	defs := smokeWorkloads()
	var out bytes.Buffer
	results, ok := runAll(&out, defs, newEnv(1, true), 0, false)
	if !ok {
		t.Fatalf("run failed:\n%s", out.String())
	}
	checkPrinted(t, out.String(), defs, endToEnd)
	for _, r := range results {
		for _, d := range endToEnd {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s %s = %g, an end-to-end metric must never be 0", r.Workload, d.Name, r.Metrics[d.Name].Value)
			}
		}
	}

	path, err := writeResults(results)
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(path)
	var table bytes.Buffer
	worse, err := compareFiles(&table, path, path)
	if err != nil || worse {
		t.Fatalf("comparing a result file with itself: worse=%v err=%v\n%s", worse, err, table.String())
	}
	rows := 0
	for _, l := range strings.Split(table.String(), "\n")[1:] {
		if l == "" {
			continue
		}
		rows++
		// One pass at test scale has no spread, so no row may be unresolved.
		if !strings.HasSuffix(l, " ok") {
			t.Errorf("self-comparison row is not ok: %s", l)
		}
	}
	if want := len(defs) * (len(endToEnd) + 1); rows != want {
		t.Errorf("%d comparison rows, want %d", rows, want)
	}
}

// TestSmokeTraced runs the layer probes and every workload once at test
// scale with spans on.
func TestSmokeTraced(t *testing.T) {
	defs := smokeWorkloads()
	var out bytes.Buffer
	if _, ok := runAll(&out, defs, newEnv(1, true), 0, true); !ok {
		t.Fatalf("run failed:\n%s", out.String())
	}
	checkPrinted(t, out.String(), defs, perLayer)
	buf, err := os.ReadFile("out/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(buf, &spans); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	roots := 0
	for i, s := range spans {
		if s.ID != i+1 || s.Parent >= s.ID || s.EndNs < s.StartNs || s.Name == "" || s.Workload == "" {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent == 0 {
			roots++
		}
	}
	if roots != len(defs) {
		t.Errorf("%d root spans, want one per workload (%d)", roots, len(defs))
	}
}
