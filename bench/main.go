// Command bench is the repository's benchmark: seven closed-loop workloads
// over the simulator and the real TCP path, driven through exported
// functions only, reporting end-to-end numbers (the untraced run) and
// per-layer numbers plus a span file (the traced run). README.md has the
// tables: which workload exists for what, which layer metric should move
// which end-to-end metric where.
//
//	go run ./bench                          every workload, end-to-end metrics
//	go run ./bench -layers                  every workload, per-layer metrics + bench/out/trace.json
//	go run ./bench -workload ring16 -seed 7 -seconds 10 -trace 0
//	go run ./bench -json                    also write the results under bench/out/
//	go run ./bench -compare A.json B.json   apply the bounds to two result files
//
// The last line a run prints for a workload is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

func main() {
	workload := flag.String("workload", "", "run this workload only (default: all seven)")
	seed := flag.Int64("seed", 1, "workload seed: Config.Seed / Options.Seed of the simulated cells and the TCP gradient values")
	seconds := flag.Float64("seconds", 10, "how long each workload's timed passes go on")
	trace := flag.Int("trace", 0, "1 = the traced run: layer probes, spans, per-layer metrics")
	layers := flag.Bool("layers", false, "same as -trace 1")
	smoke := flag.Bool("smoke", false, "test scale: one pass of 8-machine cells, 3 TCP iterations")
	writeJSON := flag.Bool("json", false, "write the results to a new file under bench/out/")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(2, "usage: bench -compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fail(2, "unexpected arguments %q", flag.Args())
	}
	traced := *layers || *trace == 1
	if *trace != 0 && *trace != 1 {
		fail(2, "-trace must be 0 or 1")
	}
	defs := workloads
	if *workload != "" {
		def := workloadByName(*workload)
		if def == nil {
			fail(2, "unknown workload %q", *workload)
		}
		defs = []workloadDef{*def}
	}
	if *smoke {
		*seconds = 0
	}
	results, ok := runAll(os.Stdout, defs, newEnv(*seed, *smoke), *seconds, traced)
	if *writeJSON {
		path, err := writeResults(results)
		if err != nil {
			fail(1, "%v", err)
		}
		fmt.Fprintf(os.Stderr, "results written to %s\n", path)
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// outDir is where the span file and the result files go: bench/out/ from the
// repository root, out/ when run from inside bench/ (as go test does).
func outDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// runAll runs the workloads one after the other and prints, per workload,
// every metric by name with its unit and then the result line. It reports
// whether every run completed.
func runAll(w io.Writer, defs []workloadDef, e *env, seconds float64, traced bool) ([]runResult, bool) {
	var results []runResult
	var spans []span
	ok := true
	for i := range defs {
		res, tr, err := runWorkload(runConfig{def: &defs[i], env: e, seconds: seconds, traced: traced}, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			ok = false
			continue
		}
		results = append(results, res)
		printResult(w, &res, traced)
		if tr != nil {
			tr.summary(w)
			// One file for the whole run: ids stay unique across workloads.
			base := len(spans)
			for _, s := range tr.spans {
				s.ID += base
				if s.Parent != 0 {
					s.Parent += base
				}
				spans = append(spans, s)
			}
		}
		line, err := json.Marshal(struct {
			Correct   bool      `json:"correct"`
			Attempted int       `json:"attempted"`
			Failed    int       `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, contractMetrics(res.Metrics)})
		if err != nil {
			fail(1, "%v", err)
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	if traced {
		path := filepath.Join(outDir(), "trace.json")
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			ok = false
		} else {
			fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(spans), path)
		}
	}
	return results, ok
}

// contractMetrics strips a metric to the value and unit the result line
// carries.
func contractMetrics(m metricSet) metricSet {
	out := make(metricSet, len(m))
	for k, v := range m {
		out[k] = value{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// printResult prints one line per metric: workload, name, value, unit.
func printResult(w io.Writer, r *runResult, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		note := ""
		if v.Samples > 0 {
			note = fmt.Sprintf("  (%d samples, iqr %.1f%%)", v.Samples, 100*v.Spread)
		}
		fmt.Fprintf(w, "%-16s %-42s %s %s%s\n", r.Workload, d.Name, strconv.FormatFloat(v.Value, 'g', 6, 64), d.Unit, note)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-16s %-42s %g ratio  (%d of %d checks failed)\n", r.Workload, "failed_share", share, r.Failed, r.Attempted)
	if tcp := workloadByName(r.Workload); tcp != nil && tcp.tcp {
		fmt.Fprintf(w, "# %s: traffic crossed the loopback interface (127.0.0.1), server and workers in this one process\n", r.Workload)
	}
}

// writeResults stores the results in the first unused bench/out/result-N.json.
func writeResults(results []runResult) (string, error) {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("result file: %w", err)
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return "", fmt.Errorf("result file: %w", err)
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("result-%d.json", n))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", fmt.Errorf("result file: %w", err)
		}
		_, werr := f.Write(append(buf, '\n'))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return "", fmt.Errorf("result file %s: %w", path, werr)
		}
		return path, nil
	}
}
