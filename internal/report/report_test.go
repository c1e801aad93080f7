package report

import (
	"strings"
	"testing"

	"p3/internal/experiments"
)

// TestGenerateFast renders the full report in fast mode and checks every
// section of the paper's evaluation appears with measured content.
func TestGenerateFast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole (trimmed) experiment suite")
	}
	md := Generate(experiments.Options{Fast: true, Seed: 1})

	sections := []string{
		"# EXPERIMENTS — paper vs. measured",
		"Figure 5 — parameter distribution",
		"Figure 7 — bandwidth vs throughput",
		"Figure 8 — baseline network utilization",
		"Figure 9 — P3 network utilization",
		"Figure 10 — scalability",
		"Figure 11 — convergence: P3 vs DGC",
		"Figure 12 — slice size vs throughput",
		"Figure 13 — TensorFlow-style utilization",
		"Figure 14 — Poseidon/WFBP utilization",
		"Figure 15 — ASGD vs P3",
		"Section 5.3 headline speedups",
		"Ablation — contribution of each design decision",
		"Scheduler ablation — every discipline",
		"Extension — rack-scale topology",
		"Extension — fault injection and graceful degradation",
		"Extension — P3 principles on ring all-reduce",
		"Extension — time to accuracy",
		"Extension — compression family",
		"Sensitivity — server count and batch size",
	}
	for _, s := range sections {
		if !strings.Contains(md, s) {
			t.Errorf("report missing section %q", s)
		}
	}
	// Every pointer the report gives must lead somewhere: it used to cite a
	// DESIGN.md the repository never had.
	if strings.Contains(md, "DESIGN.md") {
		t.Error("report cites DESIGN.md, which does not exist")
	}
	// Markdown tables must be present and well formed.
	if !strings.Contains(md, "| --- |") {
		t.Error("no markdown tables rendered")
	}
	// Measured commentary lines.
	for _, frag := range []string{"Measured:", "max P3 gain", "minutes_to_80%"} {
		if !strings.Contains(md, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
	if len(md) < 4000 {
		t.Errorf("report suspiciously short: %d bytes", len(md))
	}
}

func TestTSVToMarkdown(t *testing.T) {
	in := "# comment dropped\na\tb\n1\t2\n3\t4\n"
	got := tsvToMarkdown(in)
	want := "| a | b |\n| --- | --- |\n| 1 | 2 |\n| 3 | 4 |\n"
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}
