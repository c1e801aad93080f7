package main

import (
	"slices"
	"strings"
	"testing"

	"p3/internal/experiments"
)

// TestGenerate renders the report end to end on fig5, the one entry that
// runs no simulation: the header, the section, the deviations. Each
// section's own checks run in the experiments test that computes its output.
func TestGenerate(t *testing.T) {
	i := slices.IndexFunc(experiments.All, func(e experiments.Experiment) bool { return e.ID == "fig5" })
	md := Generate(experiments.Options{Fast: true, Seed: 1}, experiments.All[i:i+1])
	for _, frag := range []string{
		"# EXPERIMENTS — paper vs. measured",
		"> NOTE: generated with -fast",
		"## Figure 5 — parameter distribution",
		"Measured: matches",
		"## Known deviations from the paper",
	} {
		if !strings.Contains(md, frag) {
			t.Errorf("report missing %q:\n%s", frag, md)
		}
	}
	// Every pointer the report gives must lead somewhere: it used to cite a
	// DESIGN.md the repository never had.
	if strings.Contains(md, "DESIGN.md") {
		t.Error("report cites DESIGN.md, which does not exist")
	}
}
