package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p3/internal/faults"
)

// writePlan encodes p into a temp file and returns its path.
func writePlan(t *testing.T, p *faults.Plan) string {
	t.Helper()
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFaultsFromFlags pins how -faultplan/-faultseed turn into
// Config.Faults, and that a plan the cluster cannot honor is a usage error
// (the rejection matrix itself is cluster's TestFaultRejections).
func TestFaultsFromFlags(t *testing.T) {
	const racks = "-machines 16 -racksize 4 -oversub 4 -strategy slicing "
	crashPlan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindAggCrash, At: 1e6, Until: 2e6, Tier: faults.TierRack, Index: 1},
	}}
	stragglerPlan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindStraggler, At: 1e6, Until: 2e6, Machine: 3, Factor: 2},
	}}
	outOfRangePlan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.KindStraggler, At: 1e6, Until: 2e6, Machine: 99, Factor: 2},
	}}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"events": [`), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		args     string
		plan     *faults.Plan // written to a temp file and passed as -faultplan
		wantPlan bool
		wantErr  string // fragment of the expected usage error
	}{
		{name: "no flags", args: "-machines 16"},
		{name: "seeded flat", args: "-machines 16 -faultseed 7", wantPlan: true},
		{name: "seeded racks", args: racks + "-rackagg -faultseed 7", wantPlan: true},
		{name: "seeded rack-local avoids crashes", args: racks + "-strategy baseline -rackagg -racklocalps -faultseed 7", wantPlan: true},
		{name: "seeded on a bad cell", args: "-machines 16 -pods 2 -faultseed 7", wantErr: "without a rack topology"},
		{name: "replayed straggler", args: "-machines 16", plan: stragglerPlan, wantPlan: true},
		{name: "replayed crash", args: racks + "-rackagg", plan: crashPlan, wantPlan: true},
		{name: "both flags", args: "-machines 16 -faultseed 7", plan: stragglerPlan, wantErr: "mutually exclusive"},
		{name: "missing file", args: "-machines 16 -faultplan /nonexistent/plan.json", wantErr: "-faultplan"},
		{name: "malformed file", args: "-machines 16 -faultplan " + bad, wantErr: "faults:"},
		{name: "machine out of topology", args: "-machines 16", plan: outOfRangePlan, wantErr: "machine 99"},
		{name: "crash without rackagg", args: racks, plan: crashPlan, wantErr: "needs RackAggregation"},
	} {
		args := strings.Fields(tc.args)
		if tc.plan != nil {
			args = append(args, "-faultplan", writePlan(t, tc.plan))
		}
		cfg, _, err := parseFlags(args)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if (cfg.Faults != nil) != tc.wantPlan {
			t.Errorf("%s: plan = %v, wantPlan %v", tc.name, cfg.Faults, tc.wantPlan)
		}
		if tc.name == "seeded rack-local avoids crashes" && cfg.Faults.HasAggCrash() {
			t.Errorf("%s: seeded plan crashes an aggregator the rack-local cache cannot fail over", tc.name)
		}
	}
}
