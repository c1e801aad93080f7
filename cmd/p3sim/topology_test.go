package main

import (
	"strings"
	"testing"

	"p3/internal/netsim"
)

// TestTopologyFromFlags pins the flag-to-Config mapping of the topology
// group: every flag lands in its field unchanged, an unset flag leaves the
// field's zero value, and what Config.Validate rejects comes back as the
// command's error (the rejection matrix itself is cluster's
// Test*Rejections).
func TestTopologyFromFlags(t *testing.T) {
	for _, tc := range []struct {
		args      string
		want      netsim.Topology
		agg, hier bool
		local     bool
		rate      float64
		wantErr   string
	}{
		{args: "-machines 4"},
		{args: "-machines 8 -racksize 4", want: netsim.Topology{RackSize: 4}},
		{args: "-machines 8 -racksize 4 -oversub 0.5", want: netsim.Topology{RackSize: 4, CoreOversub: 0.5}},
		{args: "-machines 8 -racksize 4 -oversub 4 -coresched p3 -rackagg",
			want: netsim.Topology{RackSize: 4, CoreOversub: 4, CoreSched: "p3"}, agg: true},
		{args: "-machines 16 -racksize 4 -oversub 4 -pods 2 -spineoversub 4 -spinesched p3 -rackagg -hieragg",
			want: netsim.Topology{RackSize: 4, CoreOversub: 4, Pods: 2, SpineOversub: 4, SpineSched: "p3"}, agg: true, hier: true},
		{args: "-machines 8 -racksize 4 -oversub 4 -strategy baseline -rackagg -racklocalps -aggrate 8",
			want: netsim.Topology{RackSize: 4, CoreOversub: 4}, agg: true, local: true, rate: 8},
		{args: "-machines 4 -oversub 4", wantErr: "without a rack topology"},
		{args: "-machines 4 -pods 2", wantErr: "without a rack topology"},
		{args: "-machines 8 -racksize 4 -rackagg -strategy asgd", wantErr: "ASGD"},
		{args: "-machines 0", wantErr: "-machines"},
		{args: "-shards 0", wantErr: "-shards 0"},
		{args: "-shards -3", wantErr: "-shards -3"},
		{args: "-iters 0", wantErr: "-iters 0"},
		{args: "-warmup 0", wantErr: "-warmup 0"},
		{args: "-iters -3", wantErr: "negative run length"},
		{args: "-warmup -1", wantErr: "negative run length"},
		{args: "-preempt -1", wantErr: "negative PreemptQuantum"},
		{args: "-strategy nosuch", wantErr: "nosuch"},
		{args: "-model nosuch", wantErr: "nosuch"},
	} {
		cfg, _, err := parseFlags(strings.Fields(tc.args))
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", tc.args, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.args, err)
			continue
		}
		if cfg.Topology != tc.want || cfg.RackAggregation != tc.agg || cfg.HierAggregation != tc.hier ||
			cfg.RackLocalPS != tc.local || cfg.AggReduceGBps != tc.rate {
			t.Errorf("%s: topology %+v agg %v hier %v local %v rate %g does not reflect the flags",
				tc.args, cfg.Topology, cfg.RackAggregation, cfg.HierAggregation, cfg.RackLocalPS, cfg.AggReduceGBps)
		}
	}
}
