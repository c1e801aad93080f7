package main

import (
	"strings"
	"testing"
)

// TestParseFlags pins the command line's checks: every value the run
// cannot use comes back as an error (main exits 2 with it) instead of a
// panic mid-run, and a valid line parses.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args, wantErr string
	}{
		{args: ""},
		{args: "-id 3 -model vgg19 -iters 1 -warmup 0 -sched fifo -servers a:1,b:2"},
		{args: "-iters 0", wantErr: "-iters 0"},
		{args: "-iters -1", wantErr: "-iters -1"},
		{args: "-calibrate -warmup 0", wantErr: "-calibrate"},
		{args: "-model nosuch", wantErr: "nosuch"},
		{args: "-sched nosuch", wantErr: "nosuch"},
		{args: "-stalls /nonexistent/stalls", wantErr: "nonexistent"},
	} {
		cfg, opt, err := parseFlags(strings.Fields(tc.args))
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: unexpected error %v", tc.args, err)
		} else if opt.model == nil || cfg.Profile == nil || len(cfg.Servers) == 0 {
			t.Errorf("%q: model, profile or servers missing: %+v %+v", tc.args, cfg, opt)
		}
	}
}
