package main

import (
	"strings"
	"testing"
)

// TestParseFlags pins the command line's checks: every value the server
// cannot use comes back as an error (main exits 2 with it) instead of a
// panic in pstcp.NewServer or a server that can never complete an update,
// and a valid line parses.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args, wantErr string
		profile       bool
		warn          bool
	}{
		{args: ""},
		{args: "-workers 1"},
		{args: "-workers 256 -sched fifo"},
		{args: "-model resnet110 -sched tictac", profile: true},
		{args: "-sched tictac", warn: true},
		{args: "-workers 0", wantErr: "-workers 0"},
		{args: "-workers -3", wantErr: "-workers -3"},
		{args: "-workers 257", wantErr: "-workers 257"},
		{args: "-sched nosuch", wantErr: "nosuch"},
		{args: "-model nosuch", wantErr: "nosuch"},
		{args: "-stalls x.stalls", wantErr: "requires -model"},
		{args: "-model resnet110 -stalls /nonexistent/stalls", wantErr: "nonexistent"},
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
		} else if (cfg.Profile != nil) != tc.profile || (opt.warn != "") != tc.warn || cfg.Updater == nil {
			t.Errorf("%q: profile %v warning %q updater %v, want profile %v warning %v", tc.args, cfg.Profile != nil, opt.warn, cfg.Updater != nil, tc.profile, tc.warn)
		}
	}
}
