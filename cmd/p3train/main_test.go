package main

import (
	"strings"
	"testing"
)

// TestRunExitCodes drives the command end to end: every setting the trainer
// cannot run with prints one line naming it and exits 2 instead of
// panicking, and a small valid run trains and reports.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args    string
		code    int
		wantErr string
	}{
		{args: "-workers 0", code: 2, wantErr: "workers 0"},
		{args: "-batch 0", code: 2, wantErr: "batch 0"},
		{args: "-mode dgc -sparsity 1", code: 2, wantErr: "sparsity 1"},
		{args: "-samples 0", code: 2, wantErr: "-samples 0"},
		{args: "-width 0", code: 2, wantErr: "width 0"},
		{args: "-epochs 1 -samples 200 -width 8 -blocks 1 -workers 2 -batch 4", code: 0},
	} {
		var stdout, stderr strings.Builder
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			continue
		}
		if tc.code != 0 {
			if msg := stderr.String(); !strings.Contains(msg, tc.wantErr) || strings.Count(msg, "\n") != 1 {
				t.Errorf("%s: stderr %q, want one line naming %q", tc.args, msg, tc.wantErr)
			}
			continue
		}
		if !strings.Contains(stdout.String(), "final val accuracy:") || stderr.Len() != 0 {
			t.Errorf("%s: stdout %q, stderr %q", tc.args, stdout.String(), stderr.String())
		}
	}
}
