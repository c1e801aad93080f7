package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestExpandTargets(t *testing.T) {
	all := ids()
	withBench := append(slices.Clone(all), "bench")
	cases := []struct {
		args     []string
		baseline bool
		want     []string
	}{
		{nil, false, all},
		{[]string{"all"}, false, all},
		{[]string{"all", "bench"}, false, withBench},
		// "all" used to be honoured only as the sole argument.
		{[]string{"headline", "all"}, false, append([]string{"headline"}, slices.DeleteFunc(slices.Clone(all), func(s string) bool { return s == "headline" })...)},
		{[]string{"fig7", "sched", "fig7"}, false, []string{"fig7", "sched"}},
		{[]string{"headline"}, true, []string{"headline", "bench"}},
		{[]string{"bench", "headline"}, true, []string{"bench", "headline"}},
		{nil, true, withBench},
	}
	for _, c := range cases {
		got, err := expandTargets(c.args, c.baseline)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("expandTargets(%v, %v) = %v, %v; want %v", c.args, c.baseline, got, err, c.want)
		}
	}
	if got, err := expandTargets([]string{"headline", "fig99"}, false); err == nil {
		t.Errorf("unknown target accepted: %v", got)
	}
}

// TestUnknownTargetExits2 runs the built command: a misspelt target must
// fail before any experiment runs, with the usage line and exit status 2.
func TestUnknownTargetExits2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the command")
	}
	bin := filepath.Join(t.TempDir(), "p3bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-fast", "fig5", "nosuch").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, `unknown target "nosuch"`) || !strings.Contains(s, "usage: p3bench") || strings.Contains(s, "fig5a") {
		t.Errorf("want the unknown-target error and usage, and no experiment output:\n%s", s)
	}
}
