#!/usr/bin/env bash
# Non-test Go code lines — no comment-only lines, no blank lines — under
# internal/, cmd/ and examples/: the total and one row per package. This is
# the filter ROADMAP's "Size" paragraph and the size thresholds of
# simplicity issues quote; run it from the repository root.
set -euo pipefail
count() { xargs -r cat | grep -v '^\s*//' | grep -v '^\s*$' | wc -l; }
files() { find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'; }
printf '%6d  total\n' "$(files internal cmd examples | count)"
for dir in $(files internal cmd examples | xargs -n1 dirname | sort -u); do
	printf '%6d  %s\n' "$(files "$dir" -maxdepth 1 | count)" "$dir"
done
