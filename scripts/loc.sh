#!/usr/bin/env bash
# Line-count ratchet (ROADMAP aim 2): prints the non-test Go and assembly
# lines outside benchmark/ — the figure CHANGES.md tracks per PR — and
# fails when it is above the ceiling. A PR that deletes code lowers CEILING to its result;
# a PR that has to raise it says why in CHANGES.md.
set -euo pipefail
CEILING=19676
cd "$(dirname "${BASH_SOURCE[0]}")/.."
files() { git ls-files '*.go' '*.s' | grep -v -e '_test\.go$' -e '^benchmark/'; }
lines=$(files | xargs cat | wc -l)
echo "non-test Go + assembly lines outside benchmark/: $lines (ceiling $CEILING)"
if [ "${1:-}" = "-v" ]; then # per-file breakdown, largest first
    files | xargs wc -l | sort -rn | sed 1d
fi
[ "$lines" -le "$CEILING" ]
