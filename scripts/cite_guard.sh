#!/usr/bin/env bash
# cite_guard.sh — every test a document names must exist (make cite-guard).
#
# Fails when a backticked Test*, Fuzz* or Benchmark* name in README.md,
# DESIGN.md, EXPERIMENTS.md or docs/*.md, or such a name anywhere in a comment
# line of .github/workflows/ci.yml or the Makefile, has no func in a _test.go
# file of the module or of bench/, and prints each such citation with its file
# and line.
# A name may be package-qualified (`stream.TestWindowEviction`); a trailing *
# or … makes it a prefix (`TestEpsGlobalAuto*`). CHANGES.md and ROADMAP.md are
# not checked: history names tests that were deleted since.
#
#   scripts/cite_guard.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

defined=$(git ls-files -co --exclude-standard -z '*_test.go' | xargs -0 cat |
    grep -oE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' | sed 's/^func //')

# One "file:line name" row per cited name: the documents' backticked spans
# and the comment lines of the CI workflow and the Makefile, each read as
# "file:line:text".
cites=$({
    grep -noE '`[^`]*`' README.md DESIGN.md EXPERIMENTS.md docs/*.md
    grep -nE '^[[:space:]]*#' .github/workflows/ci.yml Makefile
} | awk '{
    split($0, f, ":"); loc = f[1] ":" f[2]
    s = substr($0, length(loc) + 2)
    while (match(s, /([A-Za-z_][A-Za-z0-9_]*\.)?(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*(\*|…)?/)) {
        print loc, substr(s, RSTART, RLENGTH)
        s = substr(s, RSTART + RLENGTH)
    }
}')

awk 'NR == FNR { def[$0] = 1; next }
{
    name = $2; sub(/^.*\./, "", name)
    prefix = name; sub(/(\*|…)$/, "", prefix)
    found = 0
    if (prefix == name) found = (name in def)
    else for (d in def) if (index(d, prefix) == 1) { found = 1; break }
    if (!found) { print "cite-guard: " $1 ": `" $2 "` names no test func"; bad = 1 }
}
END { exit bad }' <(echo "$defined") <(echo "$cites")
