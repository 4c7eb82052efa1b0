#!/usr/bin/env sh
# netloc.sh — non-test Go line delta against a base ref.
#
# Prints the lines added, removed and net across Go files that are
# neither tests (*_test.go) nor test fixtures (testdata/), comparing the
# base ref with the working tree. Only tracked files count: stage a new
# file (git add) before measuring.
#
# Usage:  scripts/netloc.sh [base]     (base defaults to HEAD~1)
set -eu

cd "$(dirname "$0")/.."

BASE="${1:-HEAD~1}"
if ! git rev-parse --verify --quiet "$BASE^{commit}" >/dev/null; then
    echo "netloc.sh: unknown ref $BASE" >&2
    exit 1
fi

git diff --numstat "$BASE" -- '*.go' ':(exclude)*_test.go' ':(exclude)*testdata/*' |
    awk -v base="$BASE" '
        { added += $1; removed += $2 }
        END { printf "non-test Go lines vs %s: +%d -%d (net %+d)\n", base, added, removed, added - removed }'
