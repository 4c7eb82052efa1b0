#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload membound --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, Chrome traces) lands in .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/traces"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
# Keep the heap off transparent huge pages, so peak_rss_mib counts the
# pages the program touches whatever the host's THP mode: under "always"
# one touched byte makes a whole 2 MiB page resident.
export GODEBUG=disablethp=1

(cd perfbench && go build -o "$out/perfbench" .) >&2

# Name the trace file after the workload and seed when both are given.
workload=unknown seed=default
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--workload | -workload) workload=${args[i + 1]} ;;
	--seed | -seed) seed=${args[i + 1]} ;;
	esac
done
exec "$out/perfbench" --trace-out "$out/traces/$workload-$seed.json" "$@"
