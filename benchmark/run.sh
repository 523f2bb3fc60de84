#!/usr/bin/env bash
# smcbench in one command: build it from source, run it.
#
#   benchmark/run.sh                      every workload untraced, then traced;
#                                         prints the metric tables and writes
#                                         benchmark/out/results.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the last line of output is
#                                         the JSON result (the driver's form)
#   benchmark/run.sh -aa 3                three back-to-back sets: the A/A spread
#
# A run whose verifier failed prints what failed, no numbers, and exits 1.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
# Go's caches go inside the checkout as well: a run writes nowhere else,
# and needs no $HOME.
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
go build -C benchmark -o "$build/smcbench" ./cmd/smcbench
exec "$build/smcbench" "$@"
