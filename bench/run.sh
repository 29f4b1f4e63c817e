#!/usr/bin/env bash
# Builds the benchmark once, then runs the untraced pass and the traced
# pass over the workloads and prints both metric tables. Arguments go to
# both passes, e.g. `bench/run.sh -seed 7 -workload clos-spray`.
# Exits non-zero if either pass fails a correctness check.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
go build -o out/bench .
./out/bench -trace 0 "$@"
./out/bench -trace 1 "$@"
