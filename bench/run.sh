#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Everything
# the build writes (Go's build cache included) stays under .bench_build/ in
# the checkout; the arguments go to the benchmark unchanged:
#   bash bench/run.sh --workload remote-plain --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPROXY=off GOTOOLCHAIN=local
# bench/ is a module of its own whose go.mod points at the checkout (replace
# repro => ../): outside a checkout of the repository this build fails, and
# the script with it.
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" -root "$root" "$@"
