#!/usr/bin/env bash
# Builds fastlsa-server and the perfbench program from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload align-divergence --seed 1 --seconds 10 --trace 0
#
# Every build artefact, Go cache and scratch file stays under .bench_build/
# at the checkout root, so the benchmark writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"

(cd "$root" && go build -o "$build/fastlsa-server" ./cmd/fastlsa-server) >&2
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" -server "$build/fastlsa-server" -work "$build/work" "$@"
