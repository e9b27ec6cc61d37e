#!/usr/bin/env bash
# Builds the gmine server and the benchmark harness from the checkout in the
# current directory, then runs the harness with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload navigate --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/gmine" ./cmd/gmine
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -gmine "$out/bin/gmine" "$@"
