#!/usr/bin/env bash
# The benchmark's single command (see BENCHMARK.json): build the binary
# from source inside the checkout, then become it. No `go run`, no
# background job, no child left behind: `exec` replaces this shell, so
# the only process is the benchmark itself.
#
#   bash benchmark/run.sh --workload share_zipf --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
# Everything the toolchain writes stays under benchmark/out (its telemetry
# counters go to the user's configuration directory).
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/sudaf-perf" .)
exec "$out/sudaf-perf" -out "$out" "$@"
