#!/usr/bin/env bash
# A/A tool: run the whole set n times, each run of a workload with another
# seed, exactly as the driver does (one process per run, the command and
# run length taken from BENCHMARK.json), then print every metric's median,
# quartiles and relative spread next to its bound.
#
#   bash benchmark/aa.sh [n=10] [trace=0] [first-seed=1]      (from the repository root)
set -euo pipefail
n="${1:-10}" trace="${2:-0}" first="${3:-1}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
mkdir -p "$here/out"
log="$here/out/aa-trace$trace.tsv"
: > "$log"
for ((k = 0; k < n; k++)); do
  for w in "${workloads[@]}"; do
    seed=$((first + k))
    echo "aa: $w seed $seed trace $trace" >&2
    line="$("${cmd[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>>"$here/out/aa.stderr" | tail -n 1)"
    printf '%s\t%s\n' "$w" "$line" >> "$log"
  done
done
"$here/out/sudaf-perf" -aa-report "$log" -bounds BENCHMARK.json
