#!/usr/bin/env bash
# The one command: build the benchmark in release, run the four untraced
# passes then the four traced passes (one process each), merge them into
# a report and print every metric by name with its unit.
#
#   bench/run.sh                       one run per workload -> bench/out/BENCH.json
#   bench/run.sh --runs 10             ten runs per workload, each on another seed,
#                                      so the report carries run-to-run quartiles
#   bench/run.sh --smoke               ~10 ops per workload, two passes at a time (its numbers
#                                      mean nothing), writes only under target/smoke/
#   bench/run.sh --runs 10 --write-baseline BENCH_12.a
#                                      also copy the report to bench/baseline/BENCH_12.a.json
#
# Compare two reports with:  <build dir>/release/bench_all --compare A.json B.json
set -euo pipefail
cd "$(dirname "$0")/.."

runs=1
smoke=()
baseline=""
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        --write-baseline) baseline="$2"; shift 2 ;;
        *) echo "usage: bench/run.sh [--runs N] [--smoke] [--write-baseline NAME]" >&2; exit 2 ;;
    esac
done
if [ -n "$baseline" ] && [ ${#smoke[@]} -gt 0 ]; then
    echo "a smoke run is not a baseline" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path crates/bench/bench_all/Cargo.toml
bin="$CARGO_TARGET_DIR/release/bench_all"

out=bench/out
jobs=1
if [ ${#smoke[@]} -gt 0 ]; then
    out=target/smoke/bench_all
    jobs=2
fi
mkdir -p "$out"
rm -f "$out"/*.e2e.json "$out"/*.layers.json "$out"/*.log "$out"/trace_*.json "$out"/BENCH.json

workloads=(model_sweep serve_system_hour live_scan_agg live_join_shuffle)
# One pass of one workload in its own process; its table goes to a log,
# its first line (ops attempted and failed) to the terminal.
pass() {
    local workload="$1" seed="$2" trace="$3"
    local log="$out/$workload.$seed.trace$trace.log"
    "$bin" --workload "$workload" --seed "$seed" --trace "$trace" --out-dir "$out" "${smoke[@]}" > "$log"
    head -n 1 "$log"
}
# Measured passes run one at a time, alone on the host.
pids=()
queue() {
    pass "$@" &
    pids+=($!)
    if [ ${#pids[@]} -ge "$jobs" ]; then
        wait "${pids[0]}"
        pids=("${pids[@]:1}")
    fi
}
for r in $(seq 0 $((runs - 1))); do
    for w in "${workloads[@]}"; do
        queue "$w" $((12 + 1000 * r)) 0
    done
done
for w in "${workloads[@]}"; do
    queue "$w" 12 1
done
for pid in "${pids[@]}"; do
    wait "$pid"
done

"$bin" --merge "$out/BENCH.json" "$out"/*.e2e.json "$out"/*.layers.json
if [ -n "$baseline" ]; then
    cp "$out/BENCH.json" "bench/baseline/$baseline.json"
    echo "wrote bench/baseline/$baseline.json"
fi
