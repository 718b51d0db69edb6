#!/usr/bin/env sh
# Offline CI gate: formatting, clippy's determinism and ledger rules,
# rustdoc, release build, full test suite. No network access required at
# any step.
set -eu
cd "$(dirname "$0")"

# Each example rewrites its dump under results/ in place; the dump must
# read byte for byte as the index has it (stage a deliberate re-record
# first), so a change to a runner's output cannot pass unnoticed.
dump_unchanged() {
    git diff --exit-code --stat -- "results/$1" \
        || { echo "results/$1 differs from the committed dump" >&2; exit 1; }
}

# One named gate: `cargo test -q <args>`, failing when it fails or when
# it ran no test at all. A filter that matches nothing makes cargo exit
# 0, so without the count a renamed or deleted test would pass its gate
# silently.
gate() {
    out=$(cargo test -q "$@" 2>&1) \
        || { printf '%s\n' "$out"; echo "gate failed: cargo test $*" >&2; return 1; }
    passed=$(printf '%s\n' "$out" \
        | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' \
        | awk '{ n += $1 } END { print n + 0 }')
    if [ "$passed" -eq 0 ]; then
        echo "gate ran no test: cargo test $*" >&2
        return 1
    fi
    echo "    $passed passed: $*"
}

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (determinism, hot-path and ledger rules: clippy.toml, [lints.clippy])"
# The workspace's libraries, binaries and examples; test code is exempt.
# Besides the host clock, hash order, threads and hot-path panics, it
# carries seed provenance (clippy.toml disallows cackle_prng::Seed::root,
# so a PRNG stream is minted only at the nine #[expect]ed entry points
# DESIGN §6 lists) and ledger hygiene (it disallows CostLedger's four f64
# adapters, so product code bills only CostLedger::bill with Money that
# Pricing minted). There is no separate lint step. crates/bench/bench_all
# is its own workspace and is not covered. The build is hermetic, so this
# needs no registry access.
cargo clippy --offline --workspace --lib --bins --examples -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
# Broken or private intra-doc links and ambiguous paths fail here, so a
# doc comment cannot keep pointing at an item that moved or was deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> worker-count determinism (executor pool, golden dumps, pinned behaviour, 10x executor stress)"
# The process-wide pool: a panic on any worker reaches the caller with its
# payload and the pool survives it, a panicking caller still waits for the
# pool threads, concurrent and nested calls get index-ordered results, and
# a thousand two-worker calls spawn one thread. Its lifetime-erasing
# handoff is the one `unsafe` under crates/*/src.
gate -p cackle-engine --lib executor::tests::pool_
gate --test atomics the_pool_handoff_is_the_only_unsafe
gate --test determinism golden_dumps_are_byte_identical_across_worker_counts
gate --test behaviour_pin
# Green on every run, not on most runs: thread scheduling differs from
# run to run, so one pass proves little about a worker-count race.
for run in 1 2 3 4 5 6 7 8 9 10; do
    gate --test executor_stress \
        || { echo "executor_stress: failed on run $run of 10" >&2; exit 1; }
done

echo "==> one retry rule (typed errors at the bound, fault budgets)"
# Every retried point allows max_retries retries and has one outcome at
# the bound: a store request that fails every attempt ends both task
# runners with FaultUnrecovered (the live one alike at 1 and 3 workers),
# and every pinned fault run above asserts a fault budget of at most
# 1e-6, as does the golden fault run here.
gate -p cackle-faults --lib every_point_allows_max_retries_and_counts_the_same
gate -p cackle-faults --lib the_lowest_exhausted_point_wins_in_any_order
gate -p cackle-faults --lib recovered_operations_never_record_an_exhaustion
gate --test unrecovered
gate --test determinism golden_fault_run_dumps_are_byte_identical

echo "==> exactness gates (quantile value list, fleet advance, decision pin, key kernels, string dictionaries, cost rows, plan shapes, target replay)"
# The strategy tick's fast paths against their references, bit for bit:
# the quantile value list against sorted brute force, `advance` over
# random slices against the per-VM fleet, and the full family's
# decisions against hashes recorded from per-second steps.
gate -p cackle differential_quantile_value_list_vs_sorted
gate -p cackle --lib differential_advance_vs_per_vm_fleet
gate -p cackle --lib full_family_decision_trace_is_pinned
# The engine's batch key kernels against their row-at-a-time references:
# group-by, COUNT(DISTINCT) and joins against the reference operators,
# the pinned seven-way placement of string keys, and the batch
# partitioner against `partition_of` row by row.
gate -p cackle-engine --test kernel_differential aggregate_kernel_matches_row_reference
gate -p cackle-engine --test kernel_differential join_kernel_matches_row_reference
gate -p cackle-engine --test kernel_differential negative_zero_is_a_key_of_its_own
gate -p cackle-engine --test string_columns wire_bytes_sizes_and_placement_are_pinned
gate -p cackle-engine --lib batch_partitions_match_partition_of
# Dictionary-coded strings: string comparisons, IN and LIKE once per
# dictionary entry against once per row, gathers and concat, the
# group-by's code-tuple memo against the byte-key path, dbgen's shared
# list dictionaries, and every byte dbgen generates.
gate -p cackle-engine --test string_dictionary per_entry_and_per_row_paths_agree
gate -p cackle-engine --test string_dictionary group_by_memo_matches_byte_keys
gate -p cackle-tpch --test dbgen_proptests list_picked_columns_share_one_dictionary
gate -p cackle-tpch --test dbgen_proptests generated_bytes_are_pinned
# Every runner's dump against its own result: each cost row that mirrors
# a `RunResult` field is that field, bit for bit; a live run on
# remote-region VMs bills the bytes its tasks publish as egress.
gate --test cost_rows every_runner_dumps_the_costs_it_reports
gate --test cost_rows live_remote_vms_bill_egress
# Plans are data: every plan's `{:?}` at six parallelism settings against
# the pinned table, and the builder's derived facts (a reader's task
# count is its exchange's partition count; the final half of a two-phase
# aggregate follows one split rule, which refuses AVG and COUNT DISTINCT).
gate --test plan_shapes
gate -p cackle-tpch --lib plans::builder
# Every strategy-driven runner's recorded demand, replayed through a fresh
# strategy on the one strategy clock, reproduces its recorded targets bit
# for bit (model, system, system under market motion, live, serve).
gate --test replay

echo "==> repro (every experiment regenerates its committed outputs byte for byte)"
# One run of every experiment, fanned out over the host's cores. repro
# writes under target/repro/ and never under results/; a drifted, missing
# or orphaned file fails the gate with one line each. The chaos, tenant
# and environment sweeps assert recovery, exact attribution, stable p99
# and ledger conservation at every row, so a regression there fails too.
cargo run -q --release -p cackle-bench --bin repro > /dev/null
for dump in env_grid_telemetry.jsonl fig12_telemetry.jsonl; do
    cargo run -q --release -p cackle-telemetry --bin telemetry-check -- "target/repro/$dump"
done

echo "==> telemetry dump round-trip"
cargo run -q --release --example quickstart
cargo run -q --release -p cackle-telemetry --bin telemetry-check -- \
    results/quickstart_telemetry.jsonl
dump_unchanged quickstart_telemetry.jsonl

echo "==> multi-tenant serving smoke (per-tenant ledger + serve.* telemetry)"
cargo run -q --release --example multi_tenant
cargo run -q --release -p cackle-telemetry --bin telemetry-check -- \
    results/multi_tenant_telemetry.jsonl
dump_unchanged multi_tenant_telemetry.jsonl

echo "==> chaos smoke (seeded fault plan, bounded recovery)"
cargo run -q --release --example fault_injection
cargo run -q --release -p cackle-telemetry --bin telemetry-check -- \
    results/fault_injection_telemetry.jsonl
dump_unchanged fault_injection_telemetry.jsonl

echo "==> bench_all smoke (the benchmark's correctness gate on all four workloads)"
# ~10 ops per workload, ~20 s, writes only under target/smoke/. A pass
# whose gate fails exits 1 and takes run.sh with it; the `failed` counts
# are checked too, so the gate still bites if that exit code ever goes.
mkdir -p target/smoke
bench/run.sh --smoke > target/smoke/bench_all.txt \
    || { cat target/smoke/bench_all.txt; echo "bench/run.sh --smoke failed" >&2; exit 1; }
grep ' attempted, ' target/smoke/bench_all.txt
if grep ' attempted, ' target/smoke/bench_all.txt | grep -qv ' attempted, 0 failed'; then
    echo "bench_all --smoke: failed ops" >&2
    exit 1
fi

echo "CI gate passed."
