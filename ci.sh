#!/usr/bin/env sh
# Offline CI gate: formatting, clippy's determinism and ledger rules,
# rustdoc, release build, full test suite. No network access required at
# any step.
set -eu
cd "$(dirname "$0")"

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

echo "==> worker-count determinism (golden dumps, pinned behaviour, 10x executor stress)"
cargo test -q --test determinism golden_dumps_are_byte_identical_across_worker_counts
cargo test -q --test behaviour_pin
# Green on every run, not on most runs: thread scheduling differs from
# run to run, so one pass proves little about a worker-count race.
for run in 1 2 3 4 5 6 7 8 9 10; do
    cargo test -q --test executor_stress \
        || { echo "executor_stress: failed on run $run of 10" >&2; exit 1; }
done

echo "==> exactness gates (quantile value list, fleet advance, decision pin)"
# The strategy tick's fast paths against their references, bit for bit:
# the quantile value list against sorted brute force, `advance` over
# random slices against the per-VM fleet, and the full family's
# decisions against hashes recorded from per-second steps.
cargo test -q -p cackle differential_quantile_value_list_vs_sorted
cargo test -q -p cackle --lib differential_advance_vs_per_vm_fleet
cargo test -q -p cackle --lib full_family_decision_trace_is_pinned

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

echo "==> multi-tenant serving smoke (per-tenant ledger + serve.* telemetry)"
cargo run -q --release --example multi_tenant
cargo run -q --release -p cackle-telemetry --bin telemetry-check -- \
    results/multi_tenant_telemetry.jsonl

echo "==> chaos smoke (seeded fault plan, bounded recovery)"
cargo run -q --release --example fault_injection
cargo run -q --release -p cackle-telemetry --bin telemetry-check -- \
    results/fault_injection_telemetry.jsonl

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
