//! Fixtures shared by the root tests that attack worker-count
//! independence (`executor_stress`), pin runner behaviour
//! (`behaviour_pin`), check cost rows (`cost_rows`) and replay targets
//! (`replay`): two fault plans with the retry bound that keeps their runs
//! within the fault budget (`budget.rs`), one report rendering, one live
//! catalog and workload.

pub mod budget;

use cackle::{Env, FaultSpec, LiveQuery, RecoveryPolicy, RunResult, RunSpec};
use cackle_engine::table::Catalog;
use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
use cackle_tpch::plans::{self, Par};
use std::sync::Arc;

/// Everything the fault layer can throw, at punishing rates. Run it under
/// [`chaos_recovery`].
pub fn chaos() -> FaultSpec {
    FaultSpec::default()
        .with_spot_reclaims(6.0)
        .with_pool_invoke_failures(0.15)
        .with_pool_throttles(0.1, 300)
        .with_store_errors(0.2, 0.2)
        .with_transport_drops(0.25)
        .with_stragglers(0.2, 3.0)
}

/// The retry bound of every [`chaos`] run: enough that no pool invoke or
/// store request of the fixtures' workloads is expected to fail every
/// attempt (`assert_fault_budget`).
pub fn chaos_recovery() -> RecoveryPolicy {
    RecoveryPolicy::default().with_max_retries(13)
}

/// A live run whose every shuffle chunk goes through the object store,
/// where store requests fail at [`chaos`]'s rate. Its shuffle nodes are
/// too small to hold any chunk, so each write spills to the store on its
/// own and each read fetches it back: on [`live_workload`], over a
/// hundred requests, about one in five retried. There the [`chaos`]
/// plan's transport drops almost never exhaust their bound, so its live
/// runs make no store request.
pub fn store_errors(spec: RunSpec) -> RunSpec {
    let mut env = Env {
        shuffle_min_bytes: 1,
        ..Env::default()
    };
    env.pricing.shuffle_node_capacity_bytes = 1;
    spec.with_env(env)
        .with_faults(FaultSpec::default().with_store_errors(0.2, 0.2))
        .with_recovery(chaos_recovery())
}

/// `{:?}` on `f64` prints the shortest exact round-trip decimal, so any
/// drift in any float shows up in the comparison.
pub fn report(r: &RunResult) -> String {
    format!(
        "compute {:?}\nshuffle {:?}\ntotal {:?}\nlatencies {:?}\n",
        r.compute,
        r.shuffle,
        r.total_cost(),
        r.latencies,
    )
}

/// A small generated TPC-H catalog for live runs.
pub fn live_catalog() -> Catalog {
    generate_catalog(&DbGenConfig {
        scale_factor: 0.002,
        rows_per_partition: 512,
        seed: 7,
    })
}

/// Six real queries through the engine: operator pipelines, hybrid
/// shuffle, joins and aggregations, arriving seven seconds apart.
pub fn live_workload() -> Vec<LiveQuery> {
    let par = Par {
        fact: 3,
        mid: 2,
        join: 2,
    };
    ["q01", "q06", "q03", "q13", "q04", "q06"]
        .iter()
        .enumerate()
        .map(|(i, &n)| LiveQuery {
            at_s: i as u64 * 7,
            plan: Arc::new(plans::plan(n, par)),
        })
        .collect()
}
