//! Fixtures shared by the root tests that attack worker-count
//! independence (`executor_stress`), pin runner behaviour
//! (`behaviour_pin`), check cost rows (`cost_rows`) and replay targets
//! (`replay`): two fault plans with the retry bounds that keep their runs
//! within the fault budget (`budget.rs`), one report rendering, one live
//! catalog and workload.

pub mod budget;

use cackle::{FaultSpec, LiveQuery, RecoveryPolicy, RunResult};
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

/// Transport drops that exhaust the default retry bound on most node
/// writes, so the live shuffle falls back to the billed store, where a
/// few requests fail and retry. The store rate is what keeps the fault
/// budget: raising the bound instead would stop the writes falling back.
/// On [`live_workload`] the [`chaos`] plan's drops almost never exhaust
/// their bound, so its live runs make no store request.
pub fn store_errors() -> FaultSpec {
    FaultSpec::default()
        .with_transport_drops(0.9)
        .with_store_errors(0.025, 0.025)
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
