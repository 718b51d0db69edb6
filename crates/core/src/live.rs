//! Live-engine execution: the full Cackle system running **real queries**.
//!
//! Where [`crate::system`] replays pre-measured profiles, this module runs
//! actual `cackle-engine` plans over generated data: every task executes
//! its operator pipeline, intermediate bytes travel through the
//! [`HybridShuffle`] (capacity-limited shuffle nodes with billed
//! object-store fallback), and each task's *simulated* duration is derived
//! from the rows it actually processed at the calibrated task throughput —
//! so the demand curve, the shuffle pressure, and therefore the strategy's
//! behaviour all emerge from genuine execution rather than from a profile.
//!
//! This is the closest analogue of the paper's §7.1 implementation: the
//! same coordinator/compute/shuffle split, with the cloud simulated and
//! the relational work real. The coordinator is the same code, too: the
//! crate-private `runloop` module drives this module's task source
//! exactly as it drives the profile replay.
//!
//! Entry points mirror the other runners: [`run_live`] takes a
//! [`RunSpec`] and returns the shared [`RunResult`]; [`run_live_collect`]
//! additionally gathers each query's output batches.
//!
//! Fault injection (`crates/faults`): the spec's plan drives straggler
//! slowdowns, pool invoke failures/throttles (bounded retry with
//! deterministic backoff), object-store transient errors (retried and
//! billed inside the run's [`ObjectStore`], which attributes the retried
//! attempts to the `recovery` cost component, as it does for the profile
//! replay), and drops of node-tier transport writes (recovered by S3
//! fallback). A pool invoke or a store request that fails every attempt
//! surfaces [`RunError::FaultUnrecovered`] through [`try_run_live`].
//! Spot reclaims and duplicate launches never happen here: a live task
//! executes eagerly when it is launched, so it hands the loop no recovery
//! data and there is no mid-flight copy to reclaim or duplicate.

use crate::report::RunResult;
use crate::runloop::{self, QueryGraph, Stage, TaskLaunch, TaskSource};
use crate::spec::{RunError, RunSpec};
use crate::strategy::ProvisioningStrategy;
use crate::transport::HybridShuffle;
use cackle_cloud::ObjectStore;
use cackle_engine::batch::Batch;
use cackle_engine::executor::Executor;
use cackle_engine::plan::StageDag;
use cackle_engine::shuffle::ShuffleTransport;
use cackle_engine::table::Catalog;
use cackle_faults::FaultInjector;
use cackle_telemetry::Telemetry;
use std::sync::Arc;

/// A query to run live: arrival time plus its physical plan.
#[derive(Clone)]
pub struct LiveQuery {
    /// Arrival second.
    pub at_s: u64,
    /// The plan to execute.
    pub plan: Arc<StageDag>,
}

/// Real execution: a stage's tasks run through the engine when the stage
/// is launched, and their simulated durations come from the rows they
/// processed.
struct LiveSource<'a> {
    workload: &'a [LiveQuery],
    catalog: &'a Catalog,
    spec: &'a RunSpec,
    shuffle: HybridShuffle,
    telemetry: Telemetry,
    faults: FaultInjector,
    /// Each query's final output batches, when the caller wants them.
    results: Option<Vec<Vec<Batch>>>,
}

impl TaskSource for LiveSource<'_> {
    /// Execute the engine tasks NOW across `spec.workers` threads (their
    /// wall time is irrelevant to the simulation; bytes move through the
    /// shuffle at the stage barrier, in task-index order) and report the
    /// simulated time each task's row count implies. The straggler draws
    /// happen after the executor returns, serially and in task order, so
    /// the sequential fault stream sees the same order at any worker
    /// count.
    fn launch_stage(&mut self, query: usize, stage: usize, _: usize) -> Vec<TaskLaunch> {
        let task_results = Executor::new(self.spec.workers).execute_stage(
            &self.workload[query].plan,
            stage,
            query as u64,
            self.catalog,
            &self.shuffle,
            &self.telemetry,
            &self.faults,
        );
        let launches = task_results.into_iter().map(|r| {
            if let (Some(batches), Some(results)) = (r.output, &mut self.results) {
                results[query].extend(batches);
            }
            // Straggler injection stretches the simulated duration
            // (zero-rate plans make no draw at all).
            let slowdown = self.faults.straggler().unwrap_or(1.0);
            let work_s =
                (r.rows_in.max(1) as f64 / self.spec.rows_per_task_second).max(0.2) * slowdown;
            TaskLaunch {
                vm_secs: work_s,
                pool_secs: work_s * self.spec.pool_slowdown,
                publish_bytes: r.shuffle_bytes_written,
                recovery: None,
            }
        });
        launches.collect()
    }

    fn query_finished(&mut self, query: usize) {
        self.shuffle.delete_query(query as u64);
    }

    /// Shuffle-node billing tracks the provisioner target driven by
    /// *real* resident bytes on the transport.
    fn resident_bytes(&self) -> u64 {
        self.shuffle.node_resident_bytes()
    }
}

/// Execute a live workload; the strategy comes from `spec.strategy`.
/// Panics on a malformed spec or workload or an unrecovered injected
/// fault — use [`try_run_live`] to handle those gracefully.
pub fn run_live(workload: &[LiveQuery], catalog: &Catalog, spec: &RunSpec) -> RunResult {
    try_run_live(workload, catalog, spec).unwrap_or_else(|e| e.raise())
}

/// [`run_live`], reporting malformed specs and workloads and unrecovered
/// faults instead of panicking.
pub fn try_run_live(
    workload: &[LiveQuery],
    catalog: &Catalog,
    spec: &RunSpec,
) -> Result<RunResult, RunError> {
    live(workload, catalog, None, spec, false).map(|(run, _)| run)
}

/// Execute a live workload under an explicitly constructed strategy.
/// Panics where [`run_live`] does.
pub fn run_live_with(
    workload: &[LiveQuery],
    catalog: &Catalog,
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> RunResult {
    let run = live(workload, catalog, Some(strategy), spec, false);
    run.unwrap_or_else(|e| e.raise()).0
}

/// [`run_live_with`], additionally gathering each query's final output
/// batches (memory-heavy for big workloads).
pub fn run_live_collect(
    workload: &[LiveQuery],
    catalog: &Catalog,
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> (RunResult, Vec<Vec<Batch>>) {
    live(workload, catalog, Some(strategy), spec, true).unwrap_or_else(|e| e.raise())
}

/// Every live entry point: hand the plans' stage graphs to the run loop
/// behind a [`LiveSource`] (without a `strategy` the loop builds one from
/// the spec's label).
fn live(
    workload: &[LiveQuery],
    catalog: &Catalog,
    strategy: Option<&mut dyn ProvisioningStrategy>,
    spec: &RunSpec,
    keep_results: bool,
) -> Result<(RunResult, Vec<Vec<Batch>>), RunError> {
    let graphs = workload.iter().map(|q| {
        let stages = q.plan.stages.iter().map(|s| Stage {
            remaining_tasks: s.tasks,
            deps: s.dependencies(),
        });
        QueryGraph {
            at_s: q.at_s,
            name: &q.plan.name,
            stages: stages.collect(),
        }
    });
    let source = |telemetry: &Telemetry, faults: &FaultInjector, store: &Arc<ObjectStore>| {
        // The transport holds the provisioner's floor of shuffle nodes for
        // the whole run rather than being rebuilt as the shuffle fleet's
        // target moves each second: nodes beyond the floor would only
        // reduce S3 traffic further, so sizing placement to the floor
        // keeps the cost accounting conservative.
        let node_bytes = spec.env.pricing.shuffle_node_capacity_bytes;
        let floor_nodes = (spec.env.shuffle_min_bytes / node_bytes).max(1) as usize;
        LiveSource {
            workload,
            catalog,
            spec,
            shuffle: HybridShuffle::new(floor_nodes, node_bytes, store.clone()).with_faults(faults),
            telemetry: telemetry.clone(),
            faults: faults.clone(),
            results: keep_results.then(|| vec![Vec::new(); workload.len()]),
        }
    };
    let (run, source) = runloop::run(spec, graphs, strategy, source)?;
    Ok((run, source.results.unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::FixedStrategy;
    use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
    use cackle_tpch::plans::{self, Par};

    fn tiny_catalog() -> Catalog {
        generate_catalog(&DbGenConfig {
            scale_factor: 0.002,
            rows_per_partition: 512,
            seed: 7,
        })
    }

    fn live_workload(names: &[(&str, u64)]) -> Vec<LiveQuery> {
        let par = Par {
            fact: 3,
            mid: 2,
            join: 2,
        };
        names
            .iter()
            .map(|&(n, at)| LiveQuery {
                at_s: at,
                plan: Arc::new(plans::plan(n, par)),
            })
            .collect()
    }

    #[test]
    fn real_queries_execute_and_bill() {
        let catalog = tiny_catalog();
        let w = live_workload(&[("q01", 0), ("q06", 5), ("q03", 10), ("q13", 15)]);
        let mut strategy = FixedStrategy { vms: 0 };
        // Tiny data: stretch durations with a low task throughput.
        let spec = RunSpec::new().with_rows_per_task_second(5_000.0);
        let (run, results) = run_live_collect(&w, &catalog, &mut strategy, &spec);
        assert_eq!(run.latencies.len(), 4);
        assert!(run.latencies.iter().all(|&l| l > 0.0));
        // Pool-only: every task billed on the pool.
        assert_eq!(run.compute.vm_seconds, 0.0);
        assert!(run.compute.pool_cost > 0.0);
        // Real results were gathered.
        assert!(results.iter().all(|b| !b.is_empty()));
        // q01 produced its 3 pricing-summary groups.
        let q01_rows: usize = results[0].iter().map(|b| b.num_rows()).sum();
        assert_eq!(q01_rows, 3);
    }

    #[test]
    fn live_results_match_direct_execution() {
        use cackle_engine::shuffle::MemoryShuffle;
        let catalog = tiny_catalog();
        let par = Par {
            fact: 3,
            mid: 2,
            join: 2,
        };
        let w = live_workload(&[("q04", 0)]);
        let mut strategy = FixedStrategy { vms: 2 };
        let (_, results) = run_live_collect(&w, &catalog, &mut strategy, &RunSpec::new());
        let dag = plans::plan("q04", par);
        let direct = Executor::new(1).execute_query(&dag, 1, &catalog, &MemoryShuffle::new());
        let gathered = Batch::concat(dag.final_stage().output_schema.clone(), &results[0]);
        assert_eq!(gathered, direct, "live system must compute the same answer");
    }

    #[test]
    fn vms_pick_up_work_once_started() {
        let catalog = tiny_catalog();
        // Enough queries spread out that VMs (180 s startup) see work.
        let w: Vec<LiveQuery> = (0..20)
            .flat_map(|i| live_workload(&[("q06", i * 30)]))
            .collect();
        let spec = RunSpec::new()
            .with_strategy("fixed_4")
            .with_rows_per_task_second(2_000.0);
        let r = run_live(&w, &catalog, &spec);
        assert!(r.compute.vm_seconds > 0.0, "VMs should run tasks");
        assert!(r.compute.pool_seconds > 0.0, "cold start uses the pool");
    }

    #[test]
    fn live_telemetry_records_engine_and_store_activity() {
        use cackle_telemetry::Telemetry;
        let catalog = tiny_catalog();
        let w = live_workload(&[("q06", 0), ("q01", 3)]);
        let t = Telemetry::new();
        let spec = RunSpec::new()
            .with_strategy("fixed_0")
            .with_rows_per_task_second(5_000.0)
            .with_telemetry(&t);
        let r = run_live(&w, &catalog, &spec);
        // Engine task counters recorded at the stage barrier.
        assert!(t.counter("engine.tasks_total") > 0);
        // Store request charges attributed to the store component.
        assert_eq!(t.cost("store", "s3_put"), r.shuffle.s3_put_cost);
        // Pool charges attributed (pool-only run).
        assert_eq!(t.cost("pool", "elastic_pool"), r.compute.pool_cost);
        assert_eq!(t.counter("run.queries_total"), 2);
    }
}
