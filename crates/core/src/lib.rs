//! # cackle — hybrid elastic-pool provisioning (the paper's contribution)
//!
//! Cackle serves persistent demand with cheap, slow-to-start provisioned
//! VMs and absorbs spikes with an expensive but instantly available elastic
//! pool. The crate provides:
//!
//! * [`history`] — the per-second workload history (§4.4.1) and sliding
//!   order statistics.
//! * [`strategy`] — fixed / mean / percentile / predictive strategies
//!   (§4.2–§4.3).
//! * [`allocsim`] — target-history → allocation-history prediction and the
//!   cost calculation (§4.4.2–§4.4.3).
//! * [`meta`] — the multiplicative-weights meta-strategy (§4.4.4–§4.4.6).
//! * [`oracle`] — the exact offline optimum via per-demand-level interval
//!   DP (§5.1's `oracle`), with and without the elastic pool.
//! * [`shuffleprov`] — the §5.6 shuffle-node provisioner.
//! * [`model`] — the §5.1 analytical model over query profiles.
//! * [`delaying`] — the §5.5 work-delaying comparison system, and the
//!   queued-capacity core ([`delaying::QueuedRun`]) it shares with the
//!   warehouse models in `cackle-comparators`.
//! * [`system`] — the full event-driven Cackle system: coordinator,
//!   VM fleet + elastic pool, shuffle placement with S3 fallback, runtime
//!   noise — the "real execution" side of Figures 12–14.

pub mod allocsim;
mod clock;
pub mod config;
pub mod delaying;
pub mod factory;
pub mod history;
pub mod live;
pub mod meta;
pub mod model;
pub mod oracle;
pub mod report;
mod runloop;
pub mod shuffleprov;
pub mod spec;
pub mod strategy;
pub mod system;
pub mod transport;

pub use allocsim::AllocationSim;
pub use config::Env;
pub use delaying::{run_delaying, try_run_delaying};
pub use factory::{make_strategy, try_make_strategy};
pub use history::WorkloadHistory;
pub use live::{run_live, run_live_collect, run_live_with, try_run_live, LiveQuery};
pub use meta::{FamilyConfig, MetaStrategy};
pub use model::{build_workload, run_model, run_model_with, try_run_model, QueryArrival};
pub use oracle::{oracle_cost, oracle_cost_without_pool, OracleCost};
pub use report::{ComputeCost, RunResult, ShuffleCost, Timeseries};
pub use spec::{RunError, RunSpec};
pub use strategy::{FixedStrategy, MeanStrategy, PredictiveStrategy, ProvisioningStrategy};
pub use system::{run_system, run_system_with, try_run_system, try_run_system_with};
pub use transport::HybridShuffle;

/// Re-export of the observability crate so downstream users can construct
/// sinks without depending on `cackle-telemetry` directly.
pub use cackle_telemetry::{Histogram, Registry, Telemetry, TraceEvent};

/// Re-export of the fault-injection crate: plan specs, recovery policy,
/// and the injector handle runners consult.
pub use cackle_faults::{
    EnvironmentSpec, FaultError, FaultInjector, FaultPlan, FaultSpec, InjectionPoint, PoolDecision,
    PriceTimeline, RecoveryPolicy, StoreOp,
};
