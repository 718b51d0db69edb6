//! The unified run specification shared by every entry point.
//!
//! Historically each runner grew its own knob struct (`ModelOptions`,
//! `SystemConfig`, `LiveConfig`) with overlapping fields and inconsistent
//! defaults. [`RunSpec`] replaces all three: one builder covering the
//! environment, the strategy label, the noise knobs, and the telemetry
//! sink, accepted by [`run_model`](crate::run_model),
//! [`run_system`](crate::run_system), [`run_live`](crate::run_live) and
//! [`run_delaying`](crate::delaying::run_delaying) alike. Knobs a given
//! runner does not use are simply ignored (the analytical model has no
//! spot interruptions; the live engine has no duration jitter), so one
//! spec can drive a model/system/live comparison without translation.
//!
//! Fallible validation lives in [`RunError`]; the `try_*` runner variants
//! return it instead of panicking on malformed input.

use crate::config::Env;
use cackle_faults::{
    FaultError, FaultInjector, FaultPlan, FaultSpec, PriceTimeline, RecoveryPolicy,
};
use cackle_prng::Seed;
use cackle_telemetry::Telemetry;
use std::error::Error;
use std::fmt;

/// One specification for any kind of run (model, system, live, delaying).
///
/// Construct with [`RunSpec::new`] and chain `with_*` builders:
///
/// ```
/// use cackle::{RunSpec, Telemetry};
/// let sink = Telemetry::new();
/// let spec = RunSpec::new()
///     .with_strategy("mean_2")
///     .with_seed(7)
///     .with_telemetry(&sink);
/// assert_eq!(spec.strategy, "mean_2");
/// assert!(spec.telemetry.is_enabled());
/// ```
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Cloud prices and timing observable by strategies.
    pub env: Env,
    /// Strategy label (`fixed_N`, `mean_Y`, `predictive`, `dynamic`)
    /// parsed by [`crate::factory::make_strategy`]. Runners with a
    /// `_with` variant accept an explicit strategy instance instead.
    pub strategy: String,
    /// Seed for all run-local randomness (noise, interruptions, tie-breaks).
    pub seed: u64,
    /// Elastic-pool slowdown factor versus a VM slot (§7.1: pool tasks run
    /// this many times longer).
    pub pool_slowdown: f64,
    /// Relative task-duration jitter applied by the system runner.
    pub duration_jitter: f64,
    /// Model runner only: skip the shuffle model, compute costs only.
    pub compute_only: bool,
    /// Live runner only: task throughput used to convert row counts into
    /// simulated work seconds.
    pub rows_per_task_second: f64,
    /// Fault injection plan spec (see `crates/faults`): transient fault
    /// rates, spot reclaims, and — as `faults.environment` — per-VM
    /// heterogeneity, spot-market motion, reclaim storms and a second
    /// region. All-zero by default, which compiles to a guaranteed no-op.
    pub faults: FaultSpec,
    /// How runners recover from injected faults: bounded retry with
    /// deterministic backoff, straggler duplicate-launch.
    pub recovery: RecoveryPolicy,
    /// Telemetry sink. Disabled by default; pass an enabled handle with
    /// [`RunSpec::with_telemetry`] to collect metrics, traces, cost
    /// attribution and the per-second series behind
    /// [`Timeseries::from_telemetry`](crate::Timeseries::from_telemetry)
    /// (see `crates/telemetry`).
    pub telemetry: Telemetry,
    /// Worker threads for the live runner's stage execution
    /// (`cackle_engine::executor`; the profile replay has no per-task
    /// work worth a thread). Defaults to 1 (serial). A pure throughput
    /// knob: changing it must not move a single byte of any report or
    /// telemetry dump — worker count is deliberately not part of the
    /// seed (DESIGN.md §9).
    pub workers: u32,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            env: Env::default(),
            strategy: "dynamic".to_string(),
            seed: 42,
            pool_slowdown: 1.25,
            duration_jitter: 0.08,
            compute_only: false,
            rows_per_task_second: 400_000.0,
            faults: FaultSpec::default(),
            recovery: RecoveryPolicy::default(),
            telemetry: Telemetry::disabled(),
            workers: 1,
        }
    }
}

impl RunSpec {
    /// A spec with the paper's Table 1 defaults and the `dynamic` strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the pricing/timing environment.
    pub fn with_env(mut self, env: Env) -> Self {
        self.env = env;
        self
    }

    /// Set the strategy label.
    pub fn with_strategy(mut self, label: impl Into<String>) -> Self {
        self.strategy = label.into();
        self
    }

    /// Set the run seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the elastic-pool slowdown factor.
    pub fn with_pool_slowdown(mut self, factor: f64) -> Self {
        self.pool_slowdown = factor;
        self
    }

    /// Set the relative task-duration jitter.
    pub fn with_duration_jitter(mut self, jitter: f64) -> Self {
        self.duration_jitter = jitter;
        self
    }

    /// Model runner: skip the shuffle model.
    pub fn with_compute_only(mut self, compute_only: bool) -> Self {
        self.compute_only = compute_only;
        self
    }

    /// Live runner: task throughput (rows per task-second).
    pub fn with_rows_per_task_second(mut self, rows: f64) -> Self {
        self.rows_per_task_second = rows;
        self
    }

    /// Set the worker-thread count for stage execution (`0` is treated
    /// as `1`). Workers only change wall-clock time, never results: all
    /// runs are byte-identical at any worker count.
    pub fn with_workers(mut self, workers: u32) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the fault injection plan spec.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Set the recovery policy for injected faults.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Attach a telemetry sink. The handle is cheap to clone; keep a copy
    /// to export after the run, or read it back from
    /// [`RunResult::telemetry`](crate::RunResult).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Compile [`RunSpec::faults`] into an injector seeded from
    /// [`RunSpec::seed`] and instrumented on `telemetry`. An all-zero
    /// spec yields a disabled handle, keeping the no-fault path
    /// bit-identical to a run without the subsystem.
    pub fn fault_injector(&self, telemetry: &Telemetry) -> Result<FaultInjector, RunError> {
        if self.faults.is_zero() {
            return Ok(FaultInjector::disabled());
        }
        let plan = FaultPlan::compile(&self.faults, self.seed)?;
        Ok(FaultInjector::new(plan, self.recovery).instrumented(telemetry))
    }

    /// The run's price timeline: the environment's spot market compiled
    /// with [`RunSpec::seed`] (flat without market motion). The system
    /// runner's fleets bill through it and the analytical model prices
    /// from it, so both see the same multiplier at every second.
    pub fn price_timeline(&self) -> PriceTimeline {
        #[expect(
            clippy::disallowed_methods,
            reason = "mint: the run's price timeline receives the RunSpec seed"
        )]
        let seed = Seed::root(self.seed);
        PriceTimeline::compile(&self.faults.environment, seed)
    }

    /// Check every numeric knob for finiteness and range, and that the
    /// strategy tick is a positive whole number of seconds.
    pub fn validate(&self) -> Result<(), RunError> {
        let checks: [(&'static str, f64, f64); 3] = [
            ("pool_slowdown", self.pool_slowdown, 1.0),
            ("duration_jitter", self.duration_jitter, 0.0),
            ("rows_per_task_second", self.rows_per_task_second, 1.0),
        ];
        for (name, value, min) in checks {
            if !value.is_finite() || value < min {
                return Err(RunError::InvalidKnob { name, value });
            }
        }
        // The strategy decides on whole seconds of history, so a tick is
        // a positive whole number of seconds.
        let tick = self.env.strategy_tick;
        if tick.as_millis() == 0 || !tick.as_millis().is_multiple_of(1000) {
            let value = tick.as_secs_f64();
            return Err(RunError::InvalidKnob {
                name: "env.strategy_tick",
                value,
            });
        }
        self.faults.validate()?;
        Ok(())
    }
}

/// Why a `try_*` runner refused a spec or workload.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The strategy label did not parse (see [`crate::factory::make_strategy`]).
    UnknownStrategy(String),
    /// A numeric knob was non-finite or out of range.
    InvalidKnob {
        /// Field name on [`RunSpec`].
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The workload itself is malformed (e.g. a stage depends on a stage
    /// index that does not exist).
    InvalidWorkload(String),
    /// An injected fault exhausted its recovery bound (e.g. every pool
    /// invoke retry failed). The run aborts with the injection point and
    /// the number of attempts made rather than panicking or hanging.
    FaultUnrecovered {
        /// Injection point name, e.g. `pool.invoke`.
        point: &'static str,
        /// Attempts made before giving up (first try + retries).
        attempts: u32,
    },
}

impl From<FaultError> for RunError {
    fn from(e: FaultError) -> Self {
        match e {
            FaultError::InvalidRate { knob, value } => RunError::InvalidKnob { name: knob, value },
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownStrategy(label) => {
                write!(f, "unknown strategy label '{label}'")
            }
            RunError::InvalidKnob { name, value } => {
                write!(f, "invalid value {value} for knob '{name}'")
            }
            RunError::InvalidWorkload(why) => write!(f, "invalid workload: {why}"),
            RunError::FaultUnrecovered { point, attempts } => {
                write!(
                    f,
                    "injected fault at '{point}' unrecovered after {attempts} attempts"
                )
            }
        }
    }
}

impl Error for RunError {}

impl RunError {
    /// Abort with this error. The panicking `run_*` wrappers funnel
    /// through here so the panic site lives in one place, outside the
    /// hot-path files that deny clippy's panic lints.
    pub fn raise(&self) -> ! {
        panic!("{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_old_system_config() {
        let s = RunSpec::new();
        assert_eq!(s.seed, 42);
        assert_eq!(s.strategy, "dynamic");
        assert!((s.pool_slowdown - 1.25).abs() < 1e-12);
        assert!((s.duration_jitter - 0.08).abs() < 1e-12);
        assert!(s.faults.is_zero());
        assert!(!s.compute_only);
        assert!((s.rows_per_task_second - 400_000.0).abs() < 1e-9);
        assert!(!s.telemetry.is_enabled());
    }

    #[test]
    fn builders_chain() {
        let t = Telemetry::new();
        let s = RunSpec::new()
            .with_strategy("fixed_3")
            .with_seed(9)
            .with_pool_slowdown(2.0)
            .with_duration_jitter(0.0)
            .with_faults(FaultSpec::default().with_spot_reclaims(0.5))
            .with_compute_only(true)
            .with_rows_per_task_second(1e6)
            .with_telemetry(&t);
        assert_eq!(s.strategy, "fixed_3");
        assert_eq!(s.seed, 9);
        assert!(s.telemetry.is_enabled());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let bad = RunSpec::new().with_pool_slowdown(f64::NAN);
        assert!(matches!(
            bad.validate(),
            Err(RunError::InvalidKnob {
                name: "pool_slowdown",
                ..
            })
        ));
        let bad = RunSpec::new().with_duration_jitter(-0.1);
        assert!(bad.validate().is_err());
        let bad = RunSpec::new().with_rows_per_task_second(0.0);
        assert!(bad.validate().is_err());
        assert!(RunSpec::new().validate().is_ok());
    }

    #[test]
    fn fault_spec_compiles_into_the_injector() {
        use cackle_faults::EnvironmentSpec;
        // Zero spec: injector stays disabled (no-op contract).
        let t = Telemetry::disabled();
        assert!(!RunSpec::new().fault_injector(&t).unwrap().is_enabled());
        // An active environment alone enables the injector.
        let env = EnvironmentSpec::default().with_vm_heterogeneity(0.25, 2.0, 0.5);
        let s = RunSpec::new().with_faults(FaultSpec::default().with_environment(env.clone()));
        let inj = s.fault_injector(&t).unwrap();
        assert!(inj.is_enabled());
        assert_eq!(inj.environment(), env);
        // Invalid environment knobs surface as typed run errors.
        let bad = RunSpec::new()
            .with_faults(FaultSpec::default().with_environment(
                EnvironmentSpec::default().with_vm_heterogeneity(0.5, 0.25, 0.0),
            ));
        assert!(matches!(
            bad.validate(),
            Err(RunError::InvalidKnob {
                name: "env.vm_slowdown",
                ..
            })
        ));
    }

    #[test]
    fn run_error_displays() {
        let e = RunError::UnknownStrategy("zippy".into());
        assert!(e.to_string().contains("zippy"));
        let e = RunError::InvalidKnob {
            name: "pool_slowdown",
            value: -1.0,
        };
        assert!(e.to_string().contains("pool_slowdown"));
        let e = RunError::InvalidWorkload("stage 3 dep 9".into());
        assert!(e.to_string().contains("stage 3"));
    }
}
