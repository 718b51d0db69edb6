//! # cackle-faults — deterministic fault injection + recovery policy
//!
//! Cackle's headline claim is cost *and performance* stability, which is
//! only credible if the reproduction exercises the failure modes elastic
//! substrates actually exhibit: spot reclaims, pool invoke failures and
//! throttles, object-store transient errors (GET/PUT 5xx), transport
//! drops, and straggler slowdowns. This crate is the one place those
//! faults are described, scheduled, and recovered from — runners consult
//! a [`FaultPlan`] + [`RecoveryPolicy`] instead of hand-rolling restart
//! logic per call site (Starling-style duplicate launches and read
//! retries are load-bearing for tail latency; see PAPERS.md).
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** A plan is compiled from a seeded [`FaultSpec`]
//!    via `cackle-prng`; every injection point draws from its *own*
//!    SplitMix64-derived PCG stream, so fault draws never perturb a
//!    runner's main RNG and identically-seeded faulty runs are
//!    byte-identical (`tests/determinism.rs` enforces this).
//! 2. **Zero-rate ⇒ no-op.** An injection point whose rate is `0` makes
//!    no draw and records no metric, so a default (all-zero) spec is
//!    bit-for-bit equivalent to running without the subsystem at all.
//! 3. **Recovered or typed.** Every injected fault is either recovered —
//!    bounded retry with deterministic backoff, duplicate launch with
//!    first-wins, task re-execution — or surfaced as a typed error by
//!    the caller. Never a panic (`[lints.clippy]` in this crate's
//!    manifest denies `unwrap`, `expect` and `panic!`).
//! 4. **Free when disabled.** Both handles are a cheap `Option` around
//!    shared state, mirroring `Telemetry`: hot paths carry one
//!    unconditionally and a disabled handle costs one branch.
//! 5. **Phases are types.** The coordinator holds a [`FaultInjector`]:
//!    every draw, sequential ones included, and `!Sync`, so a worker
//!    closure cannot capture it. Task code, the object store and the
//!    shuffle transport hold its [`TaskFaults`] view
//!    ([`FaultInjector::keyed`]), which has only the draws keyed by the
//!    operation's identity — the ones whose result cannot depend on
//!    which thread got there first.
//!
//! Injected faults and recoveries are counted through `cackle-telemetry`
//! under the `fault.*` / `recovery.*` prefixes (DESIGN.md §8 tabulates
//! the full set).

use cackle_prng::{Pcg32, Seed};
use cackle_telemetry::{catalog, Telemetry};
use std::cell::{RefCell, RefMut};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

mod env;
pub use env::{
    EnvironmentSpec, PriceTimeline, ReclaimStorm, VmTraits, SALT_ENV_MARKET, SALT_ENV_STORM,
    SALT_ENV_VM,
};

/// Per-attempt fault probabilities are capped below 1 so bounded retries
/// converge in expectation instead of looping on a certainly-failing op.
pub const MAX_ATTEMPT_PROBABILITY: f64 = 0.95;

/// Named injection points — the places runners consult the plan. Used in
/// error messages and telemetry details so an unrecovered fault names
/// where it was injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionPoint {
    /// Spot reclaim of a VM mid-task (`crates/cloud/src/vm.rs`).
    VmSpot,
    /// Elastic-pool invoke failure/throttle (`crates/cloud/src/pool.rs`).
    PoolInvoke,
    /// Object-store GET transient error (5xx).
    StoreGet,
    /// Object-store PUT transient error (5xx).
    StorePut,
    /// Shuffle transport drop (node tier write/read).
    Transport,
    /// Straggler slowdown of one task.
    Straggler,
}

impl InjectionPoint {
    /// Stable name for errors and telemetry details.
    pub fn as_str(self) -> &'static str {
        match self {
            InjectionPoint::VmSpot => "vm.spot",
            InjectionPoint::PoolInvoke => "pool.invoke",
            InjectionPoint::StoreGet => "store.get",
            InjectionPoint::StorePut => "store.put",
            InjectionPoint::Transport => "transport",
            InjectionPoint::Straggler => "straggler",
        }
    }
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A fault spec knob failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A rate/knob is out of its documented range (NaN, negative, or
    /// above the per-attempt cap).
    InvalidRate {
        /// Knob name, e.g. `faults.pool_invoke_failure_rate`.
        knob: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidRate { knob, value } => {
                write!(f, "invalid fault knob {knob} = {value}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Seeded description of which faults to inject and how often. All rates
/// default to zero (no faults); a zero rate means the corresponding
/// injection point never draws and never records a metric.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Spot reclaims per VM-busy-hour (Poisson: a task of duration `d`
    /// seconds is reclaimed with probability `1 - exp(-rate·d/3600)`).
    pub spot_reclaims_per_vm_hour: f64,
    /// Probability an elastic-pool invoke attempt fails outright
    /// (per attempt, `[0, 0.95]`).
    pub pool_invoke_failure_rate: f64,
    /// Probability an elastic-pool invoke attempt is throttled — the slot
    /// starts `pool_throttle_ms` later (per attempt, `[0, 0.95]`).
    pub pool_throttle_rate: f64,
    /// Extra start delay applied to a throttled pool invoke.
    pub pool_throttle_ms: u64,
    /// Probability an object-store GET request attempt returns a
    /// transient 5xx (per attempt, `[0, 0.95]`).
    pub store_get_error_rate: f64,
    /// Probability an object-store PUT request attempt returns a
    /// transient 5xx (per attempt, `[0, 0.95]`).
    pub store_put_error_rate: f64,
    /// Probability a shuffle-transport operation is dropped in transit
    /// (per attempt, `[0, 0.95]`).
    pub transport_drop_rate: f64,
    /// Probability a task is a straggler (per task, `[0, 1]`).
    pub straggler_rate: f64,
    /// Runtime multiplier applied to straggler tasks (`>= 1`).
    pub straggler_slowdown: f64,
    /// Persistent environmental diversity: per-VM heterogeneity,
    /// spot-market motion, reclaim storms, and a second region (see
    /// [`EnvironmentSpec`]). Defaults to zero intensity (inert).
    pub environment: EnvironmentSpec,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            spot_reclaims_per_vm_hour: 0.0,
            pool_invoke_failure_rate: 0.0,
            pool_throttle_rate: 0.0,
            pool_throttle_ms: 500,
            store_get_error_rate: 0.0,
            store_put_error_rate: 0.0,
            transport_drop_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 4.0,
            environment: EnvironmentSpec::default(),
        }
    }
}

impl FaultSpec {
    /// Builder: spot reclaims per VM-busy-hour.
    pub fn with_spot_reclaims(mut self, per_vm_hour: f64) -> Self {
        self.spot_reclaims_per_vm_hour = per_vm_hour;
        self
    }

    /// Builder: pool invoke failure probability per attempt.
    pub fn with_pool_invoke_failures(mut self, rate: f64) -> Self {
        self.pool_invoke_failure_rate = rate;
        self
    }

    /// Builder: pool throttle probability per attempt and its delay.
    pub fn with_pool_throttles(mut self, rate: f64, delay_ms: u64) -> Self {
        self.pool_throttle_rate = rate;
        self.pool_throttle_ms = delay_ms;
        self
    }

    /// Builder: object-store transient error probabilities (GET, PUT).
    pub fn with_store_errors(mut self, get_rate: f64, put_rate: f64) -> Self {
        self.store_get_error_rate = get_rate;
        self.store_put_error_rate = put_rate;
        self
    }

    /// Builder: shuffle-transport drop probability per attempt.
    pub fn with_transport_drops(mut self, rate: f64) -> Self {
        self.transport_drop_rate = rate;
        self
    }

    /// Builder: straggler probability per task and runtime multiplier.
    pub fn with_stragglers(mut self, rate: f64, slowdown: f64) -> Self {
        self.straggler_rate = rate;
        self.straggler_slowdown = slowdown;
        self
    }

    /// Builder: environmental diversity (heterogeneity, market motion,
    /// storms, second region).
    pub fn with_environment(mut self, environment: EnvironmentSpec) -> Self {
        self.environment = environment;
        self
    }

    /// Whether every injection point is inert (rate zero) *and* the
    /// environment has zero intensity. A zero spec compiles to a plan
    /// that never draws — the documented no-op.
    pub fn is_zero(&self) -> bool {
        self.spot_reclaims_per_vm_hour == 0.0
            && self.pool_invoke_failure_rate == 0.0
            && self.pool_throttle_rate == 0.0
            && self.store_get_error_rate == 0.0
            && self.store_put_error_rate == 0.0
            && self.transport_drop_rate == 0.0
            && self.straggler_rate == 0.0
            && self.environment.is_zero()
    }

    /// Range-check every knob. Per-attempt probabilities are capped at
    /// [`MAX_ATTEMPT_PROBABILITY`] so retry loops converge.
    pub fn validate(&self) -> Result<(), FaultError> {
        fn rate(knob: &'static str, v: f64, hi: f64) -> Result<(), FaultError> {
            if v.is_finite() && (0.0..=hi).contains(&v) {
                Ok(())
            } else {
                Err(FaultError::InvalidRate { knob, value: v })
            }
        }
        let p = MAX_ATTEMPT_PROBABILITY;
        rate(
            "faults.spot_reclaims_per_vm_hour",
            self.spot_reclaims_per_vm_hour,
            f64::MAX,
        )?;
        rate(
            "faults.pool_invoke_failure_rate",
            self.pool_invoke_failure_rate,
            p,
        )?;
        rate("faults.pool_throttle_rate", self.pool_throttle_rate, p)?;
        rate("faults.store_get_error_rate", self.store_get_error_rate, p)?;
        rate("faults.store_put_error_rate", self.store_put_error_rate, p)?;
        rate("faults.transport_drop_rate", self.transport_drop_rate, p)?;
        rate("faults.straggler_rate", self.straggler_rate, 1.0)?;
        if !self.straggler_slowdown.is_finite() || self.straggler_slowdown < 1.0 {
            return Err(FaultError::InvalidRate {
                knob: "faults.straggler_slowdown",
                value: self.straggler_slowdown,
            });
        }
        self.environment.validate()?;
        Ok(())
    }
}

/// How runners recover from injected faults: bounded retry with
/// deterministic exponential backoff, optional straggler duplicate
/// launch with first-wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum retries per operation after the first attempt. Transient
    /// store/transport faults clear within this bound (that is what
    /// "transient" means here); pool invoke exhaustion surfaces as a
    /// typed run error.
    pub max_retries: u32,
    /// Backoff before the first retry, in simulated milliseconds.
    pub backoff_base_ms: u64,
    /// Multiplier applied per subsequent retry (deterministic, no
    /// jitter: backoff for retry `n` is `base · multiplier^n`).
    pub backoff_multiplier: u32,
    /// Launch a duplicate of a detected straggler on the pool and take
    /// whichever copy finishes first.
    pub duplicate_stragglers: bool,
    /// A task is declared a straggler once it runs past
    /// `nominal_duration · straggler_patience`.
    pub straggler_patience: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 4,
            backoff_base_ms: 250,
            backoff_multiplier: 2,
            duplicate_stragglers: true,
            straggler_patience: 1.25,
        }
    }
}

impl RecoveryPolicy {
    /// Builder: retry bound.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Builder: backoff schedule (`base · multiplier^n`).
    pub fn with_backoff(mut self, base_ms: u64, multiplier: u32) -> Self {
        self.backoff_base_ms = base_ms;
        self.backoff_multiplier = multiplier;
        self
    }

    /// Builder: straggler duplicate-launch switch and patience factor.
    pub fn with_duplicates(mut self, enabled: bool, patience: f64) -> Self {
        self.duplicate_stragglers = enabled;
        self.straggler_patience = patience;
        self
    }

    /// Deterministic backoff before retry number `attempt` (0-based),
    /// saturating instead of overflowing.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let mult = (self.backoff_multiplier.max(1) as u64)
            .saturating_pow(attempt.min(32))
            .max(1);
        self.backoff_base_ms.saturating_mul(mult)
    }

    /// Whether retry number `attempt` (0-based) is within the bound.
    pub fn allows_retry(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }

    /// Range-check the policy knobs.
    pub fn validate(&self) -> Result<(), FaultError> {
        if !self.straggler_patience.is_finite() || self.straggler_patience < 1.0 {
            return Err(FaultError::InvalidRate {
                knob: "recovery.straggler_patience",
                value: self.straggler_patience,
            });
        }
        if self.backoff_multiplier < 1 {
            return Err(FaultError::InvalidRate {
                knob: "recovery.backoff_multiplier",
                value: self.backoff_multiplier as f64,
            });
        }
        Ok(())
    }
}

/// What the plan decided for one elastic-pool invoke attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolDecision {
    /// Invoke proceeds normally.
    Proceed,
    /// Invoke is throttled: the slot starts `delay_ms` later (the
    /// provider does not bill queue time).
    Throttle {
        /// Extra delay before the slot starts.
        delay_ms: u64,
    },
    /// Invoke fails; the caller retries under the [`RecoveryPolicy`] or
    /// surfaces a typed error once the bound is exhausted.
    Fail,
}

/// Which object-store operation a request fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// GET request.
    Get,
    /// PUT request.
    Put,
}

/// A compiled, seeded fault schedule. Each injection point owns an
/// independent PCG stream derived from the run seed with SplitMix64, so
/// draws at one point never shift draws at another (or the runner's own
/// RNG). Draw methods skip the stream entirely when their rate is zero.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    seed: Seed,
    spot: Pcg32,
    pool: Pcg32,
    store_get: Pcg32,
    store_put: Pcg32,
    straggler: Pcg32,
    /// Seed-compiled reclaim-storm schedule (`None` when storms are
    /// off).
    storm: Option<ReclaimStorm>,
}

/// Decorrelate the per-point streams from the run seed (and from the
/// seed itself, which runners feed to their main RNG).
fn stream(seed: Seed, salt: u64) -> Pcg32 {
    Pcg32::new(seed.keyed(salt))
}

/// Point salts for the *keyed* injection points — the ones consulted from
/// parallel task code, where a shared sequential stream would make draw
/// results depend on thread scheduling. Disjoint from the sequential
/// salts (0xFA01–0xFA06) so keyed and sequential draws never collide.
const SALT_TRANSPORT_READ: u64 = 0xFA13;
const SALT_TRANSPORT_WRITE: u64 = 0xFA14;
const SALT_STORE_GET: u64 = 0xFA15;
const SALT_STORE_PUT: u64 = 0xFA16;

/// A fresh PCG stream keyed by `(run seed, point salt, operation key)`.
/// Unlike the sequential per-point streams, a keyed stream depends only
/// on the operation's stable identity — never on how many draws other
/// operations made first — so draws made from concurrently-executing
/// tasks are dispatch-order-independent.
/// A pure function of `(seed, salt, key)`.
fn keyed_stream(seed: Seed, salt: u64, key: u64) -> Pcg32 {
    Pcg32::new(seed.keyed(salt).keyed(key))
}

/// FNV-1a over a byte string — the helper callers use to turn a stable
/// operation identity (e.g. an object-store key) into a keyed-draw key.
pub fn op_key(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl FaultPlan {
    /// Compile a validated spec into a plan seeded for one run.
    pub fn compile(spec: &FaultSpec, seed: u64) -> Result<Self, FaultError> {
        spec.validate()?;
        #[expect(
            clippy::disallowed_methods,
            reason = "mint: the fault plan receives the RunSpec seed"
        )]
        let seed = Seed::root(seed);
        Ok(FaultPlan {
            spec: spec.clone(),
            seed,
            spot: stream(seed, 0xFA01),
            pool: stream(seed, 0xFA02),
            store_get: stream(seed, 0xFA03),
            store_put: stream(seed, 0xFA04),
            straggler: stream(seed, 0xFA06),
            storm: ReclaimStorm::compile(&spec.environment, seed),
        })
    }

    /// The spec this plan was compiled from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Spot-reclaim draw for a task occupying a VM for `task_seconds`
    /// from `now_s`: `Some(fraction)` means the VM is reclaimed that
    /// fraction of the way through the task. Inside a reclaim-storm
    /// window the hazard is `max(base, storm)`.
    pub fn vm_interrupt_at(&mut self, now_s: u64, task_seconds: f64) -> Option<f64> {
        let base = self.spec.spot_reclaims_per_vm_hour;
        let rate = match &self.storm {
            Some(storm) => storm.rate_at(now_s, base),
            None => base,
        };
        if rate <= 0.0 || task_seconds <= 0.0 {
            return None;
        }
        let p = 1.0 - (-rate * task_seconds / 3600.0).exp();
        if self.spot.gen_bool(p) {
            Some(self.spot.gen_range(0.0..1.0))
        } else {
            None
        }
    }

    /// Whether `now_s` falls inside a compiled reclaim storm.
    /// A pure function of `(self, now_s)`.
    pub fn in_storm(&self, now_s: u64) -> bool {
        self.storm.as_ref().is_some_and(|s| s.in_storm(now_s))
    }

    /// Decide one elastic-pool invoke attempt.
    pub fn pool_invoke(&mut self) -> PoolDecision {
        let fail = self.spec.pool_invoke_failure_rate;
        let throttle = self.spec.pool_throttle_rate;
        if fail > 0.0 && self.pool.gen_bool(fail) {
            return PoolDecision::Fail;
        }
        if throttle > 0.0 && self.pool.gen_bool(throttle) {
            return PoolDecision::Throttle {
                delay_ms: self.spec.pool_throttle_ms,
            };
        }
        PoolDecision::Proceed
    }

    /// Straggler draw for one task: `Some(slowdown)` multiplies its
    /// runtime.
    pub fn straggler(&mut self) -> Option<f64> {
        let rate = self.spec.straggler_rate;
        if rate > 0.0 && self.straggler.gen_bool(rate) {
            Some(self.spec.straggler_slowdown)
        } else {
            None
        }
    }
}

/// What a keyed draw reads. Fixed once the handle is instrumented, so
/// tasks share it without a lock.
#[derive(Debug, Clone)]
struct Keyed {
    seed: Seed,
    spec: FaultSpec,
    policy: RecoveryPolicy,
    telemetry: Telemetry,
}

impl Keyed {
    /// Total attempts needed for one store request under injected
    /// transient errors, drawn from `rng`: `1` plus up to `max_retries`
    /// failed attempts (the transient clears within the bound —
    /// billing-wise every attempt is a billable request). Counts
    /// `fault.store_{get,put}_errors_total` per injected error and
    /// `recovery.retries_total` per retry. A zero rate draws nothing.
    fn store_attempts(&self, op: StoreOp, rng: &mut Pcg32) -> u64 {
        let (rate, counter) = match op {
            StoreOp::Get => (
                self.spec.store_get_error_rate,
                catalog::FAULT_STORE_GET_ERRORS_TOTAL,
            ),
            StoreOp::Put => (
                self.spec.store_put_error_rate,
                catalog::FAULT_STORE_PUT_ERRORS_TOTAL,
            ),
        };
        let mut failed = 0u32;
        while failed < self.policy.max_retries && rate > 0.0 && rng.gen_bool(rate) {
            failed += 1;
            self.telemetry.add(counter, 1);
            self.telemetry.add(catalog::RECOVERY_RETRIES_TOTAL, 1);
        }
        1 + failed as u64
    }
}

/// The keyed-only view of a fault plan: the handle task code, the object
/// store and the shuffle transport hold. Every draw it offers comes from
/// a fresh stream keyed by `(run seed, point, key)`, so the result
/// depends only on the operation's identity, never on dispatch order —
/// which is why this handle, unlike [`FaultInjector`], is `Send + Sync`
/// and may be captured by the executor's worker closures. Two operations
/// with the same `key` (e.g. two consumers GETting the same object) draw
/// identically — acceptable correlation for a fault model. Disabled by
/// default: every consultation is then a no-op.
#[derive(Debug, Clone, Default)]
pub struct TaskFaults {
    inner: Option<Arc<Keyed>>,
}

impl TaskFaults {
    /// Attempts (1 + injected transient failures, within the retry
    /// bound) for one store request identified by `key`; counts the same
    /// `fault.*` / `recovery.*` metrics as the coordinator's sequential
    /// [`FaultInjector::store_attempts`].
    pub fn store_attempts_keyed(&self, op: StoreOp, key: u64) -> u64 {
        let Some(k) = &self.inner else {
            return 1;
        };
        let salt = match op {
            StoreOp::Get => SALT_STORE_GET,
            StoreOp::Put => SALT_STORE_PUT,
        };
        k.store_attempts(op, &mut keyed_stream(k.seed, salt, key))
    }

    /// Decide whether the node-tier transport write identified by `key`
    /// falls back to the object store: the write is retried up to the
    /// policy bound and falls back only when every attempt is dropped.
    /// Counts `fault.transport_drops_total` per drop,
    /// `recovery.retries_total` per retry, and
    /// `recovery.transport_fallbacks_total` on fallback.
    pub fn transport_write_fallback_keyed(&self, key: u64) -> bool {
        let Some(k) = &self.inner else {
            return false;
        };
        let rate = k.spec.transport_drop_rate;
        if rate <= 0.0 {
            return false;
        }
        let mut rng = keyed_stream(k.seed, SALT_TRANSPORT_WRITE, key);
        let attempts = k.policy.max_retries.saturating_add(1);
        for attempt in 0..attempts {
            if !rng.gen_bool(rate) {
                return false;
            }
            k.telemetry.add(catalog::FAULT_TRANSPORT_DROPS_TOTAL, 1);
            if attempt + 1 < attempts {
                k.telemetry.add(catalog::RECOVERY_RETRIES_TOTAL, 1);
            }
        }
        k.telemetry
            .add(catalog::RECOVERY_TRANSPORT_FALLBACKS_TOTAL, 1);
        true
    }

    /// Number of retries the transport read identified by `key` needed
    /// before succeeding (bounded by the policy; a read always succeeds
    /// within the bound — drops are transient). Counts
    /// `fault.transport_drops_total` and `recovery.retries_total` per
    /// retry.
    pub fn transport_read_retries_keyed(&self, key: u64) -> u32 {
        let Some(k) = &self.inner else {
            return 0;
        };
        let rate = k.spec.transport_drop_rate;
        if rate <= 0.0 {
            return 0;
        }
        let mut rng = keyed_stream(k.seed, SALT_TRANSPORT_READ, key);
        let mut retries = 0u32;
        while retries < k.policy.max_retries && rng.gen_bool(rate) {
            retries += 1;
            k.telemetry.add(catalog::FAULT_TRANSPORT_DROPS_TOTAL, 1);
            k.telemetry.add(catalog::RECOVERY_RETRIES_TOTAL, 1);
        }
        retries
    }
}

/// The coordinator's handle to a compiled fault plan plus its recovery
/// policy, mirroring the `Telemetry` handle design: disabled handles
/// (the default) make every consultation a no-op, so the run loop
/// carries one unconditionally. Clones share the plan's sequential
/// streams, whose draw order is the (deterministic) event order — so the
/// handle is deliberately `!Sync` and `!Send` (`Rc<RefCell<..>>`): the
/// executor's worker closures cannot capture or clone one, and what
/// tasks get instead is the keyed-only [`TaskFaults`] view from
/// [`FaultInjector::keyed`].
///
/// Every injected fault and recovery step is counted through the
/// attached telemetry under `fault.*` / `recovery.*`.
#[derive(Clone, Default)]
pub struct FaultInjector {
    plan: Option<Rc<RefCell<FaultPlan>>>,
    tasks: TaskFaults,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.plan {
            Some(_) => f.write_str("FaultInjector(enabled)"),
            None => f.write_str("FaultInjector(disabled)"),
        }
    }
}

impl FaultInjector {
    /// An enabled handle over a compiled plan and policy.
    pub fn new(plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        let keyed = Keyed {
            seed: plan.seed,
            spec: plan.spec.clone(),
            policy,
            telemetry: Telemetry::disabled(),
        };
        FaultInjector {
            plan: Some(Rc::new(RefCell::new(plan))),
            tasks: TaskFaults {
                inner: Some(Arc::new(keyed)),
            },
        }
    }

    /// A disabled handle: every consultation is a no-op.
    pub fn disabled() -> Self {
        FaultInjector::default()
    }

    /// Attach a telemetry sink for `fault.*` / `recovery.*` counters.
    /// Call before taking clones or [`keyed`](FaultInjector::keyed)
    /// views — those taken earlier keep the sink they had; a disabled
    /// handle ignores this.
    pub fn instrumented(mut self, telemetry: &Telemetry) -> Self {
        if let Some(k) = &mut self.tasks.inner {
            Arc::make_mut(k).telemetry = telemetry.clone();
        }
        self
    }

    /// The keyed-only view of this plan for code that runs inside tasks
    /// (disabled when this handle is).
    pub fn keyed(&self) -> TaskFaults {
        self.tasks.clone()
    }

    /// Whether this handle injects anything.
    pub fn is_enabled(&self) -> bool {
        self.plan.is_some()
    }

    /// The sequential streams plus what every draw reads, when enabled.
    fn parts(&self) -> Option<(RefMut<'_, FaultPlan>, &Keyed)> {
        Some((
            self.plan.as_ref()?.borrow_mut(),
            self.tasks.inner.as_deref()?,
        ))
    }

    /// The recovery policy (defaults when disabled).
    pub fn policy(&self) -> RecoveryPolicy {
        self.tasks
            .inner
            .as_ref()
            .map_or_else(RecoveryPolicy::default, |k| k.policy)
    }

    /// Spot-reclaim draw for a task of `task_seconds` starting on a VM
    /// at `now_s`: the hazard rises to the storm rate inside a compiled
    /// reclaim-storm window. Counts `fault.spot_reclaims_total` on any
    /// hit and additionally `env.storm_reclaims_total` when the hit
    /// lands inside a storm.
    pub fn vm_interrupt_at(&self, now_s: u64, task_seconds: f64) -> Option<f64> {
        let (mut plan, k) = self.parts()?;
        let frac = plan.vm_interrupt_at(now_s, task_seconds)?;
        k.telemetry.add(catalog::FAULT_SPOT_RECLAIMS_TOTAL, 1);
        if plan.in_storm(now_s) {
            k.telemetry.add(catalog::ENV_STORM_RECLAIMS_TOTAL, 1);
        }
        Some(frac)
    }

    /// Persistent traits of VM `vm` — a pure keyed recompute, no
    /// telemetry (default traits when disabled).
    pub fn vm_traits(&self, vm: u64) -> VmTraits {
        self.tasks
            .inner
            .as_ref()
            .map(|k| k.spec.environment.vm_traits(k.seed, vm))
            .unwrap_or_default()
    }

    /// Record that VM `vm` started and return its persistent traits.
    /// With a zero-intensity environment this records nothing and
    /// returns default traits (the no-op contract); otherwise it
    /// observes the draw in the `env.vm_slowdown` histogram and counts
    /// `env.vms_total` / `env.remote_vms_total`.
    pub fn vm_started(&self, vm: u64) -> VmTraits {
        let Some(k) = &self.tasks.inner else {
            return VmTraits::default();
        };
        if k.spec.environment.is_zero() {
            return VmTraits::default();
        }
        let traits = k.spec.environment.vm_traits(k.seed, vm);
        k.telemetry
            .record(catalog::ENV_VM_SLOWDOWN, traits.slowdown);
        k.telemetry.add(catalog::ENV_VMS_TOTAL, 1);
        if traits.remote {
            k.telemetry.add(catalog::ENV_REMOTE_VMS_TOTAL, 1);
        }
        traits
    }

    /// The environment spec this injector was compiled from (zero when
    /// disabled).
    pub fn environment(&self) -> EnvironmentSpec {
        self.tasks
            .inner
            .as_ref()
            .map(|k| k.spec.environment.clone())
            .unwrap_or_default()
    }

    /// Straggler draw for one task; counts `fault.stragglers_total` on a
    /// hit.
    pub fn straggler(&self) -> Option<f64> {
        let (mut plan, k) = self.parts()?;
        let slowdown = plan.straggler()?;
        k.telemetry.add(catalog::FAULT_STRAGGLERS_TOTAL, 1);
        Some(slowdown)
    }

    /// Decide one pool invoke attempt; counts
    /// `fault.pool_invoke_failures_total` / `fault.pool_throttles_total`.
    pub fn pool_invoke(&self) -> PoolDecision {
        let Some((mut plan, k)) = self.parts() else {
            return PoolDecision::Proceed;
        };
        let decision = plan.pool_invoke();
        match decision {
            PoolDecision::Fail => k
                .telemetry
                .add(catalog::FAULT_POOL_INVOKE_FAILURES_TOTAL, 1),
            PoolDecision::Throttle { .. } => {
                k.telemetry.add(catalog::FAULT_POOL_THROTTLES_TOTAL, 1)
            }
            PoolDecision::Proceed => {}
        }
        decision
    }

    /// Attempts (1 + injected transient failures, within the retry
    /// bound) for the coordinator's next store request, drawn from the
    /// operation's sequential stream — serial code only. Same loop and
    /// counters as [`TaskFaults::store_attempts_keyed`].
    pub fn store_attempts(&self, op: StoreOp) -> u64 {
        let Some((mut plan, k)) = self.parts() else {
            return 1;
        };
        let rng = match op {
            StoreOp::Get => &mut plan.store_get,
            StoreOp::Put => &mut plan.store_put,
        };
        k.store_attempts(op, rng)
    }

    /// [`TaskFaults::store_attempts_keyed`] on this handle's keyed view.
    pub fn store_attempts_keyed(&self, op: StoreOp, key: u64) -> u64 {
        self.tasks.store_attempts_keyed(op, key)
    }

    /// Record a recovery retry scheduled by a runner (e.g. a pool invoke
    /// retry after backoff).
    pub fn note_retry(&self, backoff_ms: u64) {
        if let Some(k) = &self.tasks.inner {
            k.telemetry.add(catalog::RECOVERY_RETRIES_TOTAL, 1);
            k.telemetry
                .add(catalog::RECOVERY_BACKOFF_MS_TOTAL, backoff_ms);
        }
    }

    /// Record a task re-execution (e.g. after a spot reclaim).
    pub fn note_reexec(&self) {
        if let Some(k) = &self.tasks.inner {
            k.telemetry.add(catalog::RECOVERY_TASK_REEXECS_TOTAL, 1);
        }
    }

    /// Record a straggler duplicate launch.
    pub fn note_duplicate(&self) {
        if let Some(k) = &self.tasks.inner {
            k.telemetry
                .add(catalog::RECOVERY_DUPLICATES_LAUNCHED_TOTAL, 1);
        }
    }

    /// Record a duplicate finishing before its straggling primary.
    pub fn note_duplicate_win(&self) {
        if let Some(k) = &self.tasks.inner {
            k.telemetry.add(catalog::RECOVERY_DUPLICATE_WINS_TOTAL, 1);
        }
    }

    /// Record a fault that exhausted its recovery bound; the caller
    /// surfaces a typed error naming the injection point.
    pub fn note_unrecovered(&self, point: InjectionPoint) {
        if let Some(k) = &self.tasks.inner {
            k.telemetry.add(catalog::RECOVERY_UNRECOVERED_TOTAL, 1);
            k.telemetry.event(0, "fault.unrecovered", point.as_str());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_spec() -> FaultSpec {
        FaultSpec::default()
            .with_spot_reclaims(30.0)
            .with_pool_invoke_failures(0.3)
            .with_pool_throttles(0.3, 250)
            .with_store_errors(0.4, 0.4)
            .with_transport_drops(0.4)
            .with_stragglers(0.5, 3.0)
    }

    fn injector(spec: &FaultSpec, seed: u64) -> FaultInjector {
        FaultInjector::new(
            FaultPlan::compile(spec, seed).unwrap(),
            RecoveryPolicy::default(),
        )
    }

    #[test]
    fn zero_spec_is_inert_and_draw_free() {
        let plan = FaultPlan::compile(&FaultSpec::default(), 7).unwrap();
        let before = plan.clone();
        let inj = FaultInjector::new(plan, RecoveryPolicy::default());
        for k in 0..100 {
            assert_eq!(inj.vm_interrupt_at(k * 60, 1000.0), None);
            assert_eq!(inj.pool_invoke(), PoolDecision::Proceed);
            assert_eq!(inj.store_attempts(StoreOp::Get), 1);
            assert_eq!(inj.store_attempts(StoreOp::Put), 1);
            assert!(!inj.keyed().transport_write_fallback_keyed(k));
            assert_eq!(inj.keyed().transport_read_retries_keyed(k), 0);
            assert_eq!(inj.straggler(), None);
        }
        // No stream advanced: the zero plan made zero draws.
        let plan = inj.plan.as_ref().unwrap().borrow();
        assert_eq!(plan.spot, before.spot);
        assert_eq!(plan.pool, before.pool);
        assert_eq!(plan.store_get, before.store_get);
        assert_eq!(plan.store_put, before.store_put);
        assert_eq!(plan.straggler, before.straggler);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let inj = injector(&active_spec(), seed);
            let mut log = String::new();
            for k in 0..200 {
                log.push_str(&format!(
                    "{:?}|{:?}|{}|{}|{:?}\n",
                    inj.vm_interrupt_at(k * 60, 120.0),
                    inj.pool_invoke(),
                    inj.store_attempts(StoreOp::Get),
                    inj.keyed().transport_read_retries_keyed(k),
                    inj.straggler(),
                ));
            }
            log
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "seed change did not move the plan");
    }

    #[test]
    fn injection_points_draw_from_independent_streams() {
        // Drawing heavily at one point must not shift another point's
        // stream: interleaving store and transport draws between pool
        // draws leaves the pool decision sequence unchanged.
        let pool_only = |interleave: bool| {
            let inj = injector(&active_spec(), 5);
            let mut decisions = Vec::new();
            for k in 0..100 {
                if interleave {
                    let _ = inj.store_attempts(StoreOp::Get);
                    let _ = inj.keyed().transport_write_fallback_keyed(k);
                }
                decisions.push(inj.pool_invoke());
            }
            decisions
        };
        assert_eq!(pool_only(false), pool_only(true));
    }

    #[test]
    fn validate_rejects_out_of_range_knobs() {
        let bad = FaultSpec::default().with_pool_invoke_failures(0.99);
        assert!(matches!(
            bad.validate(),
            Err(FaultError::InvalidRate { knob, .. })
                if knob == "faults.pool_invoke_failure_rate"
        ));
        assert!(FaultSpec::default()
            .with_spot_reclaims(-1.0)
            .validate()
            .is_err());
        assert!(FaultSpec::default()
            .with_stragglers(0.5, 0.5)
            .validate()
            .is_err());
        assert!(FaultSpec::default()
            .with_store_errors(f64::NAN, 0.0)
            .validate()
            .is_err());
        assert!(active_spec().validate().is_ok());
        assert!(FaultPlan::compile(&bad, 1).is_err());
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let p = RecoveryPolicy::default().with_backoff(100, 3);
        assert_eq!(p.backoff_ms(0), 100);
        assert_eq!(p.backoff_ms(1), 300);
        assert_eq!(p.backoff_ms(2), 900);
        let huge = RecoveryPolicy::default().with_backoff(u64::MAX / 2, 4);
        assert_eq!(huge.backoff_ms(40), u64::MAX); // saturates, no overflow
        let flat = RecoveryPolicy::default().with_backoff(50, 1);
        assert_eq!(flat.backoff_ms(7), 50);
        assert!(p.allows_retry(0));
        assert!(!p.allows_retry(p.max_retries));
        assert!(RecoveryPolicy::default().validate().is_ok());
        assert!(RecoveryPolicy::default()
            .with_duplicates(true, 0.5)
            .validate()
            .is_err());
    }

    #[test]
    fn store_attempts_bounded_by_policy() {
        let spec = FaultSpec::default().with_store_errors(0.95, 0.95);
        let policy = RecoveryPolicy::default().with_max_retries(3);
        let inj = FaultInjector::new(FaultPlan::compile(&spec, 9).unwrap(), policy);
        for _ in 0..500 {
            let attempts = inj.store_attempts(StoreOp::Get);
            assert!((1..=4).contains(&attempts), "attempts {attempts}");
        }
    }

    #[test]
    fn transport_recovery_is_bounded() {
        let spec = FaultSpec::default().with_transport_drops(0.95);
        let policy = RecoveryPolicy::default().with_max_retries(2);
        let tasks = FaultInjector::new(FaultPlan::compile(&spec, 11).unwrap(), policy).keyed();
        let mut fallbacks = 0;
        for k in 0..500 {
            assert!(tasks.transport_read_retries_keyed(k) <= 2);
            if tasks.transport_write_fallback_keyed(k) {
                fallbacks += 1;
            }
        }
        assert!(fallbacks > 0, "0.95^3 drops should force some fallbacks");
    }

    #[test]
    fn keyed_draws_depend_only_on_the_operation_key() {
        // The parallel-dispatch contract: a keyed draw's outcome is a pure
        // function of (seed, point, key). Interleaving draws for other
        // keys — as concurrent tasks would — must not move it.
        let inj = || injector(&active_spec(), 33).keyed();
        let a = inj();
        let direct: Vec<u32> = (0..50).map(|k| a.transport_read_retries_keyed(k)).collect();
        let b = inj();
        let interleaved: Vec<u32> = (0..50)
            .rev()
            .map(|k| {
                let _ = b.store_attempts_keyed(StoreOp::Get, k * 7 + 1000);
                let _ = b.transport_write_fallback_keyed(k + 5000);
                b.transport_read_retries_keyed(k)
            })
            .collect();
        let mut reversed = interleaved.clone();
        reversed.reverse();
        assert_eq!(direct, reversed, "keyed draws moved with dispatch order");
        // Distinct keys must actually vary the outcome somewhere, or the
        // keying is vacuous.
        assert!(
            direct.iter().any(|&r| r > 0),
            "0.4 drop rate over 50 keys should hit at least once"
        );
        // Same key twice: identical result (and the sequential streams
        // are untouched by keyed draws).
        assert_eq!(
            a.store_attempts_keyed(StoreOp::Put, 99),
            inj().store_attempts_keyed(StoreOp::Put, 99)
        );
    }

    #[test]
    fn keyed_draws_leave_sequential_streams_untouched() {
        let plan = FaultPlan::compile(&active_spec(), 12).unwrap();
        let before = plan.clone();
        let inj = FaultInjector::new(plan, RecoveryPolicy::default());
        for k in 0..20 {
            let _ = inj.store_attempts_keyed(StoreOp::Get, k);
            let _ = inj.keyed().store_attempts_keyed(StoreOp::Put, k);
            let _ = inj.keyed().transport_read_retries_keyed(k);
        }
        let plan = inj.plan.as_ref().unwrap().borrow();
        assert_eq!(plan.store_get, before.store_get);
        assert_eq!(plan.store_put, before.store_put);
    }

    #[test]
    fn keyed_draws_are_zero_rate_noops() {
        let t = Telemetry::new();
        let inj = FaultInjector::new(
            FaultPlan::compile(&FaultSpec::default(), 3).unwrap(),
            RecoveryPolicy::default(),
        )
        .instrumented(&t)
        .keyed();
        for k in 0..50 {
            assert_eq!(inj.store_attempts_keyed(StoreOp::Get, k), 1);
            assert_eq!(inj.store_attempts_keyed(StoreOp::Put, k), 1);
            assert!(!inj.transport_write_fallback_keyed(k));
            assert_eq!(inj.transport_read_retries_keyed(k), 0);
        }
        assert_eq!(t.export_jsonl().lines().count(), 1, "only the meta line");
    }

    #[test]
    fn op_key_is_stable_and_spreads() {
        assert_eq!(op_key(b""), 0xcbf29ce484222325);
        assert_eq!(
            op_key(b"shuffle/q1/s2/p3/t4"),
            op_key(b"shuffle/q1/s2/p3/t4")
        );
        assert_ne!(
            op_key(b"shuffle/q1/s2/p3/t4"),
            op_key(b"shuffle/q1/s2/p3/t5")
        );
    }

    #[test]
    fn environment_only_spec_is_not_a_noop() {
        // The environment knobs participate in is_zero: a spec with only
        // heterogeneity set must not be treated as inert.
        let spec = FaultSpec::default()
            .with_environment(EnvironmentSpec::default().with_vm_heterogeneity(0.3, 2.0, 0.5));
        assert!(!spec.is_zero());
        assert!(FaultSpec::default().is_zero());
        // Environment knobs are validated through the fault spec:
        // compile rejects a negative spread with a typed error.
        let bad = FaultSpec::default()
            .with_environment(EnvironmentSpec::default().with_vm_heterogeneity(0.3, 2.0, -1.0));
        assert!(matches!(
            FaultPlan::compile(&bad, 1),
            Err(FaultError::InvalidRate { knob, .. }) if knob == "env.vm_slowdown_spread"
        ));
    }

    #[test]
    fn storms_raise_the_reclaim_hazard_and_count_in_telemetry() {
        let t = Telemetry::new();
        let spec = FaultSpec::default()
            .with_environment(EnvironmentSpec::default().with_reclaim_storms(24.0, 1800, 240.0));
        let inj = FaultInjector::new(
            FaultPlan::compile(&spec, 23).unwrap(),
            RecoveryPolicy::default(),
        )
        .instrumented(&t);
        // Base rate is zero, so every reclaim comes from a storm.
        let mut hits = 0;
        for s in 0..3600 {
            if inj.vm_interrupt_at(s, 60.0).is_some() {
                hits += 1;
            }
        }
        assert!(hits > 0, "240/vm-hour inside 1800 s storms must fire");
        assert_eq!(t.counter("env.storm_reclaims_total"), hits);
        assert_eq!(t.counter("fault.spot_reclaims_total"), hits);
    }

    #[test]
    fn vm_started_is_silent_for_zero_environments() {
        let t = Telemetry::new();
        let inj = FaultInjector::new(
            FaultPlan::compile(&FaultSpec::default().with_spot_reclaims(5.0), 3).unwrap(),
            RecoveryPolicy::default(),
        )
        .instrumented(&t);
        // Zero environment: default traits, nothing recorded.
        assert_eq!(inj.vm_started(7), VmTraits::default());
        assert_eq!(t.export_jsonl().lines().count(), 1, "only the meta line");
        // Active environment: traits recorded and pure.
        let t2 = Telemetry::new();
        let env = EnvironmentSpec::default().with_vm_heterogeneity(1.0, 3.0, 0.0);
        let inj2 = FaultInjector::new(
            FaultPlan::compile(&FaultSpec::default().with_environment(env), 3).unwrap(),
            RecoveryPolicy::default(),
        )
        .instrumented(&t2);
        let traits = inj2.vm_started(7);
        assert_eq!(traits.slowdown, 3.0);
        assert_eq!(inj2.vm_traits(7), traits);
        assert_eq!(t2.counter("env.vms_total"), 1);
    }

    #[test]
    fn disabled_injector_is_a_noop() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        assert_eq!(inj.pool_invoke(), PoolDecision::Proceed);
        assert_eq!(inj.store_attempts(StoreOp::Put), 1);
        assert_eq!(inj.store_attempts_keyed(StoreOp::Get, 7), 1);
        // The same view, not just the same answers: `execute_query` hands
        // tasks `FaultInjector::disabled().keyed()` for the default.
        assert!(inj.keyed().inner.is_none() && TaskFaults::default().inner.is_none());
        for tasks in [inj.keyed(), TaskFaults::default()] {
            assert_eq!(tasks.store_attempts_keyed(StoreOp::Get, 7), 1);
            assert!(!tasks.transport_write_fallback_keyed(7));
            assert_eq!(tasks.transport_read_retries_keyed(7), 0);
        }
        assert_eq!(inj.straggler(), None);
        assert_eq!(inj.policy(), RecoveryPolicy::default());
        assert_eq!(inj.vm_interrupt_at(100, 1000.0), None);
        assert_eq!(inj.vm_traits(3), VmTraits::default());
        assert_eq!(inj.vm_started(3), VmTraits::default());
        assert!(inj.environment().is_zero());
    }

    #[test]
    fn injector_counts_faults_and_recoveries() {
        let t = Telemetry::new();
        let spec = FaultSpec::default()
            .with_pool_invoke_failures(0.95)
            .with_store_errors(0.95, 0.0);
        let inj = FaultInjector::new(
            FaultPlan::compile(&spec, 21).unwrap(),
            RecoveryPolicy::default(),
        )
        .instrumented(&t);
        for _ in 0..50 {
            let _ = inj.pool_invoke();
            let _ = inj.store_attempts(StoreOp::Get);
        }
        inj.note_retry(250);
        inj.note_duplicate();
        inj.note_duplicate_win();
        inj.note_reexec();
        inj.note_unrecovered(InjectionPoint::PoolInvoke);
        assert!(t.counter("fault.pool_invoke_failures_total") > 0);
        assert!(t.counter("fault.store_get_errors_total") > 0);
        assert!(t.counter("recovery.retries_total") > 0);
        assert_eq!(t.counter("recovery.backoff_ms_total"), 250);
        assert_eq!(t.counter("recovery.duplicates_launched_total"), 1);
        assert_eq!(t.counter("recovery.duplicate_wins_total"), 1);
        assert_eq!(t.counter("recovery.task_reexecs_total"), 1);
        assert_eq!(t.counter("recovery.unrecovered_total"), 1);
    }
}
