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
//!    bounded retry, duplicate launch with first-wins, task
//!    re-execution — or surfaced as a typed error by the caller. Never
//!    a panic (`[lints.clippy]` in this crate's manifest denies
//!    `unwrap`, `expect` and `panic!`). Every retried point follows one
//!    rule: `max_retries` retries after the first attempt, and an
//!    operation whose `max_retries + 1` attempts all fail has one stated
//!    outcome — a transport write falls back to the object store; a
//!    store request or a pool invoke ends the run with
//!    `RunError::FaultUnrecovered`. Nothing succeeds silently at the
//!    bound.
//! 4. **Free when disabled.** Both handles are a cheap `Option` around
//!    shared state, mirroring `Telemetry`: hot paths carry one
//!    unconditionally and a disabled handle costs one branch.
//! 5. **Phases are types.** The coordinator holds a [`FaultInjector`]:
//!    every draw, sequential ones included, and `!Sync`, so a worker
//!    closure cannot capture it. The object store and the shuffle
//!    transport, which tasks reach concurrently, hold its [`TaskFaults`] view
//!    ([`FaultInjector::keyed`]), which has only the draws keyed by the
//!    operation's identity — the ones whose result cannot depend on
//!    which thread got there first. Every object-store request of every
//!    task runner — a live task's, or a replayed stage's modeled one —
//!    draws its retries there, and the store attributes the retried
//!    attempts to the `recovery` cost component. The keyed points share
//!    one bounded draw; what they write back is only the exhaustion
//!    record the coordinator reads ([`FaultInjector::keyed_exhaustion`]).
//!
//! Injected faults and recoveries are counted through `cackle-telemetry`
//! under the `fault.*` / `recovery.*` prefixes (DESIGN.md §8 tabulates
//! the full set).

use cackle_prng::{Pcg32, Seed};
use cackle_telemetry::catalog::{self, Counter};
use cackle_telemetry::Telemetry;
use std::cell::{RefCell, RefMut};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU8, Ordering};
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
    /// Shuffle transport drop of a node-tier write.
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
/// injection point never draws and never records a metric. A per-attempt
/// rate `p` under [`RecoveryPolicy::max_retries`] `r` fails an operation
/// outright with probability `p^(r + 1)`; a plan that must complete keeps
/// the sum of that over its operations at or below 1e-6 (DESIGN §8).
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
    /// Probability a node-tier shuffle write attempt is dropped in
    /// transit (per attempt, `[0, 0.95]`). Reads draw no drops.
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
/// deterministic exponential backoff, and a duplicate launch of every
/// detected straggler on the pool, first copy wins. Only the retry bound
/// is a knob; the backoff and the straggler patience are constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per operation after its first attempt, at every retried
    /// point. An operation is lost only when all `max_retries + 1`
    /// attempts fail: a transport write then falls back to the object
    /// store, and a store request or a pool invoke ends the run with a
    /// typed error.
    pub max_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_retries: 4 }
    }
}

impl RecoveryPolicy {
    /// Backoff before the first retry, in simulated milliseconds.
    pub const BACKOFF_BASE_MS: u64 = 250;
    /// Backoff growth per retry: retry `n` waits
    /// `BACKOFF_BASE_MS · BACKOFF_MULTIPLIER^min(n, 32)` (no jitter).
    pub const BACKOFF_MULTIPLIER: u64 = 2;
    /// A task is declared a straggler, and duplicated, once it runs past
    /// `nominal_duration · STRAGGLER_PATIENCE`.
    pub const STRAGGLER_PATIENCE: f64 = 1.25;

    /// Builder: retry bound.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Deterministic backoff before retry number `attempt` (0-based).
    /// The exponent stops at 32, so the product cannot overflow.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        Self::BACKOFF_BASE_MS * Self::BACKOFF_MULTIPLIER.pow(attempt.min(32))
    }

    /// Whether retry number `attempt` (0-based) is within the bound.
    pub fn allows_retry(&self, attempt: u32) -> bool {
        attempt < self.max_retries
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
/// salts (0xFA01, 0xFA02, 0xFA06) so keyed and sequential draws never
/// collide.
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

/// What a keyed draw reads, fixed once the handle is instrumented so
/// tasks share it without a lock, and the one thing keyed draws write:
/// the lowest injection point (`as u8`) at which an operation failed
/// every attempt, `NO_POINT` while none has, shared by every view.
#[derive(Debug, Clone)]
struct Keyed {
    seed: Seed,
    spec: FaultSpec,
    policy: RecoveryPolicy,
    telemetry: Telemetry,
    exhausted: Arc<AtomicU8>,
}

/// [`Keyed::exhausted`] before any keyed operation failed every attempt.
const NO_POINT: u8 = u8::MAX;

/// The keyed-only view of a fault plan: the handle the object store and
/// the shuffle transport hold. Every draw it offers is the one
/// bounded retry (at most `max_retries + 1` attempts) on a fresh stream
/// keyed by `(run seed, point, key)`, so the result
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

impl Keyed {
    /// The one bounded retry of every keyed fault point: attempt the
    /// operation `key` until an attempt clears, at most `max_retries + 1`
    /// times, each attempt failing with probability `rate`. Every failed
    /// attempt counts `fault` and every retry `recovery.retries_total`.
    /// Returns the attempts made, or [`Exhausted`] when all of them
    /// failed. A zero rate draws nothing and takes one attempt.
    fn bounded(&self, rate: f64, salt: u64, key: u64, fault: Counter) -> Result<u64, Exhausted> {
        if rate <= 0.0 {
            return Ok(1);
        }
        let mut rng = keyed_stream(self.seed, salt, key);
        let retries = u64::from(self.policy.max_retries);
        for attempt in 1..=retries + 1 {
            if !rng.gen_bool(rate) {
                return Ok(attempt);
            }
            self.telemetry.add(fault, 1);
            if attempt <= retries {
                self.telemetry.add(catalog::RECOVERY_RETRIES_TOTAL, 1);
            }
        }
        Err(Exhausted)
    }
}

/// Every attempt of a keyed operation failed.
struct Exhausted;

impl TaskFaults {
    /// Billed attempts for one store request identified by `key` under
    /// injected transient errors: the attempts of the one bounded retry,
    /// `max_retries + 1` when every attempt failed — S3 bills errored
    /// requests too. Such a request is not recovered: it records
    /// `store.get` / `store.put` on the plan's shared handle (the lowest
    /// point wins, so the record does not depend on which task got there
    /// first), and the run loop ends the run with
    /// `RunError::FaultUnrecovered` after the event that made it. Counts
    /// `fault.store_{get,put}_errors_total` per failed attempt and
    /// `recovery.retries_total` per retry.
    pub fn store_attempts_keyed(&self, op: StoreOp, key: u64) -> u64 {
        let Some(k) = &self.inner else {
            return 1;
        };
        let (point, rate, salt, counter) = match op {
            StoreOp::Get => (
                InjectionPoint::StoreGet,
                k.spec.store_get_error_rate,
                SALT_STORE_GET,
                catalog::FAULT_STORE_GET_ERRORS_TOTAL,
            ),
            StoreOp::Put => (
                InjectionPoint::StorePut,
                k.spec.store_put_error_rate,
                SALT_STORE_PUT,
                catalog::FAULT_STORE_PUT_ERRORS_TOTAL,
            ),
        };
        k.bounded(rate, salt, key, counter)
            .unwrap_or_else(|Exhausted| {
                k.exhausted.fetch_min(point as u8, Ordering::AcqRel);
                u64::from(k.policy.max_retries) + 1
            })
    }

    /// Whether the node-tier transport write identified by `key` falls
    /// back to the object store: it does when every attempt of the one
    /// bounded retry is dropped. Counts `fault.transport_drops_total` per
    /// drop, `recovery.retries_total` per retry, and
    /// `recovery.transport_fallbacks_total` on fallback.
    pub fn transport_write_fallback_keyed(&self, key: u64) -> bool {
        let Some(k) = &self.inner else {
            return false;
        };
        let drops = catalog::FAULT_TRANSPORT_DROPS_TOTAL;
        let rate = k.spec.transport_drop_rate;
        let fallback = k.bounded(rate, SALT_TRANSPORT_WRITE, key, drops).is_err();
        if fallback {
            k.telemetry
                .add(catalog::RECOVERY_TRANSPORT_FALLBACKS_TOTAL, 1);
        }
        fallback
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
            exhausted: Arc::new(AtomicU8::new(NO_POINT)),
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

    /// The lowest injection point at which a keyed operation of this
    /// plan — a store request from any task or view — has failed every
    /// attempt. The coordinator asks after each event and ends the run
    /// with a typed error.
    pub fn keyed_exhaustion(&self) -> Option<InjectionPoint> {
        let code = self.tasks.inner.as_ref()?.exhausted.load(Ordering::Acquire);
        [InjectionPoint::StoreGet, InjectionPoint::StorePut]
            .into_iter()
            .find(|&point| point as u8 == code)
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
            assert_eq!(inj.store_attempts_keyed(StoreOp::Get, k), 1);
            assert_eq!(inj.store_attempts_keyed(StoreOp::Put, k), 1);
            assert!(!inj.keyed().transport_write_fallback_keyed(k));
            assert_eq!(inj.straggler(), None);
        }
        // No stream advanced: the zero plan made zero draws.
        let plan = inj.plan.as_ref().unwrap().borrow();
        assert_eq!(plan.spot, before.spot);
        assert_eq!(plan.pool, before.pool);
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
                    inj.store_attempts_keyed(StoreOp::Get, k),
                    inj.keyed().transport_write_fallback_keyed(k),
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
                    let _ = inj.store_attempts_keyed(StoreOp::Get, k);
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
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_ms(0), 250);
        for attempt in 0..32 {
            assert_eq!(p.backoff_ms(attempt + 1), 2 * p.backoff_ms(attempt));
        }
        // The exponent is capped at 32: later retries wait no longer.
        assert_eq!(p.backoff_ms(32), 250 << 32);
        assert_eq!(p.backoff_ms(u32::MAX), p.backoff_ms(32));
        assert!(p.allows_retry(0));
        assert!(!p.allows_retry(p.max_retries));
    }

    #[test]
    fn store_attempts_bounded_by_policy() {
        let spec = FaultSpec::default().with_store_errors(0.95, 0.95);
        let policy = RecoveryPolicy::default().with_max_retries(3);
        let inj = FaultInjector::new(FaultPlan::compile(&spec, 9).unwrap(), policy);
        for k in 0..500 {
            let attempts = inj.store_attempts_keyed(StoreOp::Get, k);
            assert!((1..=4).contains(&attempts), "attempts {attempts}");
        }
    }

    #[test]
    fn every_point_allows_max_retries_and_counts_the_same() {
        // Rate 0.95 at 2 retries: most operations fail all three
        // attempts. Per operation, each failed attempt counts a fault and
        // each retry a `recovery.retries_total`; an exhausted one bills
        // three attempts, three faults and two retries.
        let t = Telemetry::new();
        let spec = FaultSpec::default()
            .with_store_errors(0.95, 0.0)
            .with_transport_drops(0.95);
        let policy = RecoveryPolicy::default().with_max_retries(2);
        let inj =
            FaultInjector::new(FaultPlan::compile(&spec, 11).unwrap(), policy).instrumented(&t);
        let tasks = inj.keyed();
        let (mut attempts, mut fallbacks) = (0, 0);
        for k in 0..500 {
            let a = tasks.store_attempts_keyed(StoreOp::Get, k);
            assert!((1..=3).contains(&a), "attempts {a}");
            attempts += a;
            fallbacks += u64::from(tasks.transport_write_fallback_keyed(k));
        }
        assert!(fallbacks > 0, "0.95^3 drops should force some fallbacks");
        let errors = t.counter("fault.store_get_errors_total");
        let drops = t.counter("fault.transport_drops_total");
        // Failed store attempts: all but the one that cleared, and all
        // three of an exhausted request.
        let exhausted = errors + 500 - attempts;
        assert!(exhausted > 0 && exhausted <= 500);
        let retries = (errors - exhausted) + (drops - fallbacks);
        assert_eq!(t.counter("recovery.retries_total"), retries);
        assert_eq!(t.counter("recovery.transport_fallbacks_total"), fallbacks);
        // Only the store's exhaustion is recorded; the writes fell back.
        assert_eq!(inj.keyed_exhaustion(), Some(InjectionPoint::StoreGet));
        assert_eq!(t.counter("recovery.unrecovered_total"), 0);
    }

    #[test]
    fn recovered_operations_never_record_an_exhaustion() {
        let spec = FaultSpec::default()
            .with_store_errors(0.4, 0.4)
            .with_transport_drops(0.95);
        let policy = RecoveryPolicy::default().with_max_retries(40);
        let inj = FaultInjector::new(FaultPlan::compile(&spec, 5).unwrap(), policy);
        for k in 0..500 {
            let _ = inj.store_attempts_keyed(StoreOp::Get, k);
            let _ = inj.store_attempts_keyed(StoreOp::Put, k);
        }
        assert_eq!(inj.keyed_exhaustion(), None);
        // A transport write that falls back records nothing either.
        let dropped = FaultInjector::new(
            FaultPlan::compile(&spec, 5).unwrap(),
            RecoveryPolicy::default().with_max_retries(0),
        );
        assert!((0..500).any(|k| dropped.keyed().transport_write_fallback_keyed(k)));
        assert_eq!(dropped.keyed_exhaustion(), None);
    }

    #[test]
    fn the_lowest_exhausted_point_wins_in_any_order() {
        // Every request fails every attempt at 0 retries and rate 0.95
        // often enough; whichever op exhausts first, GET is recorded.
        let spec = FaultSpec::default().with_store_errors(0.95, 0.95);
        let policy = RecoveryPolicy::default().with_max_retries(0);
        for ops in [[StoreOp::Put, StoreOp::Get], [StoreOp::Get, StoreOp::Put]] {
            let inj = FaultInjector::new(FaultPlan::compile(&spec, 3).unwrap(), policy);
            for op in ops {
                for k in 0..20 {
                    let _ = inj.keyed().store_attempts_keyed(op, k);
                }
            }
            assert_eq!(inj.keyed_exhaustion(), Some(InjectionPoint::StoreGet));
        }
    }

    #[test]
    fn keyed_draws_depend_only_on_the_operation_key() {
        // The parallel-dispatch contract: a keyed draw's outcome is a pure
        // function of (seed, point, key). Interleaving draws for other
        // keys — as concurrent tasks would — must not move it.
        let inj = || injector(&active_spec(), 33).keyed();
        let a = inj();
        let direct: Vec<u64> = (0..50)
            .map(|k| a.store_attempts_keyed(StoreOp::Get, k))
            .collect();
        let b = inj();
        let interleaved: Vec<u64> = (0..50)
            .rev()
            .map(|k| {
                let _ = b.store_attempts_keyed(StoreOp::Put, k * 7 + 1000);
                let _ = b.transport_write_fallback_keyed(k + 5000);
                b.store_attempts_keyed(StoreOp::Get, k)
            })
            .collect();
        let mut reversed = interleaved.clone();
        reversed.reverse();
        assert_eq!(direct, reversed, "keyed draws moved with dispatch order");
        // Distinct keys must actually vary the outcome somewhere, or the
        // keying is vacuous.
        assert!(
            direct.iter().any(|&r| r > 1),
            "0.4 error rate over 50 keys should hit at least once"
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
            let _ = inj.keyed().transport_write_fallback_keyed(k);
        }
        let plan = inj.plan.as_ref().unwrap().borrow();
        assert_eq!(plan.spot, before.spot);
        assert_eq!(plan.pool, before.pool);
        assert_eq!(plan.straggler, before.straggler);
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
        assert_eq!(inj.store_attempts_keyed(StoreOp::Put, 7), 1);
        assert_eq!(inj.store_attempts_keyed(StoreOp::Get, 7), 1);
        // The same view, not just the same answers: `execute_query` hands
        // tasks `FaultInjector::disabled().keyed()` for the default.
        assert!(inj.keyed().inner.is_none() && TaskFaults::default().inner.is_none());
        for tasks in [inj.keyed(), TaskFaults::default()] {
            assert_eq!(tasks.store_attempts_keyed(StoreOp::Get, 7), 1);
            assert!(!tasks.transport_write_fallback_keyed(7));
        }
        assert_eq!(inj.straggler(), None);
        assert_eq!(inj.policy(), RecoveryPolicy::default());
        assert_eq!(inj.vm_interrupt_at(100, 1000.0), None);
        assert_eq!(inj.vm_traits(3), VmTraits::default());
        assert_eq!(inj.vm_started(3), VmTraits::default());
        assert!(inj.environment().is_zero());
        assert_eq!(inj.keyed_exhaustion(), None);
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
        for k in 0..50 {
            let _ = inj.pool_invoke();
            let _ = inj.store_attempts_keyed(StoreOp::Get, k);
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
