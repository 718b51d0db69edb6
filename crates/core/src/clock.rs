//! The strategy clock (§4.4.4): the one place a provisioning strategy is
//! driven, shared by the analytical model and the run loop.
//!
//! The clock owns the [`WorkloadHistory`], the whole-second tick, the
//! target in force, the cursor over the run's [`PriceTimeline`] and the
//! `run.demand` / `run.target` / `run.active` samples. A runner calls
//! [`StrategyClock::second`] once per simulated second with that second's
//! demand, in this order: the demand is pushed; if the market stepped,
//! the strategy is repriced and the new rates handed back; on a tick
//! second the strategy picks a new target. Because both runners go
//! through it, a run's recorded `run.demand` fed to a fresh strategy
//! reproduces its `run.target` exactly.

use crate::config::Env;
use crate::history::WorkloadHistory;
use crate::spec::RunSpec;
use crate::strategy::ProvisioningStrategy;
use cackle_faults::PriceTimeline;
use cackle_telemetry::{catalog, Telemetry};

/// What one second changed.
pub(crate) struct Second {
    /// The market stepped: the new `(vm, pool)` per-second rates, which
    /// the strategy already holds.
    pub rates: Option<(f64, f64)>,
    /// A tick second: the strategy's new target, now in force.
    pub target: Option<u32>,
}

/// One strategy's view of a run, one whole second at a time.
pub(crate) struct StrategyClock<'a> {
    strategy: &'a mut dyn ProvisioningStrategy,
    env: &'a Env,
    history: WorkloadHistory,
    /// Seconds per strategy decision; `RunSpec::validate` rejects a zero
    /// or fractional tick, and an unvalidated one rounds down to at least
    /// one second.
    tick: u64,
    target: u32,
    timeline: PriceTimeline,
    /// The VM multiplier (per mille) the strategy was last priced at.
    milli: u32,
    /// The next second the market may step.
    next_change: Option<u64>,
    telemetry: Telemetry,
}

impl<'a> StrategyClock<'a> {
    /// A clock at second 0, handing `strategy` the spec's telemetry sink.
    /// Strategies start at the base rate (1000‰); the rate in force at
    /// second 0 applies before the first decision.
    pub(crate) fn new(
        strategy: &'a mut dyn ProvisioningStrategy,
        spec: &'a RunSpec,
        timeline: PriceTimeline,
    ) -> Self {
        let telemetry = spec.telemetry.clone();
        strategy.set_telemetry(&telemetry);
        StrategyClock {
            strategy,
            env: &spec.env,
            history: WorkloadHistory::new(),
            tick: spec.env.strategy_tick.as_secs().max(1),
            target: 0,
            timeline,
            milli: 1000,
            next_change: Some(0),
            telemetry,
        }
    }

    /// Advance one second whose peak demand was `demand` tasks.
    pub(crate) fn second(&mut self, demand: u32) -> Second {
        let t = self.seconds();
        let env = self.env;
        self.history.push(demand);
        let mut rates = None;
        if self.next_change.is_some_and(|at| t >= at) {
            let milli = self.timeline.multiplier_milli(t);
            if milli != self.milli {
                self.milli = milli;
                let (vm, pool) = (env.pricing.vm_per_sec_at(milli), env.pricing.pool_per_sec());
                self.strategy.on_rates_changed(vm, pool);
                rates = Some((vm, pool));
            }
            self.next_change = self.timeline.next_change_after(t);
        }
        let mut target = None;
        if t.is_multiple_of(self.tick) {
            self.target = self.strategy.target(t, &self.history, env);
            target = Some(self.target);
        }
        Second { rates, target }
    }

    /// Sample the second just advanced: its demand, the target in force
    /// and the `active` VMs the runner's fleet has running.
    pub(crate) fn record(&self, active: usize) {
        if self.telemetry.is_enabled() {
            let t_ms = self.seconds().saturating_sub(1) * 1000;
            let demand = self.history.latest();
            self.telemetry
                .sample(catalog::RUN_DEMAND, t_ms, demand as f64);
            self.telemetry
                .sample(catalog::RUN_TARGET, t_ms, self.target as f64);
            self.telemetry
                .sample(catalog::RUN_ACTIVE, t_ms, active as f64);
        }
    }

    /// The target in force.
    pub(crate) fn target(&self) -> u32 {
        self.target
    }

    /// Seconds advanced so far.
    pub(crate) fn seconds(&self) -> u64 {
        self.history.len() as u64
    }

    /// The strategy's display name.
    pub(crate) fn strategy_name(&self) -> String {
        self.strategy.name()
    }
}
