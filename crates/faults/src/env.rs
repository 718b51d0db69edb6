//! # Environment model — persistent heterogeneity, market motion, regions
//!
//! Fault injection (`lib.rs`) covers *transient* failures: a straggler
//! slows one task, a 5xx fails one request. Real clouds additionally
//! exhibit *persistent* environmental diversity — a slow VM stays slow
//! for its whole lifetime, spot prices drift interval by interval,
//! reclaim rates spike in storms, and a second region bills at a
//! different rate plus cross-region egress. [`EnvironmentSpec`] is the
//! seeded description of that diversity; it compiles (with the run
//! seed) into three pure, keyed-draw artifacts:
//!
//! - [`VmTraits`] — per-VM persistent slowdown / region assignment,
//!   keyed by the VM id (`SALT_ENV_VM`), so the traits of VM *k* are a
//!   pure function of `(seed, k)` no matter how many VMs launched
//!   before it or which worker thread observed it first.
//! - [`PriceTimeline`] — a step function of per-mille VM price
//!   multipliers, one step per market interval, keyed by the interval
//!   index (`SALT_ENV_MARKET`). It is the run's one price timeline:
//!   billing integrates it in integer arithmetic (`integral_milli_ms`),
//!   which `Pricing::fleet_charge` turns into integer money, and the
//!   analytical model prices its estimates from the same steps
//!   (`Pricing::vm_per_sec_at`).
//! - [`ReclaimStorm`] — storm windows keyed by the window index
//!   (`SALT_ENV_STORM`); inside a window the spot-reclaim hazard is
//!   raised to `max(base, storm)`.
//!
//! Zero-intensity environments ([`EnvironmentSpec::is_zero`]) compile
//! to artifacts that draw nothing and multiply by exactly 1, so an
//! inactive environment leaves golden dumps byte-identical (the same
//! contract `FaultSpec` documents for zero rates).

use crate::{keyed_stream, FaultError};
use cackle_prng::Seed;

/// Keyed-draw salts for the environment artifacts. Disjoint from the
/// fault plan's sequential salts (0xFA01, 0xFA02, 0xFA06) and keyed salts
/// (0xFA13–0xFA16) so environment draws never collide with fault draws.
pub const SALT_ENV_VM: u64 = 0xFA21;
/// Salt for per-interval market multiplier draws.
pub const SALT_ENV_MARKET: u64 = 0xFA22;
/// Salt for per-window reclaim-storm offset draws.
pub const SALT_ENV_STORM: u64 = 0xFA23;

/// Seeded description of environmental diversity. All intensities
/// default to zero: a default spec is inert and leaves runs untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvironmentSpec {
    /// Fraction of launched VMs that carry a persistent slowdown
    /// (`[0, 1]`). Distinct from transient per-task stragglers: a slow
    /// VM slows every task it ever runs.
    pub vm_slow_fraction: f64,
    /// Base runtime multiplier for slow VMs (`>= 1`).
    pub vm_slowdown: f64,
    /// Uniform spread on top of the base (`>= 0`): a slow VM's factor
    /// is `vm_slowdown + spread · u`, `u ~ U[0, 1)`.
    pub vm_slowdown_spread: f64,
    /// Relative amplitude of spot-market motion (`[0, 0.9]`): each
    /// market interval draws a per-mille multiplier from
    /// `1000 ± 1000·volatility`.
    pub market_volatility: f64,
    /// Seconds per market interval (`>= 1`; one multiplier per
    /// interval).
    pub market_interval_s: u64,
    /// Reclaim storms per simulated day (`>= 0`).
    pub storms_per_day: f64,
    /// Length of one reclaim storm, seconds (`>= 1`).
    pub storm_secs: u64,
    /// Spot-reclaim hazard inside a storm, per VM-busy-hour; the
    /// effective hazard is `max(base rate, storm rate)`.
    pub storm_reclaims_per_vm_hour: f64,
    /// Fraction of VMs launched in the remote region (`[0, 1]`).
    pub remote_vm_fraction: f64,
    /// Remote-region hourly rate as per-mille of the home region
    /// (`>= 1`; 700 = remote VMs bill at 70%).
    pub remote_rate_milli: u32,
    /// Cross-region shuffle egress, micro-dollars per GiB, charged for
    /// shuffle bytes produced on remote VMs.
    pub egress_micros_per_gib: u64,
}

impl Default for EnvironmentSpec {
    fn default() -> Self {
        EnvironmentSpec {
            vm_slow_fraction: 0.0,
            vm_slowdown: 2.0,
            vm_slowdown_spread: 0.0,
            market_volatility: 0.0,
            market_interval_s: 900,
            storms_per_day: 0.0,
            storm_secs: 300,
            storm_reclaims_per_vm_hour: 12.0,
            remote_vm_fraction: 0.0,
            remote_rate_milli: 700,
            egress_micros_per_gib: 20_000,
        }
    }
}

impl EnvironmentSpec {
    /// Builder: persistent per-VM heterogeneity — `fraction` of VMs
    /// draw a slowdown of `slowdown + spread · u`.
    pub fn with_vm_heterogeneity(mut self, fraction: f64, slowdown: f64, spread: f64) -> Self {
        self.vm_slow_fraction = fraction;
        self.vm_slowdown = slowdown;
        self.vm_slowdown_spread = spread;
        self
    }

    /// Builder: spot-market motion — per-interval multipliers drawn
    /// from `1 ± volatility`, one interval every `interval_s` seconds.
    pub fn with_market_motion(mut self, volatility: f64, interval_s: u64) -> Self {
        self.market_volatility = volatility;
        self.market_interval_s = interval_s;
        self
    }

    /// Builder: reclaim storms — `per_day` windows of `secs` seconds
    /// during which the spot hazard rises to `rate_per_vm_hour`.
    pub fn with_reclaim_storms(mut self, per_day: f64, secs: u64, rate_per_vm_hour: f64) -> Self {
        self.storms_per_day = per_day;
        self.storm_secs = secs;
        self.storm_reclaims_per_vm_hour = rate_per_vm_hour;
        self
    }

    /// Builder: second region — `fraction` of VMs launch remotely at
    /// `rate_milli`/1000 of the home hourly rate, and their shuffle
    /// output is charged `egress_micros_per_gib` cross-region egress.
    pub fn with_remote_region(
        mut self,
        fraction: f64,
        rate_milli: u32,
        egress_micros_per_gib: u64,
    ) -> Self {
        self.remote_vm_fraction = fraction;
        self.remote_rate_milli = rate_milli;
        self.egress_micros_per_gib = egress_micros_per_gib;
        self
    }

    /// Whether every environmental intensity is zero. A zero spec
    /// compiles to artifacts that draw nothing and multiply by exactly
    /// one — the documented no-op (a spec with only `vm_slowdown` set
    /// but `vm_slow_fraction == 0` *is* zero; a nonzero fraction is
    /// not).
    pub fn is_zero(&self) -> bool {
        self.vm_slow_fraction == 0.0
            && self.market_volatility == 0.0
            && self.storms_per_day == 0.0
            && self.remote_vm_fraction == 0.0
    }

    /// Range-check every knob; typed errors, never a panic.
    pub fn validate(&self) -> Result<(), FaultError> {
        fn knob(name: &'static str, v: f64, lo: f64, hi: f64) -> Result<(), FaultError> {
            if v.is_finite() && (lo..=hi).contains(&v) {
                Ok(())
            } else {
                Err(FaultError::InvalidRate {
                    knob: name,
                    value: v,
                })
            }
        }
        knob("env.vm_slow_fraction", self.vm_slow_fraction, 0.0, 1.0)?;
        knob("env.vm_slowdown", self.vm_slowdown, 1.0, f64::MAX)?;
        knob(
            "env.vm_slowdown_spread",
            self.vm_slowdown_spread,
            0.0,
            f64::MAX,
        )?;
        knob("env.market_volatility", self.market_volatility, 0.0, 0.9)?;
        if self.market_interval_s == 0 {
            return Err(FaultError::InvalidRate {
                knob: "env.market_interval_s",
                value: 0.0,
            });
        }
        knob("env.storms_per_day", self.storms_per_day, 0.0, f64::MAX)?;
        if self.storm_secs == 0 {
            return Err(FaultError::InvalidRate {
                knob: "env.storm_secs",
                value: 0.0,
            });
        }
        // Storms must fit their windows: per_day storms of storm_secs
        // each cannot exceed the day.
        if self.storms_per_day > 0.0 && self.storms_per_day * self.storm_secs as f64 > 86_400.0 {
            return Err(FaultError::InvalidRate {
                knob: "env.storms_per_day",
                value: self.storms_per_day,
            });
        }
        knob(
            "env.storm_reclaims_per_vm_hour",
            self.storm_reclaims_per_vm_hour,
            0.0,
            f64::MAX,
        )?;
        knob("env.remote_vm_fraction", self.remote_vm_fraction, 0.0, 1.0)?;
        if self.remote_rate_milli == 0 {
            return Err(FaultError::InvalidRate {
                knob: "env.remote_rate_milli",
                value: 0.0,
            });
        }
        Ok(())
    }

    /// Persistent traits of VM `vm` under this environment — a pure
    /// function of `(seed, vm)` via a keyed stream, so results never
    /// depend on launch order or worker scheduling. Draw order within
    /// the stream is fixed: slow?, magnitude, remote?.
    pub fn vm_traits(&self, seed: Seed, vm: u64) -> VmTraits {
        if self.vm_slow_fraction == 0.0 && self.remote_vm_fraction == 0.0 {
            return VmTraits::default();
        }
        let mut rng = keyed_stream(seed, SALT_ENV_VM, vm);
        let u_slow = rng.gen_range(0.0..1.0);
        let u_mag = rng.gen_range(0.0..1.0);
        let u_remote = rng.gen_range(0.0..1.0);
        let slowdown = if self.vm_slow_fraction > 0.0 && u_slow < self.vm_slow_fraction {
            self.vm_slowdown + self.vm_slowdown_spread * u_mag
        } else {
            1.0
        };
        let remote = self.remote_vm_fraction > 0.0 && u_remote < self.remote_vm_fraction;
        VmTraits {
            slowdown,
            remote,
            rate_milli: if remote { self.remote_rate_milli } else { 1000 },
        }
    }
}

/// Persistent traits one VM draws at launch and keeps for life.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmTraits {
    /// Runtime multiplier applied to every task this VM runs (`>= 1`).
    pub slowdown: f64,
    /// Whether the VM lives in the remote region.
    pub remote: bool,
    /// Hourly-rate multiplier in per-mille (1000 = home-region rate).
    pub rate_milli: u32,
}

impl Default for VmTraits {
    fn default() -> Self {
        VmTraits {
            slowdown: 1.0,
            remote: false,
            rate_milli: 1000,
        }
    }
}

/// How a run's VM price moves (§5.3): a step function of per-mille
/// multipliers on `Pricing`'s VM rate over simulated seconds. The
/// fleets bill through [`integral_milli_ms`](Self::integral_milli_ms);
/// the analytical model re-prices its estimates at every
/// [`next_change_after`](Self::next_change_after), starting at second
/// 0. The pool (Lambda) price has no column: §5.3's premise is that it
/// holds while spot prices swing.
///
/// A seeded market draws interval `i`'s multiplier as a pure keyed draw
/// on `(seed, SALT_ENV_MARKET, i)`, so it needs no storage and extends
/// indefinitely. A flat timeline multiplies by exactly 1000/1000.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTimeline {
    /// Seconds per market interval (the spec's, kept when flat; a
    /// step's first interval ends at its change).
    interval_s: u64,
    moves: Moves,
}

#[derive(Debug, Clone, PartialEq)]
enum Moves {
    /// Every multiplier is 1000: nothing draws.
    Flat,
    /// One keyed draw per interval from `1000 ± volatility_milli`.
    Market { seed: Seed, volatility_milli: u32 },
    /// 1000 before `at_s`, `milli` from it on.
    Step { at_s: u64, milli: u32 },
}

impl PriceTimeline {
    /// Compile the spec's spot market with the run seed (flat without
    /// market motion).
    /// A pure function of `(env, seed)`.
    pub fn compile(env: &EnvironmentSpec, seed: Seed) -> Self {
        // Round the volatility to per-mille once; every multiplier is
        // derived from this integer amplitude.
        let volatility_milli = (env.market_volatility * 1000.0).round() as u32;
        let moves = if volatility_milli > 0 {
            Moves::Market {
                seed,
                volatility_milli,
            }
        } else {
            Moves::Flat
        };
        PriceTimeline {
            interval_s: env.market_interval_s.max(1),
            moves,
        }
    }

    /// The always-1000 timeline (no market motion).
    pub fn flat() -> Self {
        PriceTimeline {
            interval_s: 900,
            moves: Moves::Flat,
        }
    }

    /// One price change: 1000 before second `at_s`, `milli` from it on
    /// (the Figure 8 ablation's spot spike doubles the VM price: 2000).
    pub fn step(at_s: u64, milli: u32) -> Self {
        PriceTimeline {
            interval_s: at_s.max(1),
            moves: Moves::Step { at_s, milli },
        }
    }

    /// Whether every multiplier is exactly 1000.
    pub fn is_flat(&self) -> bool {
        self.moves == Moves::Flat
    }

    /// Seconds per market interval.
    pub fn interval_s(&self) -> u64 {
        self.interval_s
    }

    /// Per-mille multiplier in effect at simulated second `now_s`.
    /// A pure function of `(self, now_s)`.
    pub fn multiplier_milli(&self, now_s: u64) -> u32 {
        match self.moves {
            Moves::Flat => 1000,
            Moves::Step { at_s, milli } => {
                if now_s >= at_s {
                    milli
                } else {
                    1000
                }
            }
            Moves::Market {
                seed,
                volatility_milli,
            } => {
                let idx = now_s / self.interval_s;
                let mut rng = keyed_stream(seed, SALT_ENV_MARKET, idx);
                let u = rng.gen_range(0.0..1.0);
                let swing = (volatility_milli as f64 * (2.0 * u - 1.0)).round() as i64;
                // volatility <= 0.9 bounds the swing to ±900; the floor
                // is a belt against future amplitude changes.
                (1000 + swing).max(100) as u32
            }
        }
    }

    /// The first second after `now_s` at which the multiplier may
    /// change, or `None` when it never changes again.
    /// A pure function of `(self, now_s)`.
    pub fn next_change_after(&self, now_s: u64) -> Option<u64> {
        match self.moves {
            Moves::Flat => None,
            Moves::Step { at_s, .. } => (now_s < at_s).then_some(at_s),
            Moves::Market { .. } => (now_s / self.interval_s + 1).checked_mul(self.interval_s),
        }
    }

    /// Integral of the multiplier step function over `[start_ms,
    /// end_ms)` in units of per-mille·milliseconds — exact integer
    /// arithmetic for billing (`Σ segment_ms · multiplier_milli`). A
    /// flat timeline integrates to `1000 · (end - start)`.
    /// A pure function of `(self, start_ms, end_ms)`.
    pub fn integral_milli_ms(&self, start_ms: u64, end_ms: u64) -> u128 {
        let mut total: u128 = 0;
        let mut cur = start_ms;
        while cur < end_ms {
            let now_s = cur / 1000;
            let seg_end = self
                .next_change_after(now_s)
                .and_then(|s| s.checked_mul(1000))
                .map_or(end_ms, |ms| ms.min(end_ms));
            total += (seg_end - cur) as u128 * self.multiplier_milli(now_s) as u128;
            cur = seg_end;
        }
        total
    }
}

/// Seed-compiled reclaim-storm schedule: time divides into fixed
/// windows (one storm per window); the storm's offset inside its
/// window is a pure keyed draw on `(seed, SALT_ENV_STORM, window)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReclaimStorm {
    seed: Seed,
    window_s: u64,
    storm_s: u64,
    rate_per_vm_hour: f64,
}

impl ReclaimStorm {
    /// Compile from a spec and run seed; `None` when storms are off.
    /// A pure function of `(env, seed)`.
    pub fn compile(env: &EnvironmentSpec, seed: Seed) -> Option<Self> {
        if env.storms_per_day <= 0.0 {
            return None;
        }
        let storm_s = env.storm_secs.max(1);
        let window_s = ((86_400.0 / env.storms_per_day).round() as u64).max(storm_s);
        Some(ReclaimStorm {
            seed,
            window_s,
            storm_s,
            rate_per_vm_hour: env.storm_reclaims_per_vm_hour,
        })
    }

    /// Whether simulated second `now_s` falls inside a storm.
    /// A pure function of `(self, now_s)`.
    pub fn in_storm(&self, now_s: u64) -> bool {
        let window = now_s / self.window_s;
        let pos = now_s % self.window_s;
        let slack = self.window_s - self.storm_s;
        let offset = if slack == 0 {
            0
        } else {
            keyed_stream(self.seed, SALT_ENV_STORM, window).gen_range(0..=slack)
        };
        pos >= offset && pos < offset + self.storm_s
    }

    /// Effective spot hazard at `now_s` given the base rate.
    /// A pure function of `(self, now_s, base_rate)`.
    pub fn rate_at(&self, now_s: u64, base_rate: f64) -> f64 {
        if self.in_storm(now_s) {
            base_rate.max(self.rate_per_vm_hour)
        } else {
            base_rate
        }
    }

    /// The storm-window hazard, per VM-busy-hour.
    pub fn storm_rate(&self) -> f64 {
        self.rate_per_vm_hour
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_env() -> EnvironmentSpec {
        EnvironmentSpec::default()
            .with_vm_heterogeneity(0.25, 2.0, 0.5)
            .with_market_motion(0.3, 900)
            .with_reclaim_storms(4.0, 300, 60.0)
            .with_remote_region(0.5, 700, 20_000)
    }

    #[test]
    fn default_environment_is_zero_and_valid() {
        let env = EnvironmentSpec::default();
        assert!(env.is_zero());
        assert!(env.validate().is_ok());
        // Only the intensity knobs decide zero-ness: setting the
        // slowdown magnitude without a fraction stays zero...
        let magnitude_only = EnvironmentSpec::default().with_vm_heterogeneity(0.0, 8.0, 1.0);
        assert!(magnitude_only.is_zero());
        // ...but any nonzero intensity is active.
        assert!(!EnvironmentSpec::default()
            .with_vm_heterogeneity(0.1, 2.0, 0.0)
            .is_zero());
        assert!(!EnvironmentSpec::default()
            .with_market_motion(0.2, 600)
            .is_zero());
        assert!(!EnvironmentSpec::default()
            .with_reclaim_storms(2.0, 300, 30.0)
            .is_zero());
        assert!(!EnvironmentSpec::default()
            .with_remote_region(0.5, 700, 0)
            .is_zero());
        assert!(!active_env().is_zero());
        assert!(active_env().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_distributions_with_typed_errors() {
        let bad = |env: EnvironmentSpec, name: &str| match env.validate() {
            Err(FaultError::InvalidRate { knob, .. }) => assert_eq!(knob, name),
            other => panic!("expected InvalidRate for {name}, got {other:?}"),
        };
        bad(
            EnvironmentSpec::default().with_vm_heterogeneity(-0.1, 2.0, 0.0),
            "env.vm_slow_fraction",
        );
        bad(
            EnvironmentSpec::default().with_vm_heterogeneity(0.5, 0.5, 0.0),
            "env.vm_slowdown",
        );
        bad(
            EnvironmentSpec::default().with_vm_heterogeneity(0.5, 2.0, -1.0),
            "env.vm_slowdown_spread",
        );
        bad(
            EnvironmentSpec::default().with_market_motion(0.95, 900),
            "env.market_volatility",
        );
        bad(
            EnvironmentSpec::default().with_market_motion(f64::NAN, 900),
            "env.market_volatility",
        );
        bad(
            EnvironmentSpec::default().with_market_motion(0.1, 0),
            "env.market_interval_s",
        );
        // 2000 storms/day × 300 s = 600 000 s > a day: storms overlap.
        bad(
            EnvironmentSpec::default().with_reclaim_storms(2000.0, 300, 30.0),
            "env.storms_per_day",
        );
        bad(
            EnvironmentSpec::default().with_remote_region(1.5, 700, 0),
            "env.remote_vm_fraction",
        );
        bad(
            EnvironmentSpec::default().with_remote_region(0.5, 0, 0),
            "env.remote_rate_milli",
        );
    }

    #[test]
    fn vm_traits_are_pure_in_seed_and_id() {
        let env = active_env();
        for vm in 0..64 {
            assert_eq!(
                env.vm_traits(Seed::root(42), vm),
                env.vm_traits(Seed::root(42), vm)
            );
        }
        let traits: Vec<VmTraits> = (0..400)
            .map(|vm| env.vm_traits(Seed::root(42), vm))
            .collect();
        let slow = traits.iter().filter(|t| t.slowdown > 1.0).count();
        let remote = traits.iter().filter(|t| t.remote).count();
        // 25% slow, 50% remote — loose bounds, deterministic draws.
        assert!((40..=180).contains(&slow), "slow {slow}");
        assert!((120..=280).contains(&remote), "remote {remote}");
        for t in &traits {
            assert!(t.slowdown >= 1.0 && t.slowdown <= 2.5);
            assert_eq!(t.rate_milli, if t.remote { 700 } else { 1000 });
        }
        // Seed moves the draws.
        assert_ne!(
            (0..400)
                .map(|vm| env.vm_traits(Seed::root(1), vm))
                .collect::<Vec<_>>(),
            traits
        );
        // Zero heterogeneity + zero remote: default traits, no draws.
        let flat = EnvironmentSpec::default();
        assert_eq!(flat.vm_traits(Seed::root(42), 7), VmTraits::default());
    }

    #[test]
    fn price_timeline_steps_are_bounded_and_pure() {
        let tl = PriceTimeline::compile(&active_env(), Seed::root(9));
        assert!(!tl.is_flat());
        let mut distinct = std::collections::BTreeSet::new();
        for i in 0..200 {
            let s = i * 900;
            let m = tl.multiplier_milli(s);
            assert!((700..=1300).contains(&m), "multiplier {m}");
            // Constant within an interval.
            assert_eq!(m, tl.multiplier_milli(s + 899));
            assert_eq!(m, tl.clone().multiplier_milli(s));
            distinct.insert(m);
        }
        assert!(distinct.len() > 10, "volatility 0.3 must actually move");
        let flat = PriceTimeline::flat();
        assert!(flat.is_flat());
        assert_eq!(flat.multiplier_milli(12345), 1000);
    }

    #[test]
    fn next_change_walks_every_step_and_stops_when_prices_hold() {
        let market = PriceTimeline::compile(&active_env(), Seed::root(9));
        assert_eq!(market.next_change_after(0), Some(900));
        assert_eq!(market.next_change_after(899), Some(900));
        assert_eq!(market.next_change_after(900), Some(1800));
        assert_eq!(market.next_change_after(u64::MAX - 1), None);
        assert_eq!(PriceTimeline::flat().next_change_after(0), None);
        // Figure 8's spike: one change, at its second.
        let spike = PriceTimeline::step(1000, 2000);
        assert!(!spike.is_flat());
        assert_eq!(spike.multiplier_milli(999), 1000);
        assert_eq!(spike.multiplier_milli(1000), 2000);
        assert_eq!(spike.next_change_after(0), Some(1000));
        assert_eq!(spike.next_change_after(999), Some(1000));
        assert_eq!(spike.next_change_after(1000), None);
        // A step at second 0 prices the whole run.
        let from_start = PriceTimeline::step(0, 1500);
        assert_eq!(from_start.multiplier_milli(0), 1500);
        assert_eq!(from_start.next_change_after(0), None);
        // 1 s at 1000 then 2 s at 2000.
        assert_eq!(spike.integral_milli_ms(999_000, 1_002_000), 5_000_000);
    }

    #[test]
    fn price_integral_matches_brute_force() {
        let tl = PriceTimeline::compile(&active_env(), Seed::root(5));
        // Brute force: sum per-millisecond multipliers over a span that
        // crosses several interval boundaries (coarse stride of 1 ms is
        // too slow; use 100 ms and a span aligned to it).
        let (a, b) = (899_500, 2_703_200); // ms, crosses 2 boundaries
        let mut brute: u128 = 0;
        let mut t = a;
        while t < b {
            let step = 100.min(b - t);
            brute += step as u128 * tl.multiplier_milli(t / 1000) as u128;
            t += step;
        }
        assert_eq!(tl.integral_milli_ms(a, b), brute);
        // Flat timeline: exactly 1000 per ms.
        assert_eq!(PriceTimeline::flat().integral_milli_ms(a, b), {
            (b - a) as u128 * 1000
        });
        // Empty / inverted spans integrate to zero.
        assert_eq!(tl.integral_milli_ms(500, 500), 0);
        assert_eq!(tl.integral_milli_ms(900, 400), 0);
    }

    #[test]
    fn storms_occupy_their_configured_fraction() {
        let env = EnvironmentSpec::default().with_reclaim_storms(4.0, 300, 60.0);
        let storm = ReclaimStorm::compile(&env, Seed::root(11)).unwrap();
        // 4/day × 300 s = 1200 s of storm per day.
        let in_storm = (0..86_400).filter(|&s| storm.in_storm(s)).count();
        assert_eq!(in_storm, 1200, "exactly one 300 s storm per window");
        // Hazard: max(base, storm) inside, base outside.
        let inside = (0..86_400).find(|&s| storm.in_storm(s)).unwrap();
        let outside = (0..86_400).find(|&s| !storm.in_storm(s)).unwrap();
        assert_eq!(storm.rate_at(inside, 2.0), 60.0);
        assert_eq!(storm.rate_at(inside, 90.0), 90.0);
        assert_eq!(storm.rate_at(outside, 2.0), 2.0);
        // Purity: same window, same offset.
        assert_eq!((0..86_400).filter(|&s| storm.in_storm(s)).count(), in_storm);
        // Off when per_day is zero.
        assert!(ReclaimStorm::compile(&EnvironmentSpec::default(), Seed::root(11)).is_none());
    }
}
