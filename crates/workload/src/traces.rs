//! Synthetic generators for the paper's three real-world traces (§2.1).
//!
//! The original traces are proprietary (a startup's Redshift warehouse, the
//! Alibaba 2018 cluster trace aggregation, and an Azure Synapse SQL
//! cluster). Per the substitution policy in `DESIGN.md` §1, these
//! generators reproduce each trace's *published shape* — span, daily
//! periodicity, weekday/weekend skew, 15-minute reporting batches, rapid
//! multiplicative spikes — as second-granularity demand curves. Figure 10
//! only requires demand curves with these shapes.

use crate::demand::DemandCurve;
use cackle_prng::{Pcg32, Seed};

const HOUR: usize = 3600;
const DAY: usize = 24 * HOUR;

/// The stream of a trace generator: each one receives its caller's seed.
#[expect(
    clippy::disallowed_methods,
    reason = "mint: the trace generators receive their caller's seed"
)]
fn stream(seed: u64) -> Pcg32 {
    Pcg32::new(Seed::root(seed))
}

/// Diurnal multiplier: low overnight, peaking in business hours.
fn diurnal(second_of_day: usize) -> f64 {
    let h = second_of_day as f64 / 3600.0;
    // Smooth bump centred at 14:00 with a wide business-hours plateau.
    let x = (h - 14.0) / 6.0;
    0.15 + 0.85 * (-x * x).exp()
}

/// §2.1.1 — a week-long startup Redshift trace: mostly idle or one query,
/// dashboards firing every 15 minutes, analyst activity in business hours,
/// and occasional spikes to ~15 concurrent queries.
///
/// Units: concurrent queries.
pub fn startup_trace(seed: u64) -> DemandCurve {
    let mut rng = stream(seed);
    let span = 7 * DAY;
    let mut curve = DemandCurve::zeros(span);

    for day in 0..7 {
        for t in 0..DAY {
            let now = day * DAY + t;
            // Base: idle or a single long-running query, more likely during
            // the day (expected concurrency well under one).
            if rng.gen_bool((0.004 * diurnal(t)).min(1.0)) {
                let dur = rng.gen_range(30..600);
                curve.add_interval(now, (now + dur).min(span), 1);
            }
        }
        // Dashboard batch every 15 minutes: a burst of short queries.
        for q in (0..DAY).step_by(15 * 60) {
            let now = day * DAY + q;
            let batch = rng.gen_range(2..6);
            for _ in 0..batch {
                let offset = rng.gen_range(0..30);
                let dur = rng.gen_range(20..120);
                let s = now + offset;
                curve.add_interval(s, (s + dur).min(span), 1);
            }
        }
        // One or two unpredictable analyst spikes per day.
        for _ in 0..rng.gen_range(1..3) {
            let s = day * DAY + rng.gen_range(8 * HOUR..20 * HOUR);
            let extra = rng.gen_range(6..12);
            let dur = rng.gen_range(120..900);
            curve.add_interval(s, (s + dur).min(span), extra);
        }
    }
    curve
}

/// §2.1.2 — the Alibaba 2018 cluster trace: a week of concurrent CPU
/// requests with strong daily periodicity and large irregular spikes.
///
/// Units: thousands of concurrent CPUs requested, scaled so the curve peaks
/// near 300 (matching Figure 3's axis).
pub fn alibaba_trace(seed: u64) -> DemandCurve {
    let mut rng = stream(seed);
    let span = 7 * DAY;
    let mut samples = Vec::with_capacity(span);
    // A slowly drifting baseline via an AR(1) process on top of the
    // diurnal shape, plus heavy-tailed spikes.
    let mut drift: f64 = 0.0;
    let mut spike: f64 = 0.0;
    let mut spike_left = 0usize;
    for now in 0..span {
        let t = now % DAY;
        drift = 0.9995 * drift + rng.gen_range(-0.05..0.05);
        drift = drift.clamp(-10.0, 10.0);
        if spike_left > 0 {
            spike_left -= 1;
        } else {
            spike = 0.0;
            // Roughly a handful of spikes per day.
            if rng.gen_bool(5.0 / DAY as f64) {
                spike = rng.gen_range(40.0..160.0);
                spike_left = rng.gen_range(60..1800);
            }
        }
        let base = 90.0 + 110.0 * diurnal(t) + drift * 4.0;
        samples.push((base + spike).max(0.0) as u32);
    }
    DemandCurve::from_samples(samples)
}

/// §2.1.3 — the Azure Synapse SQL trace: two weeks of node requests with
/// daily peaks, weekday > weekend demand, and rapid spikes that double or
/// triple demand within minutes.
///
/// Units: nodes requested, peaking near 1000 (matching Figure 4's axis).
pub fn azure_trace(seed: u64) -> DemandCurve {
    let mut rng = stream(seed);
    let span = 14 * DAY;
    let mut samples = Vec::with_capacity(span);
    let mut spike: f64 = 0.0;
    let mut spike_left = 0usize;
    let mut ramp = 0.0f64;
    // Node-request noise moves at minute granularity (requests are sticky
    // for a scheduling quantum), not per-second white noise.
    let mut noise = 0.0f64;
    for now in 0..span {
        let day = now / DAY;
        let t = now % DAY;
        // Trace starts on a Monday: days 5, 6, 12, 13 are weekends.
        let weekend = matches!(day % 7, 5 | 6);
        let weekday_factor = if weekend { 0.55 } else { 1.0 };
        if spike_left > 0 {
            spike_left -= 1;
            // Spikes ramp up over a couple of minutes, then decay.
            ramp = (ramp + 1.0 / 120.0).min(1.0);
        } else {
            if spike > 0.0 {
                spike = 0.0;
                ramp = 0.0;
            }
            if rng.gen_bool(4.0 / DAY as f64) {
                // Demand doubles or triples: spike of 1–2× the base level.
                spike = rng.gen_range(1.0..2.0);
                spike_left = rng.gen_range(300..2400);
                ramp = 0.0;
            }
        }
        if now % 60 == 0 {
            noise = rng.gen_range(-0.05..0.05);
        }
        let base = (120.0 + 680.0 * diurnal(t)) * weekday_factor;
        let noisy = base * (1.0 + noise);
        samples.push((noisy * (1.0 + spike * ramp)).max(0.0) as u32);
    }
    DemandCurve::from_samples(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startup_trace_shape() {
        let c = startup_trace(1);
        assert_eq!(c.len(), 7 * DAY);
        // Mostly idle-or-one: the median is tiny.
        assert!(c.percentile(50) <= 2, "median {}", c.percentile(50));
        // But spikes exceed 8 concurrent queries.
        assert!(c.peak() >= 8, "peak {}", c.peak());
        assert!(c.peak() <= 40, "peak {}", c.peak());
    }

    #[test]
    fn alibaba_trace_daily_periodicity() {
        let c = alibaba_trace(1);
        assert_eq!(c.len(), 7 * DAY);
        assert!(c.peak() >= 220 && c.peak() <= 420, "peak {}", c.peak());
        // Afternoon demand exceeds pre-dawn demand every day.
        for day in 0..7 {
            let night = c.at(day * DAY + 3 * HOUR);
            let noon = c.at(day * DAY + 14 * HOUR);
            assert!(noon > night, "day {day}: noon {noon} vs night {night}");
        }
    }

    #[test]
    fn azure_trace_weekend_dip_and_spikes() {
        let c = azure_trace(1);
        assert_eq!(c.len(), 14 * DAY);
        assert!(c.peak() >= 700, "peak {}", c.peak());
        // Weekday afternoons demand more than weekend afternoons.
        let weekday_noon: u32 = (0..5).map(|d| c.at(d * DAY + 14 * HOUR)).sum();
        let weekend_noon: u32 = [5, 6].iter().map(|&d| c.at(d * DAY + 14 * HOUR)).sum();
        assert!(weekday_noon / 5 > weekend_noon / 2 * 13 / 10);
    }

    #[test]
    fn traces_are_deterministic() {
        assert_eq!(
            startup_trace(5).samples[..1000],
            startup_trace(5).samples[..1000]
        );
        assert_eq!(
            alibaba_trace(5).samples[..1000],
            alibaba_trace(5).samples[..1000]
        );
        assert_eq!(
            azure_trace(5).samples[..1000],
            azure_trace(5).samples[..1000]
        );
    }

    #[test]
    fn rapid_spikes_exist_in_azure() {
        // Somewhere demand rises by ≥ 60% within 5 minutes.
        let c = azure_trace(2);
        let found = (0..c.len() - 300).step_by(60).any(|t| {
            let a = c.at(t).max(1);
            let b = c.at(t + 300);
            b as f64 / a as f64 >= 1.6
        });
        assert!(found, "no rapid spike found");
    }
}
