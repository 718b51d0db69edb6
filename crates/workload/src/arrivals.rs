//! Query arrival generation.
//!
//! Reproduces §5.1's workload generator: `N` queries arrive in a fixed
//! window; a `baseline` fraction arrives uniformly; the rest are drawn from
//! a *sine distribution* with a given period — cyclical load with
//! superimposed randomness, matching the shapes of the real traces in §2.1.
//! Table 1 defaults: 12 h window, 16384 queries, 30 % baseline, 3 h period.

use cackle_prng::{Pcg32, Seed};

/// Parameters of one generated workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload window in seconds.
    pub duration_s: u64,
    /// Total number of queries.
    pub num_queries: usize,
    /// Fraction (0–1) of queries arriving uniformly.
    pub baseline_load: f64,
    /// Period of the sinusoidal component in seconds.
    pub period_s: u64,
    /// RNG seed (workloads are deterministic per seed).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    /// Table 1 defaults.
    fn default() -> Self {
        WorkloadSpec {
            duration_s: 12 * 3600,
            num_queries: 16384,
            baseline_load: 0.30,
            period_s: 3 * 3600,
            seed: 42,
        }
    }
}

impl WorkloadSpec {
    /// The hour-long evaluation workloads of §7.1.6 (30 % baseline, 20 min
    /// period) with `n` queries.
    pub fn hour_long(n: usize, seed: u64) -> Self {
        WorkloadSpec {
            duration_s: 3600,
            num_queries: n,
            baseline_load: 0.30,
            period_s: 20 * 60,
            seed,
        }
    }

    /// Generate sorted arrival times in seconds.
    ///
    /// Uniform-baseline arrivals are drawn from `U[0, duration)`; the
    /// remainder from the density `f(t) ∝ 1 + sin(2πt/period − π/2)`
    /// (peaks mid-period, troughs at period boundaries) via rejection
    /// sampling against the 2× uniform envelope.
    pub fn generate_arrivals(&self) -> Vec<u64> {
        #[expect(
            clippy::disallowed_methods,
            reason = "mint: the arrival stream receives the WorkloadSpec seed"
        )]
        let mut rng = Pcg32::new(Seed::root(self.seed));
        let n_base = (self.num_queries as f64 * self.baseline_load).round() as usize;
        let n_base = n_base.min(self.num_queries);
        let n_sine = self.num_queries - n_base;
        let mut arrivals = Vec::with_capacity(self.num_queries);
        for _ in 0..n_base {
            arrivals.push(rng.gen_range(0..self.duration_s.max(1)));
        }
        let period = self.period_s.max(1) as f64;
        for _ in 0..n_sine {
            loop {
                let t = rng.gen_range(0.0..self.duration_s.max(1) as f64);
                let density = 1.0
                    + (2.0 * std::f64::consts::PI * t / period - std::f64::consts::FRAC_PI_2).sin();
                if rng.gen_range(0.0..2.0) < density {
                    arrivals.push(t as u64);
                    break;
                }
            }
        }
        arrivals.sort_unstable();
        arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let spec = WorkloadSpec {
            num_queries: 500,
            ..WorkloadSpec::default()
        };
        assert_eq!(spec.generate_arrivals(), spec.generate_arrivals());
        let other = WorkloadSpec { seed: 7, ..spec };
        assert_ne!(spec.generate_arrivals(), other.generate_arrivals());
    }

    #[test]
    fn count_range_and_order() {
        let spec = WorkloadSpec {
            duration_s: 3600,
            num_queries: 2000,
            baseline_load: 0.3,
            period_s: 1200,
            seed: 1,
        };
        let a = spec.generate_arrivals();
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 3600);
    }

    #[test]
    fn sine_component_concentrates_mid_period() {
        // With zero baseline, arrivals should cluster around the density
        // peak (t ≈ period/2 mod period) and thin out near the troughs.
        let spec = WorkloadSpec {
            duration_s: 1200,
            num_queries: 20_000,
            baseline_load: 0.0,
            period_s: 1200,
            seed: 3,
        };
        let a = spec.generate_arrivals();
        let mid = a.iter().filter(|&&t| (400..800).contains(&t)).count();
        let edges = a.iter().filter(|&&t| !(200..1000).contains(&t)).count();
        // Middle third should hold far more than the outer third.
        assert!(
            mid > edges * 3,
            "expected mid-period clustering: mid={mid} edges={edges}"
        );
    }

    #[test]
    fn full_baseline_is_roughly_uniform() {
        let spec = WorkloadSpec {
            duration_s: 1000,
            num_queries: 50_000,
            baseline_load: 1.0,
            period_s: 100,
            seed: 9,
        };
        let a = spec.generate_arrivals();
        let first_half = a.iter().filter(|&&t| t < 500).count();
        let ratio = first_half as f64 / a.len() as f64;
        assert!((ratio - 0.5).abs() < 0.02, "uniform ratio {ratio}");
    }

    #[test]
    fn hour_long_matches_paper_params() {
        let spec = WorkloadSpec::hour_long(750, 1);
        assert_eq!(spec.duration_s, 3600);
        assert_eq!(spec.period_s, 1200);
        assert_eq!(spec.num_queries, 750);
        assert!((spec.baseline_load - 0.3).abs() < 1e-12);
    }
}
