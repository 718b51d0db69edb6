//! Randomized property tests for workload generation and demand curves,
//! driven by the in-repo deterministic PRNG: each property is checked over
//! many seeded cases, so failures are reproducible from the case index.

use cackle_prng::{Pcg32, Seed};
use cackle_workload::arrivals::WorkloadSpec;
use cackle_workload::demand::{percentile_of, DemandCurve};
use cackle_workload::profile::{QueryProfile, StageProfile};

/// Arrival generation always yields exactly N sorted samples inside the
/// window, for any parameter combination.
#[test]
fn arrivals_well_formed() {
    let mut rng = Pcg32::new(Seed::root(0xA881));
    for _ in 0..64 {
        let duration = rng.gen_range(10u64..5_000);
        let n = rng.gen_range(1usize..500);
        let spec = WorkloadSpec {
            duration_s: duration,
            num_queries: n,
            baseline_load: rng.gen_range(0.0..=1.0),
            period_s: rng.gen_range(1u64..5_000),
            seed: rng.next_u64(),
        };
        let a = spec.generate_arrivals();
        assert_eq!(a.len(), n);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < duration), "{spec:?}");
    }
}

/// add_interval is additive: total slot-seconds equals the sum of
/// interval areas regardless of insertion order.
#[test]
fn demand_curve_additive() {
    let mut rng = Pcg32::new(Seed::root(0xA882));
    for _ in 0..64 {
        let intervals: Vec<(usize, usize, u32)> = (0..rng.gen_range(0usize..30))
            .map(|_| {
                (
                    rng.gen_range(0usize..200),
                    rng.gen_range(1usize..50),
                    rng.gen_range(1u32..10),
                )
            })
            .collect();
        let mut forward = DemandCurve::default();
        let mut backward = DemandCurve::default();
        let mut area = 0u64;
        for &(start, len, count) in &intervals {
            forward.add_interval(start, start + len, count);
            area += (len as u64) * count as u64;
        }
        for &(start, len, count) in intervals.iter().rev() {
            backward.add_interval(start, start + len, count);
        }
        assert_eq!(forward.total_slot_seconds(), area);
        assert_eq!(forward.samples, backward.samples);
    }
}

/// Percentiles are monotone in the percentile and bounded by min/max.
#[test]
fn percentile_monotone() {
    let mut rng = Pcg32::new(Seed::root(0xA883));
    for _ in 0..64 {
        let values: Vec<u32> = (0..rng.gen_range(1usize..200))
            .map(|_| rng.gen_range(0u32..10_000))
            .collect();
        let mut prev = 0;
        for pct in 1u8..=100 {
            let p = percentile_of(&values, pct);
            assert!(p >= prev, "pct {pct} decreased");
            prev = p;
        }
        assert_eq!(percentile_of(&values, 100), *values.iter().max().unwrap());
        assert!(percentile_of(&values, 1) >= *values.iter().min().unwrap());
    }
}

/// Profile timing invariants: the critical path is at least the longest
/// stage and at most the sum of all stage durations, and peak concurrency
/// is at least the widest stage.
#[test]
fn profile_timing_bounds() {
    let mut rng = Pcg32::new(Seed::root(0xA884));
    for case in 0..64 {
        let chain = case % 2 == 0;
        let stage_specs: Vec<(u32, u32)> = (0..rng.gen_range(1usize..8))
            .map(|_| (rng.gen_range(1u32..20), rng.gen_range(1u32..30)))
            .collect();
        let stages: Vec<StageProfile> = stage_specs
            .iter()
            .enumerate()
            .map(|(i, &(tasks, secs))| StageProfile {
                tasks,
                task_seconds: secs,
                shuffle_bytes: 0,
                shuffle_writes: 0,
                shuffle_reads: 0,
                deps: if chain && i > 0 { vec![i - 1] } else { vec![] },
            })
            .collect();
        let p = QueryProfile::new("prop", stages);
        let longest = stage_specs.iter().map(|&(_, s)| s).max().unwrap();
        let total: u32 = stage_specs.iter().map(|&(_, s)| s).sum();
        let cp = p.critical_path_seconds();
        assert!(cp >= longest && cp <= total);
        if chain {
            assert_eq!(cp, total);
        }
        let widest = stage_specs.iter().map(|&(t, _)| t).max().unwrap();
        assert!(p.peak_concurrency() >= widest);
    }
}

/// Downsampling by max never loses the peak.
#[test]
fn downsample_preserves_peak() {
    let mut rng = Pcg32::new(Seed::root(0xA885));
    for _ in 0..64 {
        let samples: Vec<u32> = (0..rng.gen_range(1usize..300))
            .map(|_| rng.gen_range(0u32..1_000))
            .collect();
        let window = rng.gen_range(1usize..50);
        let c = DemandCurve::from_samples(samples);
        let down = c.downsample_max(window);
        assert_eq!(down.iter().copied().max().unwrap_or(0), c.peak());
    }
}
