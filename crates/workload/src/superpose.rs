//! Per-tenant trace decomposition and superposition.
//!
//! The paper evaluates against aggregate traces (Alibaba, Azure-Synapse)
//! that are in reality superpositions of many tenants' query streams.
//! This module splits one aggregate [`WorkloadSpec`] into `n`
//! per-tenant specs whose independently seeded arrival streams
//! *superpose* back into the aggregate's statistical shape (same window,
//! same sinusoidal period, same baseline fraction, same total query
//! count).
//!
//! `cackle-serve` builds its tenant registry on these primitives; they
//! live here so trace experiments can split streams without pulling in
//! the serving layer.

use crate::arrivals::WorkloadSpec;

/// Split `total` queries across `parts` tenants: an even share each,
/// with the remainder going to the lowest-indexed tenants, so the sum
/// is exactly `total` and the split is deterministic.
pub fn split_counts(total: usize, parts: usize) -> Vec<usize> {
    if parts == 0 {
        return Vec::new();
    }
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// Seed for tenant `stream`'s arrival generator, derived from the
/// aggregate seed by a SplitMix64 finalizer step so sibling streams are
/// decorrelated (consecutive raw seeds would start PCG streams in
/// near-identical states).
pub fn stream_seed(seed: u64, stream: u32) -> u64 {
    let mut z = seed ^ (stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decompose an aggregate workload spec into `n` per-tenant specs.
///
/// Every tenant keeps the aggregate's window, period, and baseline
/// fraction — each stream is a thinned copy of the same shape — while
/// query counts follow [`split_counts`] and seeds follow
/// [`stream_seed`], so the superposition of the per-tenant arrival
/// streams reproduces the aggregate's trace shape at the same total
/// demand.
pub fn split_spec(aggregate: &WorkloadSpec, n: usize) -> Vec<WorkloadSpec> {
    split_counts(aggregate.num_queries, n)
        .into_iter()
        .enumerate()
        .map(|(i, num_queries)| WorkloadSpec {
            num_queries,
            seed: stream_seed(aggregate.seed, i as u32),
            ..aggregate.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_counts_sums_exactly() {
        assert_eq!(split_counts(10, 3), vec![4, 3, 3]);
        assert_eq!(split_counts(3, 5), vec![1, 1, 1, 0, 0]);
        assert_eq!(split_counts(0, 2), vec![0, 0]);
        assert!(split_counts(5, 0).is_empty());
        for (total, parts) in [(16384, 7), (100, 100), (9999, 10_000)] {
            assert_eq!(split_counts(total, parts).iter().sum::<usize>(), total);
        }
    }

    #[test]
    fn stream_seeds_are_distinct_and_deterministic() {
        let a: Vec<u64> = (0..1000).map(|i| stream_seed(42, i)).collect();
        let b: Vec<u64> = (0..1000).map(|i| stream_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "stream seeds collided");
        // A different aggregate seed moves every stream seed.
        assert!((0..1000).all(|i| stream_seed(43, i) != a[i as usize]));
    }

    #[test]
    fn split_spec_preserves_shape_knobs_and_total_count() {
        let agg = WorkloadSpec::default();
        let specs = split_spec(&agg, 7);
        assert_eq!(specs.len(), 7);
        assert_eq!(
            specs.iter().map(|s| s.num_queries).sum::<usize>(),
            agg.num_queries
        );
        for s in &specs {
            assert_eq!(s.duration_s, agg.duration_s);
            assert_eq!(s.period_s, agg.period_s);
            assert!((s.baseline_load - agg.baseline_load).abs() < 1e-12);
        }
    }

    #[test]
    fn superposed_tenants_reproduce_the_aggregate_sine_shape() {
        // Pure sine aggregate split across 16 tenants: the superposed
        // stream must keep the mid-period concentration the aggregate
        // generator produces (same check as arrivals.rs's shape test).
        let agg = WorkloadSpec {
            duration_s: 1200,
            num_queries: 20_000,
            baseline_load: 0.0,
            period_s: 1200,
            seed: 3,
        };
        let streams: Vec<Vec<u64>> = split_spec(&agg, 16)
            .iter()
            .map(|s| s.generate_arrivals())
            .collect();
        let mut merged = streams.concat();
        merged.sort_unstable();
        assert_eq!(merged.len(), agg.num_queries);
        let mid = merged.iter().filter(|&&t| (400..800).contains(&t)).count();
        let edges = merged
            .iter()
            .filter(|&&t| !(200..1000).contains(&t))
            .count();
        assert!(
            mid > edges * 3,
            "superposition lost the sine shape: mid={mid} edges={edges}"
        );
    }
}
