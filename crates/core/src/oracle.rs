//! The oracle strategy: the exact offline minimum compute cost for a
//! demand curve (§5.1's `oracle`).
//!
//! With full workload knowledge, startup latency is irrelevant (the oracle
//! pre-requests VMs; §5.3.2) and the problem decomposes by *demand level*:
//! the k-th VM can only ever serve the 0/1 demand `b_k(t) = [D(t) ≥ k]`,
//! and costs separate across levels. Per level, the busy intervals of
//! `b_k` are served either from the elastic pool (cost `len · c_pool`) or
//! by a VM *on-period* covering one or more consecutive intervals (cost
//! `max(span, min_billing) · c_vm` — keeping a VM alive across a gap costs
//! the gap, restarting forfeits part of the minimum billing). An interval
//! DP with a pruned, bounded merge scan (see [`MERGE_SCAN_LIMIT`]) finds
//! the per-level optimum; the sum over levels is the optimum for integer
//! allocations (exact for all merge windows within the scan bound, which
//! property tests validate against brute force).
//!
//! The `without_pool` variant (Figure 11's "Cackle Oracle Without Elastic
//! Pool") must cover every busy second with VMs and only chooses how to
//! merge on-periods.

use crate::config::Env;

/// Cost split produced by the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OracleCost {
    /// Dollars spent on provisioned VMs.
    pub vm_cost: f64,
    /// Dollars spent on the elastic pool.
    pub pool_cost: f64,
    /// Billed VM seconds.
    pub vm_seconds: f64,
    /// Pool slot-seconds.
    pub pool_seconds: f64,
}

impl OracleCost {
    /// Total dollars.
    pub fn total(&self) -> f64 {
        self.vm_cost + self.pool_cost
    }
}

/// Busy intervals `[start, end)` of every demand level, computed by delta
/// scanning: O(T + total interval endpoints).
pub fn level_intervals(demand: &[u32]) -> Vec<Vec<(u64, u64)>> {
    let peak = demand.iter().copied().max().unwrap_or(0) as usize;
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); peak];
    let mut open: Vec<u64> = Vec::with_capacity(peak); // start per open level
    let mut prev = 0u32;
    for (t, &d) in demand.iter().enumerate() {
        if d > prev {
            for _level in prev..d {
                open.push(t as u64);
            }
        } else if d < prev {
            for level in (d..prev).rev() {
                let start = open.pop().expect("level was open");
                intervals[level as usize].push((start, t as u64));
            }
        }
        prev = d;
    }
    for level in (0..prev).rev() {
        let start = open.pop().expect("level open at end");
        intervals[level as usize].push((start, demand.len() as u64));
    }
    intervals
}

/// How many merge candidates the per-level DP examines per interval
/// (public so callers can reason about the exactness window).
///
/// Merging an on-period backwards across `k` gaps pays the gaps at the VM
/// rate and can save at most one minimum-billing quantum per merged
/// interval, so optimal on-periods only reach deep when inter-burst gaps
/// are far below the minimum billing time. 64 candidates is orders of
/// magnitude beyond what real demand curves need (the brute-force
/// equivalence property test runs well inside this window), and it bounds
/// the DP at `O(64·n)` per level so week-long noisy traces stay tractable.
pub const MERGE_SCAN_LIMIT: usize = 64;

/// Optimal cost of serving one level's busy intervals.
///
/// Returns `(vm_seconds, pool_seconds)` of the optimal plan.
fn level_optimum(
    intervals: &[(u64, u64)],
    c_vm: f64,
    c_pool: f64,
    min_bill: u64,
    allow_pool: bool,
) -> (f64, f64) {
    let n = intervals.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    // dp[i] = min cost of handling the first i intervals; choice[i]
    // records how interval i-1 was covered for the final split.
    const POOL: usize = usize::MAX;
    let mut dp = vec![f64::INFINITY; n + 1];
    let mut choice = vec![POOL; n + 1];
    dp[0] = 0.0;
    for i in 1..=n {
        let (_, end_i) = intervals[i - 1];
        if allow_pool {
            let len = (intervals[i - 1].1 - intervals[i - 1].0) as f64;
            let c = dp[i - 1] + len * c_pool;
            if c < dp[i] {
                dp[i] = c;
                choice[i] = POOL;
            }
        }
        // Marginal pool cost of intervals j..=i-1: used to prune merge
        // candidates that provably cannot beat the current dp[i]
        // (dp[j-1] ≥ dp[i] − poolsum, so span·c_vm ≥ poolsum ⇒ no gain).
        let mut poolsum = 0.0;
        for j in (i.saturating_sub(MERGE_SCAN_LIMIT).max(1)..=i).rev() {
            let (start_j, end_j) = intervals[j - 1];
            let span = (end_i - start_j) as f64;
            poolsum += (end_j - start_j) as f64 * c_pool;
            if allow_pool && span * c_vm >= poolsum {
                continue;
            }
            let c = dp[j - 1] + span.max(min_bill as f64) * c_vm;
            if c < dp[i] {
                dp[i] = c;
                choice[i] = j - 1; // VM on-period covering intervals j-1..i-1
            }
        }
        assert!(dp[i].is_finite(), "no feasible cover (pool disabled?)");
    }
    // Backtrack for the vm/pool-seconds split.
    let mut vm_s = 0.0;
    let mut pool_s = 0.0;
    let mut i = n;
    while i > 0 {
        if choice[i] == POOL {
            pool_s += (intervals[i - 1].1 - intervals[i - 1].0) as f64;
            i -= 1;
        } else {
            let j = choice[i];
            let span = (intervals[i - 1].1 - intervals[j].0) as f64;
            vm_s += span.max(min_bill as f64);
            i = j;
        }
    }
    (vm_s, pool_s)
}

/// The oracle's exact minimum compute cost for `demand` under `env`.
pub fn oracle_cost(demand: &[u32], env: &Env) -> OracleCost {
    oracle_cost_impl(demand, env, true)
}

/// The oracle restricted to VMs only: enough VMs must run to cover every
/// busy second (Figure 11's delaying-free, pool-free upper bound).
pub fn oracle_cost_without_pool(demand: &[u32], env: &Env) -> OracleCost {
    oracle_cost_impl(demand, env, false)
}

fn oracle_cost_impl(demand: &[u32], env: &Env, allow_pool: bool) -> OracleCost {
    let c_vm = env.pricing.vm_per_sec();
    let c_pool = env.pricing.pool_per_sec();
    let min_bill = env.vm_min_billing_s();
    let mut out = OracleCost::default();
    for level in level_intervals(demand) {
        let (vm_s, pool_s) = level_optimum(&level, c_vm, c_pool, min_bill, allow_pool);
        out.vm_seconds += vm_s;
        out.pool_seconds += pool_s;
    }
    out.vm_cost = out.vm_seconds * c_vm;
    out.pool_cost = out.pool_seconds * c_pool;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocsim::cost_of_target_history;
    use cackle_cloud::SimDuration;

    fn env() -> Env {
        Env::default()
    }

    #[test]
    fn level_intervals_delta_scan() {
        let demand = [0u32, 2, 3, 3, 1, 0, 2];
        let levels = level_intervals(&demand);
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![(1, 5), (6, 7)]); // level 1 busy
        assert_eq!(levels[1], vec![(1, 4), (6, 7)]); // level 2
        assert_eq!(levels[2], vec![(2, 4)]); // level 3
        assert!(level_intervals(&[]).is_empty());
        assert!(level_intervals(&[0, 0]).is_empty());
    }

    #[test]
    fn short_burst_goes_to_pool() {
        // A 5-second burst of 10 slots: pool costs 50 slot-seconds at
        // c_pool; a VM would bill 60 s each at c_vm. With the 6× premium,
        // pool: 50·6·c_vm vs VM: 600·c_vm per... per level: 5 s pool = 30
        // c_vm-equivalents < 60 — pool wins.
        let mut demand = vec![0u32; 100];
        for d in demand.iter_mut().skip(10).take(5) {
            *d = 10;
        }
        let e = env();
        let oc = oracle_cost(&demand, &e);
        assert_eq!(oc.vm_seconds, 0.0);
        assert!((oc.pool_seconds - 50.0).abs() < 1e-9);
    }

    #[test]
    fn sustained_demand_goes_to_vms() {
        let demand = vec![10u32; 3600];
        let e = env();
        let oc = oracle_cost(&demand, &e);
        assert_eq!(oc.pool_seconds, 0.0);
        assert!((oc.vm_seconds - 36000.0).abs() < 1e-9);
    }

    #[test]
    fn gap_merging_beats_restart_for_short_gaps() {
        // Busy 120 s, gap g, busy 120 s at level 1. Keeping the VM costs
        // g·c_vm extra; restarting costs nothing extra (both runs exceed
        // min billing) — so merging never wins over restart here. But with
        // a 30 s second run: restart bills max(30,60)=60; merge spans
        // 120+g+30.
        let e = env();
        let mk = |gap: usize, second: usize| {
            let mut d = vec![1u32; 120];
            d.extend(vec![0u32; gap]);
            d.extend(vec![1u32; second]);
            d
        };
        // gap 10, second run 30 s: merge = 160 s vs restart = 120+60 = 180
        // vs pool-second-run = 120·c + 30·6c = 300c. Merge wins.
        let oc = oracle_cost(&mk(10, 30), &e);
        assert!(
            (oc.vm_seconds - 160.0).abs() < 1e-9,
            "vm_s {}",
            oc.vm_seconds
        );
        // gap 100, second run 30 s: merge = 250 vs restart 180 vs pool for
        // the 30 s burst: 120 + 30×6 = 300 equivalent-seconds. Restart wins.
        let oc = oracle_cost(&mk(100, 30), &e);
        assert!(
            (oc.vm_seconds - 180.0).abs() < 1e-9,
            "vm_s {}",
            oc.vm_seconds
        );
    }

    #[test]
    fn without_pool_covers_everything() {
        let mut demand = vec![0u32; 200];
        demand[50] = 4; // one-second spike
        let e = env();
        let with = oracle_cost(&demand, &e);
        let without = oracle_cost_without_pool(&demand, &e);
        // Pool handles the spike for 4 slot-seconds; without the pool, four
        // VMs bill a minute each.
        assert!((with.pool_seconds - 4.0).abs() < 1e-9);
        assert_eq!(with.vm_seconds, 0.0);
        assert!((without.vm_seconds - 240.0).abs() < 1e-9);
        assert!(without.total() > with.total());
    }

    #[test]
    fn oracle_never_worse_than_any_online_strategy() {
        // Strong cross-check: the oracle is a lower bound on the simulated
        // cost of arbitrary target histories over random demand curves.
        use cackle_prng::{Pcg32, Seed};
        let mut rng = Pcg32::new(Seed::root(11));
        let mut e = env();
        e.pricing.vm_startup = SimDuration::ZERO; // most favourable to online
        for case in 0..30 {
            let len = rng.gen_range(50..400);
            let mut demand = Vec::with_capacity(len);
            let mut d: i64 = rng.gen_range(0..20);
            for _ in 0..len {
                d = (d + rng.gen_range(-4..=4)).clamp(0, 40);
                demand.push(d as u32);
            }
            let oc = oracle_cost(&demand, &e).total();
            for targets in [
                vec![0u32; len],
                vec![10u32; len],
                vec![40u32; len],
                demand.clone(),
            ] {
                let online = cost_of_target_history(&targets, &demand, &e);
                assert!(
                    oc <= online + 1e-6,
                    "case {case}: oracle {oc} > online {online}"
                );
            }
        }
    }

    #[test]
    fn oracle_matches_brute_force_per_level() {
        // Exhaustive check of the interval DP on small instances: every
        // interval independently pool/VM, every consecutive-VM merge
        // pattern, enumerated recursively.
        fn brute(intervals: &[(u64, u64)], c_vm: f64, c_pool: f64, min_bill: f64) -> f64 {
            fn rec(ints: &[(u64, u64)], i: usize, c_vm: f64, c_pool: f64, min_bill: f64) -> f64 {
                if i == ints.len() {
                    return 0.0;
                }
                // Pool interval i.
                let mut best = (ints[i].1 - ints[i].0) as f64 * c_pool
                    + rec(ints, i + 1, c_vm, c_pool, min_bill);
                // VM on-period from i through k.
                for k in i..ints.len() {
                    let span = (ints[k].1 - ints[i].0) as f64;
                    let c = span.max(min_bill) * c_vm + rec(ints, k + 1, c_vm, c_pool, min_bill);
                    best = best.min(c);
                }
                best
            }
            rec(intervals, 0, c_vm, c_pool, min_bill)
        }
        use cackle_prng::{Pcg32, Seed};
        let mut rng = Pcg32::new(Seed::root(5));
        for _ in 0..200 {
            let n = rng.gen_range(1..7);
            let mut t = 0u64;
            let mut intervals = Vec::new();
            for _ in 0..n {
                t += rng.gen_range(1..100);
                let start = t;
                t += rng.gen_range(1..150);
                intervals.push((start, t));
            }
            let c_vm = 1.0;
            let c_pool = rng.gen_range(1.5..12.0);
            let min_bill = 60u64;
            let (vm_s, pool_s) = level_optimum(&intervals, c_vm, c_pool, min_bill, true);
            let dp_cost = vm_s * c_vm + pool_s * c_pool;
            let bf = brute(&intervals, c_vm, c_pool, min_bill as f64);
            assert!((dp_cost - bf).abs() < 1e-6, "dp {dp_cost} vs brute {bf}");
        }
    }
}
