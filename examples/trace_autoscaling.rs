//! Trace autoscaling: drive the full Cackle system over a spiky
//! interactive-workload shape (the §2.1 startup trace, compressed) and
//! watch the elastic pool absorb spikes while the VM fleet tracks the
//! baseline.
//!
//! ```sh
//! cargo run --release --example trace_autoscaling
//! ```

use cackle::model::QueryArrival;
use cackle::system::run_system;
use cackle::{RunSpec, Telemetry, Timeseries};
use cackle_prng::{Pcg32, Seed};
use cackle_tpch::profiles::profile_set;

/// Seed of the workload-shape stream. Named (not inline) so the trace is
/// re-derivable: change it and every arrival time shifts together.
const WORKLOAD_SEED: u64 = 5;

fn main() {
    // A 40-minute interactive session: a dashboard fires a batch of
    // queries every 5 minutes, analysts trickle in between, and one
    // unpredictable burst of ad-hoc queries lands mid-session.
    let mix = profile_set(10.0);
    #[expect(
        clippy::disallowed_methods,
        reason = "mint: the example's workload shape has its own named seed"
    )]
    let mut rng = Pcg32::new(Seed::root(WORKLOAD_SEED));
    let mut workload = Vec::new();
    for minute in (0..40).step_by(5) {
        for _ in 0..8 {
            workload.push(QueryArrival {
                at_s: minute * 60 + rng.gen_range(0..20),
                profile: mix[rng.gen_range(0..mix.len())].clone(),
            });
        }
    }
    for _ in 0..60 {
        workload.push(QueryArrival {
            at_s: rng.gen_range(0..2400),
            profile: mix[rng.gen_range(0..mix.len())].clone(),
        });
    }
    for _ in 0..40 {
        // The burst: 40 ad-hoc queries within half a minute.
        workload.push(QueryArrival {
            at_s: 22 * 60 + rng.gen_range(0..30),
            profile: mix[rng.gen_range(0..mix.len())].clone(),
        });
    }
    workload.sort_by_key(|q| q.at_s);

    let spec = RunSpec::new().with_telemetry(&Telemetry::new());
    let r = run_system(&workload, &spec);
    let ts = Timeseries::from_telemetry(&r.telemetry).expect("recorded");

    println!("minute | demand(max) target active  (# = active VMs, + = pool overflow)");
    for m in 0..ts.demand.len().div_ceil(60) {
        let lo = m * 60;
        let hi = ((m + 1) * 60).min(ts.demand.len());
        let demand = ts.demand[lo..hi].iter().copied().max().unwrap_or(0);
        let target = ts.target[lo..hi].iter().copied().max().unwrap_or(0);
        let active = ts.active[lo..hi].iter().copied().max().unwrap_or(0);
        let bar: String = std::iter::repeat_n('#', (active / 2) as usize)
            .chain(std::iter::repeat_n(
                '+',
                (demand.saturating_sub(active) / 2) as usize,
            ))
            .take(70)
            .collect();
        println!("{m:>6} | {demand:>6} {target:>6} {active:>6}  {bar}");
    }
    println!(
        "\n{} queries, p50 {:.1}s p95 {:.1}s; cost: VMs ${:.2} + pool ${:.2} + shuffle ${:.2} = ${:.2}",
        r.latencies.len(),
        r.latency_percentile(50.0),
        r.latency_percentile(95.0),
        r.compute.vm_cost,
        r.compute.pool_cost,
        r.shuffle.total(),
        r.total_cost()
    );
    println!("the burst at minute 22 ran on the pool; no query waited for a VM.");
}
