//! The analytical model (§5.1).
//!
//! Replays a workload of query profiles at second-by-second granularity:
//! tasks never queue (overflow runs on the elastic pool), so each query's
//! stage timing is fixed by its profile and the *demand curve* is
//! strategy-independent. The model then drives the provisioning strategy
//! and fleet simulation over that curve, tracking compute cost, shuffle
//! volume, and per-request shuffle-layer cost exactly as §5.6 describes.

use crate::allocsim::AllocationSim;
use crate::config::Env;
use crate::factory::try_make_strategy;
use crate::history::WorkloadHistory;
use crate::report::{ComputeCost, RunResult, ShuffleCost, Timeseries};
use crate::runloop::record_query_done;
use crate::shuffleprov::ShuffleProvisioner;
use crate::spec::{RunError, RunSpec};
use crate::strategy::ProvisioningStrategy;
use cackle_faults::PriceTimeline;
use cackle_prng::{Pcg32, Seed};
use cackle_telemetry::{catalog, Telemetry};
use cackle_workload::arrivals::WorkloadSpec;
use cackle_workload::demand::DemandCurve;
use cackle_workload::profile::ProfileRef;

/// One query arrival.
#[derive(Debug, Clone)]
pub struct QueryArrival {
    /// Arrival second.
    pub at_s: u64,
    /// The query's execution profile.
    pub profile: ProfileRef,
}

/// Sample a workload: arrival times from `spec`, profiles uniformly from
/// `mix` (§7.1.6: "each query is randomly selected uniformly from the set
/// and scale factors").
pub fn build_workload(spec: &WorkloadSpec, mix: &[ProfileRef]) -> Vec<QueryArrival> {
    assert!(!mix.is_empty(), "empty profile mix");
    let arrivals = spec.generate_arrivals();
    #[expect(
        clippy::disallowed_methods,
        reason = "mint: build_workload receives the WorkloadSpec seed"
    )]
    let mut rng = Pcg32::new(Seed::root(spec.seed).salted(0x9e37_79b9));
    arrivals
        .into_iter()
        .map(|at_s| QueryArrival {
            at_s,
            profile: mix[rng.gen_range(0..mix.len())].clone(),
        })
        .collect()
}

/// Pre-computed per-second curves for a workload.
#[derive(Debug, Clone, Default)]
pub struct WorkloadCurves {
    /// Concurrent task demand.
    pub demand: DemandCurve,
    /// Resident intermediate shuffle state in MiB.
    pub resident_mib: DemandCurve,
    /// Shuffle write requests issued per second.
    pub writes: Vec<u64>,
    /// Shuffle read requests issued per second.
    pub reads: Vec<u64>,
}

/// Expand a workload into its demand/shuffle curves. Because Cackle never
/// queues tasks, stage timing follows directly from each profile.
pub fn workload_curves(workload: &[QueryArrival]) -> WorkloadCurves {
    let mut c = WorkloadCurves::default();
    for q in workload {
        let starts = q.profile.stage_start_offsets();
        let query_end = q.at_s as usize + q.profile.critical_path_seconds() as usize;
        for (stage, &off) in q.profile.stages.iter().zip(&starts) {
            let s = q.at_s as usize + off as usize;
            // `e` is a tick *index* into the per-second curve buffers, not
            // a duration: the ±1 below is bounds arithmetic on indices.
            let e = s + stage.task_seconds as usize;
            c.demand.add_interval(s, e, stage.tasks);
            if stage.shuffle_bytes > 0 {
                // Intermediate state lives from production until the query
                // finishes (consumers may read it until then).
                let mib = (stage.shuffle_bytes / (1 << 20)).max(1) as u32;
                c.resident_mib.add_interval(s, query_end.max(e), mib);
            }
            let horizon = c.writes.len().max(e + 1);
            c.writes.resize(horizon.max(c.writes.len()), 0);
            c.reads.resize(horizon.max(c.reads.len()), 0);
            // Writes land over the producing stage's lifetime (attributed
            // to its last second), reads at stage start.
            c.writes[e - 1] += stage.shuffle_writes;
            c.reads[s] += stage.shuffle_reads;
        }
    }
    let horizon = c.demand.len().max(c.resident_mib.len()).max(c.writes.len());
    c.writes.resize(horizon, 0);
    c.reads.resize(horizon, 0);
    c.demand.add_interval(horizon, horizon, 0);
    c
}

/// Run the analytical model for a workload; the strategy comes from
/// `spec.strategy`. Panics on a malformed label — use [`try_run_model`]
/// to handle that gracefully.
pub fn run_model(workload: &[QueryArrival], spec: &RunSpec) -> RunResult {
    try_run_model(workload, spec).unwrap_or_else(|e| e.raise())
}

/// [`run_model`], reporting malformed specs instead of panicking.
pub fn try_run_model(workload: &[QueryArrival], spec: &RunSpec) -> Result<RunResult, RunError> {
    spec.validate()?;
    let mut strategy = try_make_strategy(&spec.strategy, &spec.env)?;
    Ok(run_model_with(workload, strategy.as_mut(), spec))
}

/// Run the analytical model under an explicitly constructed strategy
/// (experiments that sweep custom [`MetaStrategy`](crate::MetaStrategy)
/// families pass their own instance).
pub fn run_model_with(
    workload: &[QueryArrival],
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> RunResult {
    let curves = workload_curves(workload);
    let environment = &spec.faults.environment;
    // Compute is priced under the run's market, the schedule the system
    // runner bills through. Heterogeneity and reclaim storms are
    // execution-layer effects the analytical model deliberately does not
    // see (DESIGN §14).
    let mut result = simulate_compute(&curves.demand.samples, strategy, spec);
    if !spec.compute_only {
        result.shuffle = simulate_shuffle(&curves, &spec.env, &result.telemetry);
        if environment.remote_vm_fraction > 0.0 {
            // Expected cross-region egress: each task publishes from a
            // remote VM with probability `remote_vm_fraction`, so the
            // model ships that fraction of all shuffle bytes out of
            // region. An estimate: it reaches the result, never a ledger.
            let total: u64 = workload
                .iter()
                .flat_map(|q| q.profile.stages.iter())
                .map(|s| s.shuffle_bytes)
                .sum();
            let bytes = (total as f64 * environment.remote_vm_fraction).round() as u64;
            let egress = cackle_cloud::Pricing::egress(bytes, environment.egress_micros_per_gib);
            result.shuffle.egress_cost = egress.dollars();
            result.telemetry.add(catalog::ENV_EGRESS_BYTES_TOTAL, bytes);
            result
                .telemetry
                .add_cost("env", "egress", result.shuffle.egress_cost);
        }
    }
    result.latencies = workload
        .iter()
        .map(|q| q.profile.critical_path_seconds() as f64)
        .collect();
    record_query_telemetry(&result.telemetry, workload);
    result
}

/// Record per-query telemetry: arrival→completion spans and the latency
/// histogram every runner shares.
fn record_query_telemetry(telemetry: &Telemetry, workload: &[QueryArrival]) {
    if !telemetry.is_enabled() {
        return;
    }
    for (i, q) in workload.iter().enumerate() {
        let latency_ms = q.profile.critical_path_seconds() as u64 * 1000;
        record_query_done(telemetry, i, &q.profile.name, q.at_s * 1000, latency_ms);
    }
}

/// Drive a strategy over a bare demand curve (used for the real-trace
/// experiments of Figure 10, where only the curve is known), priced
/// under the run's [`RunSpec::price_timeline`].
pub fn simulate_compute(
    demand: &[u32],
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> RunResult {
    simulate_compute_with_timeline(demand, strategy, spec, &spec.price_timeline())
}

/// [`simulate_compute`] under an explicit price timeline (§5.3): from
/// second 0 on, whenever the VM multiplier in force changes, the fleet's
/// cost estimate and the strategy's internal cost accounting switch to
/// the new VM rate (the pool price holds).
pub fn simulate_compute_with_timeline(
    demand: &[u32],
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
    timeline: &PriceTimeline,
) -> RunResult {
    let env = &spec.env;
    let telemetry = spec.effective_telemetry();
    strategy.set_telemetry(&telemetry);
    // `AllocationSim::new` starts at the base rate (1000‰); the rate in
    // force at second 0 applies before the first step.
    let mut milli = 1000;
    let mut next_change = Some(0);
    let tick = env.strategy_tick.as_secs().max(1);
    let mut history = WorkloadHistory::new();
    let mut fleet = AllocationSim::new(env);
    let mut target = 0u32;
    // Run past the demand end until the fleet drains.
    let horizon = demand.len() as u64;
    let mut t = 0u64;
    loop {
        let d = if t < horizon { demand[t as usize] } else { 0 };
        history.push(d);
        if next_change.is_some_and(|at| t >= at) {
            let now_milli = timeline.multiplier_milli(t);
            if now_milli != milli {
                milli = now_milli;
                let (vm, pool) = (env.pricing.vm_per_sec_at(milli), env.pricing.pool_per_sec());
                fleet.set_rates(vm, pool);
                strategy.on_rates_changed(vm, pool);
            }
            next_change = timeline.next_change_after(t);
        }
        if t.is_multiple_of(tick) {
            target = strategy.target(t, &history, env);
        }
        // Past the workload end, wind the fleet down.
        if t >= horizon {
            target = 0;
        }
        fleet.step(target, d);
        if telemetry.is_enabled() && t < horizon {
            let t_ms = t * 1000;
            telemetry.sample(catalog::RUN_DEMAND, t_ms, d as f64);
            telemetry.sample(catalog::RUN_TARGET, t_ms, target as f64);
            telemetry.sample(catalog::RUN_ACTIVE, t_ms, fleet.active_count() as f64);
        }
        t += 1;
        if t >= horizon && fleet.active_count() == 0 && fleet.pending_count() == 0 {
            break;
        }
    }
    fleet.finalize();
    let compute = ComputeCost {
        vm_cost: fleet.vm_dollars(),
        pool_cost: fleet.pool_dollars(),
        vm_seconds: fleet.vm_billed_seconds(),
        pool_seconds: fleet.pool_seconds(),
    };
    telemetry.add_cost("fleet", "vm_compute", compute.vm_cost);
    telemetry.add_cost("pool", "elastic_pool", compute.pool_cost);
    telemetry.gauge_set(catalog::RUN_DURATION_SECONDS, horizon as f64);
    RunResult {
        compute,
        shuffle: ShuffleCost::default(),
        latencies: Vec::new(),
        timeseries: if spec.record_timeseries {
            Timeseries::from_telemetry(&telemetry)
        } else {
            None
        },
        duration_s: horizon,
        strategy: strategy.name(),
        telemetry,
    }
}

/// The §5.6 shuffle-layer model: provisioned shuffle nodes sized to the
/// 20-minute maximum of resident intermediate state (≥ 16 GB), with reads
/// and writes overflowing to the object store when nodes are full.
fn simulate_shuffle(curves: &WorkloadCurves, env: &Env, telemetry: &Telemetry) -> ShuffleCost {
    let node_capacity_mib = env.pricing.shuffle_node_capacity_bytes >> 20;
    let mut prov = ShuffleProvisioner::new(env);
    let mut fleet = AllocationSim::with_rates(
        env.vm_startup_s(),
        env.pricing.shuffle_min_billing.as_secs(),
        env.pricing.shuffle_node_per_hour / 3600.0,
        0.0,
    );
    let horizon = curves.resident_mib.len().max(curves.writes.len());
    let mut puts = 0u64;
    let mut gets = 0u64;
    for t in 0..horizon as u64 {
        let resident = curves.resident_mib.at(t as usize) as u64;
        let target = prov.target_nodes(resident << 20);
        fleet.step(target, 0);
        let available = fleet.active_count() as u64 * node_capacity_mib;
        // Fraction of this second's requests that miss the node tier.
        let overflow = if resident > available && resident > 0 {
            (resident - available) as f64 / resident as f64
        } else {
            0.0
        };
        puts += (curves.writes[t as usize] as f64 * overflow).round() as u64;
        gets += (curves.reads[t as usize] as f64 * overflow).round() as u64;
    }
    fleet.finalize();
    let cost = ShuffleCost {
        node_cost: fleet.vm_dollars(),
        s3_put_cost: puts as f64 * env.pricing.s3_put,
        s3_get_cost: gets as f64 * env.pricing.s3_get,
        egress_cost: 0.0,
        puts,
        gets,
    };
    telemetry.add_cost("shuffle_fleet", "shuffle_node", cost.node_cost);
    telemetry.add_cost("store", "s3_put", cost.s3_put_cost);
    telemetry.add_cost("store", "s3_get", cost.s3_get_cost);
    telemetry.add(catalog::STORE_PUT_REQUESTS_TOTAL, puts);
    telemetry.add(catalog::STORE_GET_REQUESTS_TOTAL, gets);
    cost
}

/// Re-run the §4.4.3 cost prediction on an executed history: given the
/// demand curve a real run recorded and the targets its strategy chose,
/// predict the cost (the model-validation loop of Figure 12).
/// The replay stops at the shorter of the two histories; each run of
/// equal targets is one [`AllocationSim::advance`].
pub fn predict_cost_from_history(demand: &[u32], targets: &[u32], env: &Env) -> ComputeCost {
    let n = demand.len().min(targets.len());
    let mut fleet = AllocationSim::new(env);
    let mut at = 0;
    for run in targets[..n].chunk_by(|a, b| a == b) {
        fleet.advance(run[0], &demand[at..at + run.len()]);
        at += run.len();
    }
    fleet.finalize();
    ComputeCost {
        vm_cost: fleet.vm_dollars(),
        pool_cost: fleet.pool_dollars(),
        vm_seconds: fleet.vm_billed_seconds(),
        pool_seconds: fleet.pool_seconds(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::FixedStrategy;
    use cackle_workload::profile::{QueryProfile, StageProfile};
    use std::sync::Arc;

    fn profile(tasks: u32, secs: u32) -> ProfileRef {
        Arc::new(QueryProfile::new(
            "p",
            vec![
                StageProfile {
                    tasks,
                    task_seconds: secs,
                    shuffle_bytes: 64 << 20,
                    shuffle_writes: 2 * tasks as u64,
                    shuffle_reads: 0,
                    deps: vec![],
                },
                StageProfile {
                    tasks: 1,
                    task_seconds: 1,
                    shuffle_bytes: 0,
                    shuffle_writes: 0,
                    shuffle_reads: tasks as u64,
                    deps: vec![0],
                },
            ],
        ))
    }

    #[test]
    fn demand_curve_follows_stage_timing() {
        let w = vec![
            QueryArrival {
                at_s: 10,
                profile: profile(4, 3),
            },
            QueryArrival {
                at_s: 11,
                profile: profile(2, 5),
            },
        ];
        let c = workload_curves(&w);
        // Query 1: 4 tasks over [10,13), 1 task over [13,14).
        // Query 2: 2 tasks over [11,16), 1 over [16,17).
        assert_eq!(c.demand.at(10), 4);
        assert_eq!(c.demand.at(12), 6);
        assert_eq!(c.demand.at(13), 3); // q1 final stage + q2 scan
        assert_eq!(c.demand.at(16), 1);
        assert_eq!(c.demand.at(17), 0);
        // Shuffle state resident from production to query end.
        assert!(c.resident_mib.at(10) >= 64);
        // Requests recorded.
        assert_eq!(c.writes.iter().sum::<u64>(), 8 + 4);
        assert_eq!(c.reads.iter().sum::<u64>(), 4 + 2);
    }

    #[test]
    fn fixed_zero_runs_everything_on_pool() {
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(10, 60),
        }];
        let r = run_model(&w, &RunSpec::new().with_strategy("fixed_0"));
        assert_eq!(r.compute.vm_seconds, 0.0);
        // 10 tasks × 60 s + 1 × 1 s.
        assert!((r.compute.pool_seconds - 601.0).abs() < 1e-9);
        assert_eq!(r.latencies, vec![61.0]);
        assert_eq!(r.strategy, "fixed_0");
    }

    #[test]
    fn big_fixed_fleet_uses_vms_at_idle_cost() {
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(10, 600),
        }];
        let mut s = FixedStrategy { vms: 10 };
        let r = run_model_with(&w, &mut s, &RunSpec::new());
        // VMs take 180 s to start, so the first 180 s of work ran on the
        // pool; the remaining ~420 s ran on the started VMs.
        assert!((r.compute.pool_seconds - 10.0 * 180.0).abs() < 20.0);
        assert!(r.compute.vm_seconds >= 10.0 * 420.0);
    }

    #[test]
    fn workload_shorter_than_startup_never_gets_vms() {
        // Cackle's cold-start story (§4.4.6): a burst shorter than the VM
        // startup latency is served entirely by the elastic pool, and the
        // pending spot request is cancelled for free at wind-down.
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(10, 60),
        }];
        let mut s = FixedStrategy { vms: 10 };
        let r = run_model_with(&w, &mut s, &RunSpec::new());
        assert_eq!(r.compute.vm_seconds, 0.0);
        assert!((r.compute.pool_seconds - 601.0).abs() < 1e-9);
    }

    #[test]
    fn timeseries_recorded_when_asked() {
        let w = vec![QueryArrival {
            at_s: 5,
            profile: profile(3, 10),
        }];
        let mut s = FixedStrategy { vms: 2 };
        let spec = RunSpec::new().with_timeseries(true).with_compute_only(true);
        let r = run_model_with(&w, &mut s, &spec);
        let ts = r.timeseries.expect("requested");
        assert_eq!(ts.demand.len(), ts.target.len());
        assert_eq!(ts.demand[6], 3);
        assert!(ts.target.iter().all(|&t| t == 2));
        // The series behind the timeseries live in the telemetry registry.
        assert!(r.telemetry.is_enabled());
        assert_eq!(
            r.telemetry.series("run.demand").map(|s| s.len()),
            Some(ts.demand.len())
        );
    }

    #[test]
    fn shuffle_layer_charges_nodes_and_overflow() {
        // Long workload: the 16 GB node floor comes online after startup
        // and absorbs the (tiny) intermediate state, so the late-workload
        // requests avoid S3.
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(4, 600),
        }];
        let r = run_model(&w, &RunSpec::new().with_strategy("fixed_0"));
        assert!(r.shuffle.node_cost > 0.0);
        assert_eq!(r.shuffle.puts, 0);
        assert_eq!(r.shuffle.gets, 0);
    }

    #[test]
    fn shuffle_requests_fall_back_to_s3_during_cold_start() {
        // A short workload finishes before shuffle nodes can start: every
        // request goes to the object store (§3's fallback).
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(4, 30),
        }];
        let r = run_model(&w, &RunSpec::new().with_strategy("fixed_0"));
        assert_eq!(r.shuffle.puts, 8);
        assert_eq!(r.shuffle.gets, 4);
        assert!(r.shuffle.s3_put_cost > 0.0);
    }

    #[test]
    fn build_workload_is_deterministic_and_sized() {
        let spec = WorkloadSpec {
            num_queries: 100,
            ..WorkloadSpec::hour_long(100, 5)
        };
        let mix = vec![profile(2, 5), profile(8, 20)];
        let a = build_workload(&spec, &mix);
        let b = build_workload(&spec, &mix);
        assert_eq!(a.len(), 100);
        assert_eq!(
            a.iter().map(|q| q.at_s).collect::<Vec<_>>(),
            b.iter().map(|q| q.at_s).collect::<Vec<_>>()
        );
        // Both profiles appear.
        assert!(a.iter().any(|q| q.profile.stages[0].tasks == 2));
        assert!(a.iter().any(|q| q.profile.stages[0].tasks == 8));
    }

    #[test]
    fn price_timeline_reprices_second_half() {
        // Flat demand of 10 for 2000 s on fixed_10; VM price doubles at
        // t=1000. With instant billing arithmetic: first half at 1x, second
        // at 2x, so cost grows by ~50% vs flat (startup transient aside).
        let spec = RunSpec::new().with_compute_only(true);
        let demand = vec![10u32; 2000];
        let flat = {
            let mut s = FixedStrategy { vms: 10 };
            simulate_compute(&demand, &mut s, &spec).compute.total()
        };
        let spiked = {
            let mut s = FixedStrategy { vms: 10 };
            let tl = PriceTimeline::step(1000, 2000);
            simulate_compute_with_timeline(&demand, &mut s, &spec, &tl)
                .compute
                .total()
        };
        let ratio = spiked / flat;
        assert!(
            (1.2..1.8).contains(&ratio),
            "expected ~1.5x increase, got {ratio} ({flat} -> {spiked})"
        );
    }

    /// The model prices a fixed fleet's VM time from the run's market
    /// exactly as the system runner's fleet bills it, from second 0 on.
    /// Each VM bills `[180, 3600)`, four market intervals; every stretch
    /// between changes is a multiple of 3 s, where $0.03/h bills whole
    /// nano-dollars, so the fleet's bill is exact and the tolerance
    /// covers only the model's f64 per-second sums.
    #[test]
    fn model_vm_cost_matches_the_fleet_under_market_motion() {
        use cackle_cloud::{CostCategory, SimTime, VmFleet};
        use cackle_faults::{EnvironmentSpec, FaultSpec};
        let market = EnvironmentSpec::default().with_market_motion(0.3, 900);
        let spec = RunSpec::new()
            .with_seed(12)
            .with_compute_only(true)
            .with_faults(FaultSpec::default().with_environment(market));
        let timeline = spec.price_timeline();
        assert_ne!(timeline.multiplier_milli(0), 1000, "first interval at base");
        let vms = 4;
        let r = simulate_compute(&[vms; 3600], &mut FixedStrategy { vms }, &spec);

        let mut fleet = VmFleet::new(spec.env.pricing.clone());
        fleet.set_price_timeline(timeline);
        fleet.set_target(SimTime::ZERO, vms as usize);
        assert_eq!(fleet.poll(SimTime::from_secs(180)).len(), vms as usize);
        fleet.set_target(SimTime::from_secs(3600), 0);
        let billed = fleet.ledger().category(CostCategory::VmCompute).dollars();
        assert_eq!(r.compute.vm_seconds, fleet.ledger().vm_seconds);
        let rel = (r.compute.vm_cost - billed).abs() / billed;
        assert!(
            rel < 1e-9,
            "model {} vs fleet {billed} (rel {rel:e})",
            r.compute.vm_cost
        );
    }

    #[test]
    fn predicted_cost_matches_simulation_replay() {
        // Feeding a run's own demand and target history back into the cost
        // calculator reproduces its cost exactly (§4.4.3 is exact when the
        // environment doesn't change).
        let w = vec![
            QueryArrival {
                at_s: 0,
                profile: profile(6, 120),
            },
            QueryArrival {
                at_s: 300,
                profile: profile(3, 60),
            },
        ];
        let env = Env::default();
        let mut s = FixedStrategy { vms: 4 };
        let spec = RunSpec::new().with_timeseries(true).with_compute_only(true);
        let r = run_model_with(&w, &mut s, &spec);
        let ts = r.timeseries.as_ref().expect("ts");
        let predicted = predict_cost_from_history(&ts.demand, &ts.target, &env);
        // The replay stops at the demand horizon while the run winds down
        // beyond it; both bill the same pool seconds and the replay's VM
        // cost is within one minimum-billing quantum per VM.
        assert!((predicted.pool_seconds - r.compute.pool_seconds).abs() < 1e-9);
        assert!(predicted.vm_cost <= r.compute.vm_cost + 1e-9);
        assert!(predicted.vm_cost > r.compute.vm_cost * 0.5);
    }

    #[test]
    fn try_run_model_rejects_bad_specs() {
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(2, 5),
        }];
        let bad_label = RunSpec::new().with_strategy("bogus");
        assert!(matches!(
            try_run_model(&w, &bad_label),
            Err(RunError::UnknownStrategy(_))
        ));
        let bad_knob = RunSpec::new().with_pool_slowdown(f64::INFINITY);
        assert!(matches!(
            try_run_model(&w, &bad_knob),
            Err(RunError::InvalidKnob { .. })
        ));
    }

    #[test]
    fn telemetry_attributes_model_costs() {
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(4, 30),
        }];
        let t = Telemetry::new();
        let spec = RunSpec::new().with_strategy("fixed_0").with_telemetry(&t);
        let r = run_model(&w, &spec);
        // Compute cost mirrored into the registry, split by component.
        let pool = t.cost("pool", "elastic_pool");
        assert!((pool - r.compute.pool_cost).abs() < 1e-12);
        let put = t.cost("store", "s3_put");
        assert!((put - r.shuffle.s3_put_cost).abs() < 1e-12);
        // Query spans and the latency histogram are present.
        assert_eq!(t.counter("run.queries_total"), 1);
        let h = t.histogram("run.query_latency_seconds").expect("histogram");
        assert_eq!(h.count, 1);
        // The result's handle is the same sink.
        assert!(r.telemetry.is_enabled());
        assert_eq!(r.telemetry.counter("run.queries_total"), 1);
    }
}
