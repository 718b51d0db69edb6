//! Ablations of the paper's design choices and extensions beyond its
//! evaluation (DESIGN.md §4, Abl A–E and Ext F–H).

use crate::*;
use cackle::model::{run_model_with, simulate_compute_with_timeline};
use cackle::oracle::{oracle_cost, oracle_cost_without_pool};
use cackle::system::run_system_with;
use cackle::PriceTimeline;
use cackle::{FamilyConfig, FaultSpec, MetaStrategy, Telemetry};
use cackle_cloud::SimDuration;
use cackle_tpch::profiles::profile_set;

/// Ablation: how much of the expert family does the meta-strategy need?
/// Sweeps the family's granularity (lookback count x percentile density)
/// and reports workload cost and expert-switch churn.
pub(crate) fn ablation_family() -> Report {
    let e = env();
    let w = default_workload(4096);
    let spec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
    let mut t = ResultTable::new(
        "Ablation: expert family size vs cost (4096-query default workload)",
        &["family", "experts", "cost_usd", "expert_switches"],
    );
    let cases: Vec<(&str, FamilyConfig)> = vec![
        (
            "tiny (1 lookback, 3 pcts)",
            FamilyConfig {
                lookbacks: vec![300],
                unit_percentiles: vec![50, 80, 100],
                p80_multipliers: vec![2.0],
                ..FamilyConfig::default()
            },
        ),
        (
            "small (2 lookbacks, 5 pcts)",
            FamilyConfig {
                seed: 17,
                ..FamilyConfig::small()
            },
        ),
        (
            "medium (4 lookbacks, 10 pcts)",
            FamilyConfig {
                lookbacks: vec![30, 300, 900, 3600],
                unit_percentiles: (1..=10).map(|x| x * 10).collect(),
                p80_multipliers: vec![1.2, 1.5, 2.0, 5.0],
                ..FamilyConfig::default()
            },
        ),
        ("paper (7 lookbacks, 100 pcts)", FamilyConfig::default()),
    ];
    for (name, cfg) in cases {
        let mut m = MetaStrategy::with_family(cfg, &e);
        let n = m.family_size();
        let r = run_model_with(&w, &mut m, &spec);
        t.row_strings(vec![
            name.into(),
            n.to_string(),
            usd(r.compute.total()),
            m.switch_count().to_string(),
        ]);
    }
    let oracle = cost_for(&demand(&w), "oracle", &e);
    Report::default()
        .note(format!("(oracle reference: ${oracle:.2})"))
        .table("ablation_family", &t)
}

/// Ablation: meta-strategy re-evaluation interval. The paper runs the
/// meta-strategy every 5 s; slower ticks react late to spikes, faster ones
/// churn the fleet.
pub(crate) fn ablation_tick() -> Report {
    let w = default_workload(4096);
    let mut t = ResultTable::new(
        "Ablation: strategy tick interval vs cost",
        &["tick_s", "cost_usd"],
    );
    for tick in [1u64, 5, 15, 60, 300] {
        let mut e = env();
        e.strategy_tick = SimDuration::from_secs(tick);
        let mut m = MetaStrategy::new(&e);
        let spec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
        let r = run_model_with(&w, &mut m, &spec);
        t.row_strings(vec![tick.to_string(), usd(r.compute.total())]);
    }
    Report::default().table("ablation_tick", &t)
}

/// Ablation: the multiplicative-weights learning rate epsilon. The regret
/// bound needs eps <= 1/2; too small converges slowly (costly exploration),
/// too large overreacts to noisy intervals.
pub(crate) fn ablation_epsilon() -> Report {
    let e = env();
    let w = default_workload(4096);
    let spec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
    let mut t = ResultTable::new(
        "Ablation: multiplicative-weights epsilon vs cost",
        &["epsilon", "cost_usd", "expert_switches"],
    );
    for eps in [0.01f64, 0.05, 0.1, 0.25, 0.5] {
        let cfg = FamilyConfig {
            epsilon: eps,
            ..FamilyConfig::default()
        };
        let mut m = MetaStrategy::with_family(cfg, &e);
        let r = run_model_with(&w, &mut m, &spec);
        t.row_strings(vec![
            format!("{eps}"),
            usd(r.compute.total()),
            m.switch_count().to_string(),
        ]);
    }
    Report::default().table("ablation_epsilon", &t)
}

/// Ablation: the 16 GB shuffle-node floor (§5.6). Without a floor, cold
/// starts push every request to S3; with a huge floor, node rent dominates.
pub(crate) fn ablation_shuffle_floor() -> Report {
    // A sparse workload (60 SF-10 queries in an hour) where intermediate
    // state is small and bursty: this is where the floor matters — with a
    // busy workload the 20-minute window maximum dwarfs any floor.
    let w = build_workload(&WorkloadSpec::hour_long(60, 21), &profile_set(10.0));
    let mut t = ResultTable::new(
        "Ablation: shuffle-node memory floor vs shuffle-layer cost",
        &[
            "floor_gib",
            "node_cost",
            "s3_put_cost",
            "s3_get_cost",
            "shuffle_total",
        ],
    );
    for floor_gib in [0u64, 8, 16, 32, 64, 128] {
        let mut e = env();
        e.shuffle_min_bytes = floor_gib << 30;
        let mut m = MetaStrategy::new(&e);
        let spec = RunSpec::new().with_env(e.clone());
        let r = run_model_with(&w, &mut m, &spec);
        t.row_strings(vec![
            floor_gib.to_string(),
            usd4(r.shuffle.node_cost),
            usd4(r.shuffle.s3_put_cost),
            usd4(r.shuffle.s3_get_cost),
            usd4(r.shuffle.total()),
        ]);
    }
    Report::default().table("ablation_shuffle_floor", &t)
}

/// Ablation: the VM minimum billing time. §5.5 credits part of Cackle's
/// win to fine-grained pool billing vs the VMs' one-minute minimum; this
/// sweep quantifies that.
pub(crate) fn ablation_min_billing() -> Report {
    let d = demand(&default_workload(2048));
    let mut t = ResultTable::new(
        "Ablation: VM minimum billing time vs oracle cost (with/without pool)",
        &[
            "min_billing_s",
            "oracle_with_pool",
            "oracle_without_pool",
            "pool_advantage_pct",
        ],
    );
    for min_s in [0u64, 30, 60, 120, 300, 600] {
        let mut e = env();
        e.pricing.vm_min_billing = SimDuration::from_secs(min_s);
        let with = oracle_cost(&d, &e).total();
        let without = oracle_cost_without_pool(&d, &e).total();
        t.row_strings(vec![
            min_s.to_string(),
            usd(with),
            usd(without),
            format!("{:.1}", (without - with) / without * 100.0),
        ]);
    }
    Report::default().table("ablation_min_billing", &t)
}

/// Extension experiment: a mid-workload spot-price spike (§5.3's real
/// Jan-Mar 2023 scenario — the c5a.large spot price nearly doubled while
/// Lambda held, shrinking the pool premium from ~7x to ~3.6x). The dynamic
/// strategy re-ranks its expert family from the §4.4.3 cost accounting;
/// cost-insensitive strategies keep their now-wrong split.
pub(crate) fn ablation_price_shift() -> Report {
    let e = env();
    let d = demand(&default_workload(8192));
    let spec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
    // The VM price doubles 6 hours into the 12-hour workload.
    let spike = PriceTimeline::step(6 * 3600, 2000);
    let flat = PriceTimeline::flat();
    let cost = |label: &str, prices: &PriceTimeline| {
        let mut s = cackle::make_strategy(label, &e);
        simulate_compute_with_timeline(&d, s.as_mut(), &spec, prices)
            .compute
            .total()
    };

    let mut t = ResultTable::new(
        "Extension: cost under a mid-run VM spot-price doubling (premium 6x -> 3x)",
        &["strategy", "flat_prices", "with_spike", "increase_pct"],
    );
    for label in ["fixed_0", "fixed_500", "mean_2", "predictive", "dynamic"] {
        let base = cost(label, &flat);
        let spiked = cost(label, &spike);
        t.row_strings(vec![
            label.into(),
            usd(base),
            usd(spiked),
            format!("{:.1}", (spiked - base) / base * 100.0),
        ]);
    }
    Report::default()
        .table("ablation_price_shift", &t)
        .note("fixed_0 is untouched (no VMs) but was never competitive; among")
        .note("VM-using strategies, dynamic should absorb the smallest increase.")
}

/// Extension experiment: §4.4.6's cold-start mitigation. "One way to avoid
/// this could be to add an expected workload to the history to prime the
/// meta-strategy" — suggested but not implemented in the paper. We
/// implement it and measure the saving over the first portion of the
/// workload, for accurate and inaccurate priors.
pub(crate) fn ablation_priming() -> Report {
    let e = env();
    let rspec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
    // Cost under each prior: none, or 1800 s of one demand level.
    let priming = |title: &str, w: &[QueryArrival], priors: &[(&str, Option<u32>)]| {
        let mut t = ResultTable::new(title, &["prior", "cost_usd"]);
        for &(name, level) in priors {
            let mut m = MetaStrategy::with_family(FamilyConfig::default(), &e);
            if let Some(level) = level {
                m.prime(&vec![level; 1800]);
            }
            let r = run_model_with(w, &mut m, &rspec);
            t.row_strings(vec![name.into(), usd(r.compute.total())]);
        }
        t
    };
    let typical = |w: &[QueryArrival]| workload_curves(w).demand.percentile(60);
    // A short, busy workload where the cold-start window is a meaningful
    // fraction of the total (the paper notes the effect is small for long
    // workloads — this isolates it).
    let w = hour_workload(1500, 31);
    let level = typical(&w);
    let cyclical = priming(
        "Extension: priming the meta-strategy with an expected workload (§4.4.6)",
        &w,
        &[
            ("none (cold start)", None),
            ("accurate (typical demand level)", Some(level)),
            ("2x too high", Some(level * 2)),
            ("4x too low", Some(level / 4)),
        ],
    );
    // Second scenario: steady demand from the first second (uniform
    // arrivals) — the case where pre-provisioning has something to win.
    let spec = WorkloadSpec {
        baseline_load: 1.0,
        ..WorkloadSpec::hour_long(1500, 32)
    };
    let w = build_workload(&spec, &evaluation_mix());
    let steady = priming(
        "Extension: priming under steady-from-start demand",
        &w,
        &[
            ("none (cold start)", None),
            ("accurate (typical demand level)", Some(typical(&w))),
        ],
    );
    Report::default()
        .table("ablation_priming", &cyclical)
        .table("ablation_priming_steady", &steady)
}

/// Extension experiment: spot reclamation resilience. The paper provisions
/// spot instances (§7.1.2) but never models interruptions; Cackle's elastic
/// pool gives a natural recovery path — a reclaimed task re-executes on the
/// pool instead of queueing for replacement hardware. Sweep the
/// interruption rate through the fault plan (`crates/faults`) and measure
/// the latency and cost impact plus the recovery work performed.
pub(crate) fn ablation_spot_interruptions() -> Report {
    let w = hour_workload(750, 41);
    let mut t = ResultTable::new(
        "Extension: spot interruptions per VM-hour vs latency and cost",
        &[
            "rate_per_vm_hour",
            "p50_latency_s",
            "p95_latency_s",
            "vm_cost",
            "pool_cost",
            "reclaims",
            "reexecs",
        ],
    );
    for rate in [0.0f64, 0.1, 0.5, 2.0, 6.0] {
        let telemetry = Telemetry::new();
        let spec = RunSpec::new()
            .with_faults(FaultSpec::default().with_spot_reclaims(rate))
            .with_telemetry(&telemetry);
        let mut s = MetaStrategy::new(&spec.env);
        let r = run_system_with(&w, &mut s, &spec);
        t.row_strings(vec![
            format!("{rate}"),
            secs(r.latency_percentile(50.0)),
            secs(r.latency_percentile(95.0)),
            usd(r.compute.vm_cost),
            usd(r.compute.pool_cost),
            telemetry.counter("fault.spot_reclaims_total").to_string(),
            telemetry.counter("recovery.task_reexecs_total").to_string(),
        ]);
    }
    Report::default()
        .table("ablation_spot_interruptions", &t)
        .note("queries never queue for replacement hardware: reclaimed tasks")
        .note("re-execute on the pool, so tail latency degrades gracefully.")
}
