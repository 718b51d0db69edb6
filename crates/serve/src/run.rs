//! The serving loop: admission → fair scheduling → shared fleet →
//! attribution.
//!
//! [`run_serve`] generates every tenant's seeded trace stream, pushes
//! the superposed arrivals through admission control and the WDRR
//! scheduler second by second, hands the dispatched queries (at their
//! dispatch times) to the existing model or system runner as one
//! aggregate workload, and finally splits the run's exact micro-dollar
//! totals back across tenants by metered usage. The whole pipeline is
//! integer state visited in fixed order: reruns are byte-identical and
//! the inner runner's worker count stays a pure throughput knob.

use crate::admission::{AdmissionConfig, TokenBucket};
use crate::attribution::{attribute, Meter};
use crate::scheduler::{QueuedQuery, SchedulerConfig, WdrrScheduler};
use crate::tenant::{PriorityClass, TenantRegistry};
use cackle::{
    build_workload, try_run_model, try_run_system, QueryArrival, RunError, RunResult, RunSpec,
};
use cackle_telemetry::catalog;
use cackle_workload::demand::percentile_f64;
use cackle_workload::profile::ProfileRef;
use std::collections::VecDeque;

/// Which runner executes the dispatched aggregate workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Runner {
    /// The §5.1 analytical model (fast; latencies are critical paths).
    #[default]
    Model,
    /// The full event-driven system (noise, faults, recovery).
    System,
}

/// One multi-tenant serving run.
#[derive(Debug, Clone, Default)]
pub struct ServeSpec {
    /// The tenants sharing the fleet.
    pub tenants: TenantRegistry,
    /// Admission knobs (quota buckets live on the tenants).
    pub admission: AdmissionConfig,
    /// Fair-scheduler knobs.
    pub scheduler: SchedulerConfig,
    /// Spec for the underlying fleet run (strategy, seed, noise,
    /// telemetry sink, workers).
    pub run: RunSpec,
    /// Which runner executes the dispatched workload.
    pub runner: Runner,
}

impl ServeSpec {
    /// A spec over `tenants` with default admission, scheduling, fleet
    /// knobs, and the model runner.
    pub fn new(tenants: TenantRegistry) -> Self {
        ServeSpec {
            tenants,
            ..Default::default()
        }
    }

    /// Set the admission config.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Set the scheduler config.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Set the underlying fleet run spec.
    pub fn with_run(mut self, run: RunSpec) -> Self {
        self.run = run;
        self
    }

    /// Set the runner.
    pub fn with_runner(mut self, runner: Runner) -> Self {
        self.runner = runner;
        self
    }
}

/// Per-tenant outcome of one serving run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id from the registry.
    pub id: u32,
    /// Tenant name from the registry.
    pub name: String,
    /// Priority class.
    pub class: PriorityClass,
    /// Queries the tenant's trace submitted.
    pub submitted: u64,
    /// Queries admitted (and eventually dispatched).
    pub admitted: u64,
    /// Queries rejected by the tenant's quota bucket; they never ran.
    pub rejected: u64,
    /// Backpressure defer events (one query can defer several times).
    pub deferrals: u64,
    /// Exact compute-layer share in integer micro-dollars.
    pub compute_micros: i64,
    /// Exact shuffle-layer share in integer micro-dollars.
    pub shuffle_micros: i64,
    /// Summed queue delay over admitted queries, in whole seconds.
    pub queue_delay_sum_s: u64,
    /// Largest queue delay any admitted query saw, in whole seconds.
    pub max_queue_delay_s: u64,
    /// End-to-end latency (queue delay + execution) per admitted query,
    /// in dispatch order.
    pub latencies: Vec<f64>,
}

impl TenantReport {
    /// The tenant's exact total share in integer micro-dollars.
    pub fn total_micros(&self) -> i64 {
        self.compute_micros + self.shuffle_micros
    }

    /// The `pct`-th end-to-end latency percentile in seconds.
    pub fn latency_percentile(&self, pct: f64) -> f64 {
        percentile_f64(&self.latencies, pct)
    }

    /// Mean queue delay over admitted queries, in seconds.
    pub fn mean_queue_delay(&self) -> f64 {
        if self.admitted == 0 {
            return 0.0;
        }
        self.queue_delay_sum_s as f64 / self.admitted as f64
    }
}

/// Result of one multi-tenant serving run.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// The aggregate fleet run over the dispatched workload.
    pub run: RunResult,
    /// Per-tenant reports, in registry order.
    pub tenants: Vec<TenantReport>,
    /// End-to-end latency (queue delay + execution) per dispatched
    /// query, in dispatch order.
    pub latencies: Vec<f64>,
}

impl ServeResult {
    /// Total queries admitted across tenants.
    pub fn admitted(&self) -> u64 {
        self.tenants.iter().map(|t| t.admitted).sum()
    }

    /// Total queries rejected across tenants.
    pub fn rejected(&self) -> u64 {
        self.tenants.iter().map(|t| t.rejected).sum()
    }

    /// Total backpressure defer events across tenants.
    pub fn deferrals(&self) -> u64 {
        self.tenants.iter().map(|t| t.deferrals).sum()
    }

    /// Sum of every tenant's exact share — equals
    /// [`RunResult::total_cost_micros`] on [`ServeResult::run`], to the
    /// integer micro-dollar.
    pub fn attributed_total_micros(&self) -> i64 {
        self.tenants.iter().map(|t| t.total_micros()).sum()
    }

    /// The `pct`-th end-to-end latency percentile in seconds.
    pub fn latency_percentile(&self, pct: f64) -> f64 {
        percentile_f64(&self.latencies, pct)
    }
}

/// Admission verdict for one presented query.
enum Gate {
    Admit,
    Defer,
    Reject,
}

fn gate(
    now_s: u64,
    queue_depth: usize,
    max_depth: usize,
    bucket: &mut Option<TokenBucket>,
) -> Gate {
    // Backpressure first: a deferred query keeps its quota token for
    // the retry.
    if queue_depth >= max_depth {
        return Gate::Defer;
    }
    match bucket {
        Some(b) => {
            if b.try_take(now_s) {
                Gate::Admit
            } else {
                Gate::Reject
            }
        }
        None => Gate::Admit,
    }
}

/// Run the full serving pipeline over `spec` with query profiles drawn
/// from `mix`.
pub fn run_serve(spec: &ServeSpec, mix: &[ProfileRef]) -> Result<ServeResult, RunError> {
    if mix.is_empty() {
        return Err(RunError::InvalidWorkload("empty profile mix".into()));
    }
    if let Some(problem) = spec.tenants.problem() {
        return Err(RunError::InvalidWorkload(problem));
    }
    spec.run.validate()?;
    let telemetry = &spec.run.telemetry;

    let tenants = spec.tenants.tenants();
    let n = tenants.len();
    telemetry.gauge_set(catalog::TENANT_COUNT, n as f64);

    // Per-tenant seeded trace streams, then the superposed admission
    // order: (arrival second, tenant, per-stream index).
    let streams: Vec<Vec<QueryArrival>> = tenants
        .iter()
        .map(|t| build_workload(&t.workload, mix))
        .collect();
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut arrivals: Vec<QueuedQuery> = Vec::with_capacity(total);
    for (ti, stream) in streams.iter().enumerate() {
        for (seq, qa) in stream.iter().enumerate() {
            arrivals.push(QueuedQuery {
                tenant: ti,
                arrival_s: qa.at_s,
                seq,
            });
        }
    }
    arrivals.sort_by_key(|q| (q.arrival_s, q.tenant, q.seq));

    let mut buckets: Vec<Option<TokenBucket>> = tenants
        .iter()
        .map(|t| t.quota.map(TokenBucket::new))
        .collect();
    let mut sched = WdrrScheduler::new(spec.scheduler);
    let mut deferred: VecDeque<QueuedQuery> = VecDeque::new();
    let mut dispatched: Vec<QueuedQuery> = Vec::with_capacity(total);
    let mut dispatch_at: Vec<u64> = Vec::with_capacity(total);
    let mut submitted = vec![0u64; n];
    let mut admitted = vec![0u64; n];
    let mut rejected = vec![0u64; n];
    let mut deferrals = vec![0u64; n];

    // The scheduler dispatches at least one query every second while
    // backlogged, so the drain horizon is finite; the cap is a guard.
    let last_arrival = arrivals.last().map_or(0, |q| q.arrival_s);
    let horizon_cap = last_arrival
        .saturating_add((total as u64).saturating_mul(1000))
        .saturating_add(1000);

    let mut next_arrival = 0usize;
    let mut now_s: u64 = 0;
    while next_arrival < arrivals.len() || sched.queued() > 0 || !deferred.is_empty() {
        if now_s > horizon_cap {
            return Err(RunError::InvalidWorkload(format!(
                "serving loop failed to drain within {horizon_cap} simulated seconds"
            )));
        }
        // Retry earlier deferrals first (FIFO), then this second's
        // fresh arrivals; a query deferred again goes to the back of
        // the queue and waits for the next second.
        let retries = deferred.len();
        for _ in 0..retries {
            let Some(q) = deferred.pop_front() else {
                break;
            };
            admit_one(
                q,
                now_s,
                spec,
                &mut sched,
                &mut buckets,
                &mut deferred,
                telemetry,
                &mut admitted,
                &mut rejected,
                &mut deferrals,
            );
        }
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival_s <= now_s {
            let q = arrivals[next_arrival];
            next_arrival += 1;
            submitted[q.tenant] += 1;
            admit_one(
                q,
                now_s,
                spec,
                &mut sched,
                &mut buckets,
                &mut deferred,
                telemetry,
                &mut admitted,
                &mut rejected,
                &mut deferrals,
            );
        }

        let before = dispatched.len();
        sched.dispatch_second(&mut dispatched);
        for q in &dispatched[before..] {
            dispatch_at.push(now_s);
            telemetry.record(
                catalog::SERVE_QUEUE_DELAY_SECONDS,
                now_s.saturating_sub(q.arrival_s) as f64,
            );
            let dispatched_total = match tenants[q.tenant].class {
                PriorityClass::Interactive => catalog::SERVE_DISPATCHED_INTERACTIVE_TOTAL,
                PriorityClass::Standard => catalog::SERVE_DISPATCHED_STANDARD_TOTAL,
                PriorityClass::Batch => catalog::SERVE_DISPATCHED_BATCH_TOTAL,
            };
            telemetry.add(dispatched_total, 1);
        }
        telemetry.sample(
            catalog::SERVE_QUEUE_DEPTH,
            now_s.saturating_mul(1000),
            sched.queued() as f64,
        );
        now_s = now_s.saturating_add(1);
    }

    // The dispatched queries, at their dispatch times, are the fleet's
    // aggregate workload; meter each tenant's usage along the way.
    let mut workload: Vec<QueryArrival> = Vec::with_capacity(dispatched.len());
    let mut meter = Meter::new(n);
    for (i, q) in dispatched.iter().enumerate() {
        let profile = streams[q.tenant][q.seq].profile.clone();
        meter.task_seconds[q.tenant] += profile.total_task_seconds();
        let (writes, reads) = profile.total_shuffle_requests();
        meter.shuffle_requests[q.tenant] += writes + reads;
        workload.push(QueryArrival {
            at_s: dispatch_at[i],
            profile,
        });
    }

    let result = match spec.runner {
        Runner::Model => try_run_model(&workload, &spec.run)?,
        Runner::System => try_run_system(&workload, &spec.run)?,
    };

    let shares = attribute(&result, &meter);
    let mut reports: Vec<TenantReport> = Vec::with_capacity(n);
    for (i, t) in tenants.iter().enumerate() {
        reports.push(TenantReport {
            id: t.id,
            name: t.name.clone(),
            class: t.class,
            submitted: submitted[i],
            admitted: admitted[i],
            rejected: rejected[i],
            deferrals: deferrals[i],
            compute_micros: shares.compute_micros.get(i).copied().unwrap_or(0),
            shuffle_micros: shares.shuffle_micros.get(i).copied().unwrap_or(0),
            queue_delay_sum_s: 0,
            max_queue_delay_s: 0,
            latencies: Vec::new(),
        });
    }
    let mut latencies: Vec<f64> = Vec::with_capacity(dispatched.len());
    for (i, q) in dispatched.iter().enumerate() {
        let wait_s = dispatch_at[i].saturating_sub(q.arrival_s);
        let end_to_end = result.latencies.get(i).copied().unwrap_or(0.0) + wait_s as f64;
        latencies.push(end_to_end);
        let rep = &mut reports[q.tenant];
        rep.latencies.push(end_to_end);
        rep.queue_delay_sum_s += wait_s;
        rep.max_queue_delay_s = rep.max_queue_delay_s.max(wait_s);
    }
    let active = reports.iter().filter(|r| r.admitted > 0).count();
    telemetry.gauge_set(catalog::TENANT_ACTIVE, active as f64);

    Ok(ServeResult {
        run: result,
        tenants: reports,
        latencies,
    })
}

#[allow(clippy::too_many_arguments)]
fn admit_one(
    q: QueuedQuery,
    now_s: u64,
    spec: &ServeSpec,
    sched: &mut WdrrScheduler,
    buckets: &mut [Option<TokenBucket>],
    deferred: &mut VecDeque<QueuedQuery>,
    telemetry: &cackle::Telemetry,
    admitted: &mut [u64],
    rejected: &mut [u64],
    deferrals: &mut [u64],
) {
    match gate(
        now_s,
        sched.queued(),
        spec.admission.max_queue_depth,
        &mut buckets[q.tenant],
    ) {
        Gate::Admit => {
            admitted[q.tenant] += 1;
            telemetry.add(catalog::SERVE_ADMITTED_TOTAL, 1);
            sched.enqueue(spec.tenants.tenants()[q.tenant].class, q);
        }
        Gate::Defer => {
            deferrals[q.tenant] += 1;
            telemetry.add(catalog::SERVE_DEFERRED_TOTAL, 1);
            deferred.push_back(q);
        }
        Gate::Reject => {
            rejected[q.tenant] += 1;
            telemetry.add(catalog::SERVE_REJECTED_TOTAL, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::QuotaSpec;
    use crate::tenant::TenantSpec;
    use cackle_workload::arrivals::WorkloadSpec;
    use cackle_workload::profile::{QueryProfile, StageProfile};
    use std::sync::Arc;

    fn mix() -> Vec<ProfileRef> {
        vec![Arc::new(QueryProfile::new(
            "unit",
            vec![StageProfile {
                tasks: 2,
                task_seconds: 2,
                shuffle_bytes: 1 << 20,
                shuffle_writes: 4,
                shuffle_reads: 4,
                deps: vec![],
            }],
        ))]
    }

    fn short(n: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            duration_s: 600,
            num_queries: n,
            baseline_load: 0.5,
            period_s: 600,
            seed,
        }
    }

    #[test]
    fn shares_sum_to_the_aggregate_exactly() {
        for tenants in [1usize, 7, 100] {
            let spec = ServeSpec::new(TenantRegistry::homogeneous(tenants, &short(200, 5)));
            let r = run_serve(&spec, &mix()).expect("serve run");
            assert_eq!(r.admitted(), 200, "{tenants} tenants");
            assert_eq!(
                r.attributed_total_micros(),
                r.run.total_cost_micros(),
                "{tenants} tenants"
            );
            assert_eq!(r.rejected(), 0);
        }
    }

    #[test]
    fn quota_rejections_never_run_and_pay_nothing() {
        let w = short(100, 9);
        let streams = cackle_workload::split_spec(&w, 2);
        let reg = TenantRegistry::new(vec![
            TenantSpec::new(0, "free", streams[0].clone()),
            TenantSpec::new(1, "throttled", streams[1].clone())
                .with_quota(QuotaSpec::per_minute(1, 1)),
        ]);
        let r = run_serve(&ServeSpec::new(reg), &mix()).expect("serve run");
        let throttled = &r.tenants[1];
        assert!(throttled.rejected > 0, "{throttled:?}");
        assert_eq!(throttled.submitted, throttled.admitted + throttled.rejected);
        assert_eq!(r.tenants[0].rejected, 0);
        // Exactness holds with rejections in play.
        assert_eq!(r.attributed_total_micros(), r.run.total_cost_micros());
        // The run only executed admitted queries.
        assert_eq!(r.run.latencies.len() as u64, r.admitted());
    }

    #[test]
    fn backpressure_defers_but_eventually_serves() {
        let reg = TenantRegistry::homogeneous(3, &short(120, 3));
        let spec = ServeSpec::new(reg)
            .with_admission(AdmissionConfig::default().with_max_queue_depth(1))
            .with_scheduler(SchedulerConfig::default().with_dispatch_per_s(1));
        let r = run_serve(&spec, &mix()).expect("serve run");
        assert!(r.deferrals() > 0);
        assert_eq!(r.admitted(), 120, "deferral must not drop queries");
        assert_eq!(r.attributed_total_micros(), r.run.total_cost_micros());
        // Queue delay shows up in end-to-end latencies.
        assert!(r.tenants.iter().any(|t| t.max_queue_delay_s > 0));
    }

    #[test]
    fn interactive_class_waits_less_under_contention() {
        let w = short(300, 21);
        let streams = cackle_workload::split_spec(&w, 2);
        let reg = TenantRegistry::new(vec![
            TenantSpec::new(0, "gold", streams[0].clone()).with_class(PriorityClass::Interactive),
            TenantSpec::new(1, "bulk", streams[1].clone()).with_class(PriorityClass::Batch),
        ]);
        let spec =
            ServeSpec::new(reg).with_scheduler(SchedulerConfig::default().with_dispatch_per_s(1));
        let r = run_serve(&spec, &mix()).expect("serve run");
        assert!(
            r.tenants[0].mean_queue_delay() < r.tenants[1].mean_queue_delay(),
            "interactive {:.2}s vs batch {:.2}s",
            r.tenants[0].mean_queue_delay(),
            r.tenants[1].mean_queue_delay()
        );
    }

    #[test]
    fn serve_metrics_are_recorded() {
        let t = cackle::Telemetry::new();
        let reg = TenantRegistry::homogeneous(2, &short(50, 4));
        let spec = ServeSpec::new(reg).with_run(RunSpec::new().with_telemetry(&t));
        let r = run_serve(&spec, &mix()).expect("serve run");
        assert_eq!(t.counter("serve.admitted_total"), r.admitted());
        assert_eq!(t.counter("serve.dispatched_standard_total"), r.admitted());
        assert_eq!(t.gauge("tenant.count"), Some(2.0));
        assert_eq!(t.gauge("tenant.active"), Some(2.0));
        assert!(t.series("serve.queue_depth").is_some());
    }

    #[test]
    fn reruns_are_byte_identical() {
        let dump = || {
            let t = cackle::Telemetry::new();
            let reg = TenantRegistry::homogeneous(5, &short(150, 12));
            let spec = ServeSpec::new(reg).with_run(RunSpec::new().with_telemetry(&t));
            run_serve(&spec, &mix()).expect("serve run");
            t.export_jsonl()
        };
        assert_eq!(dump(), dump());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let spec = ServeSpec::new(TenantRegistry::default());
        assert!(matches!(
            run_serve(&spec, &mix()),
            Err(RunError::InvalidWorkload(_))
        ));
        let ok = ServeSpec::new(TenantRegistry::homogeneous(1, &short(5, 1)));
        assert!(matches!(
            run_serve(&ok, &[]),
            Err(RunError::InvalidWorkload(_))
        ));
    }
}
