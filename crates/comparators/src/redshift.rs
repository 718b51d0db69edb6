//! A Redshift-Serverless-style model (§7.1.8).
//!
//! Base capacity in RPUs; users are charged only while queries run, with a
//! 60-second minimum per active period. Capacity can scale up when usage is
//! sustained, after a provisioning delay — but like the other warehouse
//! products, scaling happens only after work has queued.

use cackle::delaying::QueuedRun;
use cackle::{QueryArrival, RunError, RunResult, Telemetry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Redshift Serverless configuration.
#[derive(Debug, Clone)]
pub struct RedshiftConfig {
    /// Base capacity in RPUs (8 in the paper).
    pub base_rpus: u32,
    /// Task slots per RPU.
    pub slots_per_rpu: u32,
    /// Dollars per RPU-hour ($0.36 in the paper).
    pub dollars_per_rpu_hour: f64,
    /// Minimum billed seconds per active period.
    pub min_billing_s: u64,
    /// Maximum scale-up factor over base capacity.
    pub max_scale: u32,
    /// Seconds of sustained queueing before capacity doubles.
    pub scale_trigger_s: u64,
    /// Delay for added capacity to arrive.
    pub scale_delay_s: u64,
    /// Queries on warm Redshift run this factor faster than the profile.
    pub warm_speedup: f64,
    /// Telemetry sink the run records into (disabled by default).
    pub telemetry: Telemetry,
}

impl Default for RedshiftConfig {
    fn default() -> Self {
        RedshiftConfig {
            base_rpus: 8,
            slots_per_rpu: 16,
            dollars_per_rpu_hour: 0.36,
            min_billing_s: 60,
            max_scale: 4,
            scale_trigger_s: 30,
            scale_delay_s: 120,
            warm_speedup: 8.0,
            telemetry: Telemetry::disabled(),
        }
    }
}

impl RedshiftConfig {
    /// Attach a telemetry sink to record query and cost metrics into.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }
}

/// Run a workload on the modelled Redshift Serverless endpoint. Panics on
/// a malformed workload — use [`try_run_redshift`] to handle that
/// gracefully.
pub fn run_redshift(workload: &[QueryArrival], cfg: &RedshiftConfig) -> RunResult {
    try_run_redshift(workload, cfg).unwrap_or_else(|e| e.raise())
}

/// [`run_redshift`], reporting a malformed workload instead of panicking.
pub fn try_run_redshift(
    workload: &[QueryArrival],
    cfg: &RedshiftConfig,
) -> Result<RunResult, RunError> {
    let mut run = QueuedRun::try_new(workload, &cfg.telemetry)?;
    // Ready stages as (query arrival, query, stage, tasks not yet launched).
    let mut ready: BinaryHeap<Reverse<(u64, usize, usize, u32)>> = BinaryHeap::new();

    let mut rpus = cfg.base_rpus;
    let mut free_slots = rpus * cfg.slots_per_rpu;
    let mut queue_since: Option<u64> = None;
    let mut scale_arrives: Option<(u64, u32)> = None;

    // Billing: active periods of the endpoint.
    let mut active_since: Option<u64> = None;
    let mut billed_rpu_seconds = 0f64;
    let mut now = 0u64;

    let queued = |q: usize| move |(s, tasks)| Reverse((workload[q].at_s, q, s, tasks));
    loop {
        while let Some(q) = run.next_arrival(now) {
            ready.extend(run.roots(q).map(queued(q)));
        }
        while let Some(done) = run.next_completion(now) {
            free_slots += 1;
            ready.extend(done.ready.into_iter().map(queued(done.query)));
        }
        // Scale-up arrival.
        if let Some((_, add)) = scale_arrives.filter(|&(t, _)| t <= now) {
            rpus += add;
            free_slots += add * cfg.slots_per_rpu;
            scale_arrives = None;
        }
        // Schedule ready tasks.
        while free_slots > 0 {
            let Some(Reverse((at_s, q, s, tasks))) = ready.pop() else {
                break;
            };
            let launch = tasks.min(free_slots);
            free_slots -= launch;
            active_since.get_or_insert(now);
            let warm_s =
                (workload[q].profile.stages[s].task_seconds as f64 / cfg.warm_speedup).ceil();
            run.launch(now + warm_s as u64, q, s, launch);
            if tasks > launch {
                ready.push(Reverse((at_s, q, s, tasks - launch)));
            }
        }
        // Billing: close the active period when nothing runs.
        if run.running_tasks() == 0 {
            if let Some(since) = active_since.take() {
                let period = (now - since).max(cfg.min_billing_s);
                billed_rpu_seconds += period as f64 * rpus as f64;
            }
        }
        // Queue-triggered capacity scaling.
        if !ready.is_empty() {
            let since = *queue_since.get_or_insert(now);
            if now - since >= cfg.scale_trigger_s
                && scale_arrives.is_none()
                && rpus < cfg.base_rpus * cfg.max_scale
            {
                let add = rpus.min(cfg.base_rpus * cfg.max_scale - rpus);
                scale_arrives = Some((now + cfg.scale_delay_s, add));
            }
        } else {
            queue_since = None;
            // Shed scaled-up capacity when the queue clears and slots idle.
            if rpus > cfg.base_rpus && run.running_tasks() == 0 {
                free_slots -= (rpus - cfg.base_rpus) * cfg.slots_per_rpu;
                rpus = cfg.base_rpus;
            }
        }
        // Advance.
        let scale_s = scale_arrives.map(|(t, _)| t);
        match [run.next_event_s(), scale_s].into_iter().flatten().min() {
            Some(t) if t > now => now = t,
            Some(_) if !run.is_finished() => now += 1,
            _ => break,
        }
    }
    if let Some(since) = active_since.take() {
        let period = (run.makespan_s().max(since) - since).max(cfg.min_billing_s);
        billed_rpu_seconds += period as f64 * rpus as f64;
    }

    let endpoint_cost = billed_rpu_seconds / 3600.0 * cfg.dollars_per_rpu_hour;
    let label = format!("redshift_serverless_{}rpu", cfg.base_rpus);
    Ok(run.finish(billed_rpu_seconds, endpoint_cost, "endpoint", label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cackle_workload::profile::{QueryProfile, StageProfile};
    use std::sync::Arc;

    fn profile(tasks: u32, secs: u32) -> Arc<QueryProfile> {
        Arc::new(QueryProfile::new(
            "q",
            vec![StageProfile {
                tasks,
                task_seconds: secs,
                shuffle_bytes: 0,
                shuffle_writes: 0,
                shuffle_reads: 0,
                deps: vec![],
            }],
        ))
    }

    #[test]
    fn idle_time_is_not_billed() {
        // Two short queries an hour apart: billing covers two active
        // periods (60 s minimum each), not the idle hour.
        let w = vec![
            QueryArrival {
                at_s: 0,
                profile: profile(8, 10),
            },
            QueryArrival {
                at_s: 3600,
                profile: profile(8, 10),
            },
        ];
        let cfg = RedshiftConfig::default();
        let r = run_redshift(&w, &cfg);
        // 2 periods × 60 s × 8 RPU = 960 RPU-seconds.
        assert!(
            (r.compute.vm_seconds - 960.0).abs() < 1e-9,
            "rpu-seconds {}",
            r.compute.vm_seconds
        );
    }

    #[test]
    fn saturation_queues_and_degrades_latency() {
        // 128 slots at base capacity; 80 queries × 16 tasks at once swamp it.
        let w: Vec<QueryArrival> = (0..80)
            .map(|_| QueryArrival {
                at_s: 0,
                profile: profile(16, 15),
            })
            .collect();
        let r = run_redshift(&w, &RedshiftConfig::default());
        let solo = run_redshift(
            &[QueryArrival {
                at_s: 0,
                profile: profile(16, 15),
            }],
            &RedshiftConfig::default(),
        );
        assert!(
            r.latency_percentile(90.0) > solo.latencies[0] * 3.0,
            "p90 {} vs solo {}",
            r.latency_percentile(90.0),
            solo.latencies[0]
        );
    }

    #[test]
    fn capacity_scaling_kicks_in_after_queueing() {
        let w: Vec<QueryArrival> = (0..600)
            .map(|i| QueryArrival {
                at_s: i / 8,
                profile: profile(16, 80),
            })
            .collect();
        let scaled = run_redshift(&w, &RedshiftConfig::default());
        let unscaled = run_redshift(
            &w,
            &RedshiftConfig {
                max_scale: 1,
                ..Default::default()
            },
        );
        assert!(
            scaled.latency_percentile(95.0) < unscaled.latency_percentile(95.0),
            "scaling should relieve the queue: {} vs {}",
            scaled.latency_percentile(95.0),
            unscaled.latency_percentile(95.0)
        );
    }

    #[test]
    fn all_finish_deterministically() {
        let w: Vec<QueryArrival> = (0..100)
            .map(|i| QueryArrival {
                at_s: i * 2,
                profile: profile(8, 10),
            })
            .collect();
        let a = run_redshift(&w, &RedshiftConfig::default());
        let b = run_redshift(&w, &RedshiftConfig::default());
        assert_eq!(a.latencies, b.latencies);
        assert!(a.latencies.iter().all(|&l| l > 0.0));
    }
}
