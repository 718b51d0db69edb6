//! Work-delaying system model (§5.5).
//!
//! Conventional OLAP systems schedule work until provisioned resources are
//! saturated and queue the rest. This module models such a system: a fixed
//! fleet of `n` VM slots, tasks scheduled FIFO with priority to the
//! earliest-submitted query, stage barriers respected. It yields the
//! cost/latency frontier that Figure 11 contrasts with Cackle's
//! elastic-pool points.

use crate::model::QueryArrival;
use crate::report::{ComputeCost, RunResult};
use crate::runloop::validate_stage_graph;
use crate::spec::{RunError, RunSpec};
use crate::system::profile_graphs;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TaskKey {
    arrival_s: u64,
    query: usize,
    stage: usize,
}

/// Run a workload on a work-delaying system with `slots` fixed VM slots.
///
/// Tasks run to completion; a stage's tasks become ready when all upstream
/// stages finish; ready tasks wait in a FIFO queue keyed by query arrival.
/// The fleet is provisioned for the whole span, so cost is simply
/// `slots × makespan` at the VM rate.
pub fn run_delaying(workload: &[QueryArrival], slots: u32, spec: &RunSpec) -> RunResult {
    try_run_delaying(workload, slots, spec).unwrap_or_else(|e| e.raise())
}

/// [`run_delaying`], reporting malformed inputs instead of panicking.
pub fn try_run_delaying(
    workload: &[QueryArrival],
    slots: u32,
    spec: &RunSpec,
) -> Result<RunResult, RunError> {
    spec.validate()?;
    if slots == 0 {
        return Err(RunError::InvalidKnob {
            name: "slots",
            value: 0.0,
        });
    }
    // A stage graph that cannot execute would leave its query unscheduled
    // and reported as finishing in zero seconds.
    for (qi, q) in profile_graphs(workload).enumerate() {
        validate_stage_graph(qi, &q.stages)?;
    }
    let env = &spec.env;
    let telemetry = spec.effective_telemetry();
    // Ready-task queue: (priority key, remaining duplicate count).
    let mut ready: BinaryHeap<Reverse<(TaskKey, u32)>> = BinaryHeap::new();
    // Completion events: (finish_s, query, stage).
    let mut completions: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    // Arrival events.
    let mut arrivals: Vec<(u64, usize)> = workload
        .iter()
        .enumerate()
        .map(|(i, q)| (q.at_s, i))
        .collect();
    arrivals.sort_unstable();
    let mut next_arrival = 0usize;

    let mut remaining_tasks: Vec<Vec<u32>> = workload
        .iter()
        .map(|q| q.profile.stages.iter().map(|s| s.tasks).collect())
        .collect();
    let mut unfinished_deps: Vec<Vec<usize>> = workload
        .iter()
        .map(|q| q.profile.stages.iter().map(|s| s.deps.len()).collect())
        .collect();
    let mut stages_left: Vec<usize> = workload.iter().map(|q| q.profile.stages.len()).collect();
    let mut latencies = vec![0.0f64; workload.len()];
    let mut free = slots;
    let mut now = 0u64;
    let mut makespan = 0u64;

    let release_stage = |q: usize,
                         s: usize,
                         workload: &[QueryArrival],
                         ready: &mut BinaryHeap<Reverse<(TaskKey, u32)>>| {
        let tasks = workload[q].profile.stages[s].tasks;
        ready.push(Reverse((
            TaskKey {
                arrival_s: workload[q].at_s,
                query: q,
                stage: s,
            },
            tasks,
        )));
    };

    loop {
        // Advance time to the next event if nothing can be scheduled now.
        let next_event = match (
            arrivals.get(next_arrival).map(|&(t, _)| t),
            completions.peek().map(|Reverse((t, _, _))| *t),
        ) {
            (Some(a), Some(c)) => Some(a.min(c)),
            (Some(a), None) => Some(a),
            (None, Some(c)) => Some(c),
            (None, None) => None,
        };
        // Process arrivals at `now`.
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now {
            let (_, q) = arrivals[next_arrival];
            next_arrival += 1;
            for (s, stage) in workload[q].profile.stages.iter().enumerate() {
                if stage.deps.is_empty() {
                    release_stage(q, s, workload, &mut ready);
                }
            }
        }
        // Process completions at `now`.
        while completions
            .peek()
            .is_some_and(|Reverse((t, _, _))| *t <= now)
        {
            let Some(Reverse((_, q, s))) = completions.pop() else {
                break;
            };
            free += 1;
            remaining_tasks[q][s] = remaining_tasks[q][s].saturating_sub(1);
            if remaining_tasks[q][s] == 0 {
                stages_left[q] = stages_left[q].saturating_sub(1);
                if stages_left[q] == 0 {
                    let latency = now.saturating_sub(workload[q].at_s);
                    latencies[q] = latency as f64;
                    makespan = makespan.max(now);
                    telemetry.counter_add("run.queries_total", 1);
                    telemetry.observe("run.query_latency_seconds", latency as f64);
                    telemetry.span_event(
                        workload[q].at_s.saturating_mul(1000),
                        latency.saturating_mul(1000),
                        "query",
                        Some(q as u64),
                        None,
                        &workload[q].profile.name,
                    );
                } else {
                    // Unlock dependents.
                    for (ds, dstage) in workload[q].profile.stages.iter().enumerate() {
                        if dstage.deps.contains(&s) {
                            unfinished_deps[q][ds] = unfinished_deps[q][ds].saturating_sub(1);
                            if unfinished_deps[q][ds] == 0 {
                                release_stage(q, ds, workload, &mut ready);
                            }
                        }
                    }
                }
            }
        }
        // Schedule as many ready tasks as slots allow.
        while free > 0 {
            let Some(Reverse((key, count))) = ready.pop() else {
                break;
            };
            let launch = count.min(free);
            free -= launch;
            let dur = workload[key.query].profile.stages[key.stage].task_seconds as u64;
            for _ in 0..launch {
                completions.push(Reverse((now + dur, key.query, key.stage)));
            }
            if count > launch {
                ready.push(Reverse((key, count - launch)));
            }
        }
        // Advance.
        match next_event {
            Some(t) if t > now => now = t,
            Some(_) => {
                // Events at `now` were all consumed; jump to the next one.
                let peek = match (
                    arrivals.get(next_arrival).map(|&(t, _)| t),
                    completions.peek().map(|Reverse((t, _, _))| *t),
                ) {
                    (Some(a), Some(c)) => Some(a.min(c)),
                    (Some(a), None) => Some(a),
                    (None, Some(c)) => Some(c),
                    (None, None) => None,
                };
                match peek {
                    Some(t) => now = t.max(now),
                    None => break,
                }
            }
            None => break,
        }
    }

    let vm_seconds = slots as f64 * makespan as f64;
    let vm_cost = vm_seconds * env.pricing.vm_per_sec();
    telemetry.add_cost("fleet", "vm_compute", vm_cost);
    telemetry.gauge_set("run.duration_seconds", makespan as f64);
    Ok(RunResult {
        compute: ComputeCost {
            vm_cost,
            pool_cost: 0.0,
            vm_seconds,
            pool_seconds: 0.0,
        },
        shuffle: Default::default(),
        latencies,
        timeseries: None,
        duration_s: makespan,
        strategy: format!("delaying_{slots}"),
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cackle_workload::profile::{QueryProfile, StageProfile};
    use std::sync::Arc;

    fn two_stage(tasks: u32, secs: u32) -> Arc<QueryProfile> {
        Arc::new(QueryProfile::new(
            "q",
            vec![
                StageProfile {
                    tasks,
                    task_seconds: secs,
                    shuffle_bytes: 0,
                    shuffle_writes: 0,
                    shuffle_reads: 0,
                    deps: vec![],
                },
                StageProfile {
                    tasks: 1,
                    task_seconds: secs,
                    shuffle_bytes: 0,
                    shuffle_writes: 0,
                    shuffle_reads: 0,
                    deps: vec![0],
                },
            ],
        ))
    }

    #[test]
    fn unconstrained_slots_give_critical_path_latency() {
        let w = vec![QueryArrival {
            at_s: 0,
            profile: two_stage(4, 10),
        }];
        let r = run_delaying(&w, 100, &RunSpec::new());
        assert_eq!(r.latencies, vec![20.0]);
    }

    #[test]
    fn one_slot_serializes_tasks() {
        // 4 tasks × 10 s then 1 × 10 s on a single slot: 50 s.
        let w = vec![QueryArrival {
            at_s: 0,
            profile: two_stage(4, 10),
        }];
        let r = run_delaying(&w, 1, &RunSpec::new());
        assert_eq!(r.latencies, vec![50.0]);
        assert_eq!(r.duration_s, 50);
    }

    #[test]
    fn fifo_prioritizes_earlier_query() {
        let w = vec![
            QueryArrival {
                at_s: 0,
                profile: two_stage(2, 10),
            },
            QueryArrival {
                at_s: 1,
                profile: two_stage(2, 10),
            },
        ];
        let r = run_delaying(&w, 2, &RunSpec::new());
        // Query 0 takes both slots for 10 s, then its final stage runs with
        // query 1's scan; query 1 finishes later.
        assert!(r.latencies[0] < r.latencies[1]);
    }

    #[test]
    fn fewer_slots_cheaper_but_slower() {
        let w: Vec<QueryArrival> = (0..20)
            .map(|i| QueryArrival {
                at_s: i * 5,
                profile: two_stage(8, 20),
            })
            .collect();
        let spec = RunSpec::new();
        let tight = run_delaying(&w, 4, &spec);
        let roomy = run_delaying(&w, 64, &spec);
        assert!(tight.latency_percentile(95.0) > roomy.latency_percentile(95.0));
        assert!(tight.compute.total() < roomy.compute.total());
    }

    #[test]
    fn all_queries_eventually_finish() {
        let w: Vec<QueryArrival> = (0..50)
            .map(|i| QueryArrival {
                at_s: i,
                profile: two_stage(3, 7),
            })
            .collect();
        let r = run_delaying(&w, 2, &RunSpec::new());
        assert_eq!(r.latencies.len(), 50);
        assert!(r.latencies.iter().all(|&l| l >= 14.0));
    }

    #[test]
    fn zero_slots_rejected_and_telemetry_mirrors_costs() {
        use cackle_telemetry::Telemetry;
        let w = vec![QueryArrival {
            at_s: 0,
            profile: two_stage(4, 10),
        }];
        assert!(try_run_delaying(&w, 0, &RunSpec::new()).is_err());
        let t = Telemetry::new();
        let spec = RunSpec::new().with_telemetry(&t);
        let r = run_delaying(&w, 2, &spec);
        assert_eq!(t.counter("run.queries_total"), 1);
        assert!((t.cost("fleet", "vm_compute") - r.compute.vm_cost).abs() < 1e-12);
        assert_eq!(t.gauge("run.duration_seconds"), Some(r.duration_s as f64));
    }
}
