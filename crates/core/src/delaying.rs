//! Work-delaying system models (§5.5, §7.1.7, §7.1.8).
//!
//! Conventional OLAP systems schedule work until provisioned resources are
//! saturated and queue the rest. Every such baseline advances the same
//! stage graphs over the same clock and differs only in how capacity is
//! leased and billed, so the part they share is written once, as
//! [`QueuedRun`]: validated per-query stage progress, the arrival cursor,
//! the task-completion heap, latency recording and result assembly.
//!
//! [`run_delaying`] is the simplest of them: a fixed fleet of `n` VM
//! slots, tasks scheduled FIFO with priority to the earliest-submitted
//! query, stage barriers respected. It yields the cost/latency frontier
//! that Figure 11 contrasts with Cackle's elastic-pool points. The
//! warehouse products (`cackle-comparators`) put their own capacity rules
//! around the same core.

use crate::model::QueryArrival;
use crate::report::{ComputeCost, RunResult};
use crate::runloop::{record_query_done, validate_stage_graph, Progress, QueryGraph, Stage};
use crate::spec::{RunError, RunSpec};
use crate::system::profile_graphs;
use cackle_telemetry::{catalog, Telemetry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One run of a system that queues tasks for leased capacity, less the
/// capacity: which queries have arrived, which tasks are running until
/// when, how far every stage graph has got, and what each query's latency
/// was. The caller owns the slots — how many exist at each moment, which
/// ready task gets the next one, and what the lease costs — and drives
/// the clock: each second it visits, it takes the arrivals and the
/// completions due, [`launch`](Self::launch)es what its capacity admits,
/// and moves on to [`next_event_s`](Self::next_event_s) or an event of
/// its own.
///
/// Every stage graph is validated on construction, so a run that exists
/// cannot deadlock on a cycle or report a query that never ran.
pub struct QueuedRun<'a> {
    queries: Vec<QueryGraph<'a>>,
    /// Query indices by `(arrival second, index)`, consumed from the front.
    arrival_order: Vec<usize>,
    arrived: usize,
    /// Running tasks as `(finish second, query, stage)`.
    completions: BinaryHeap<Reverse<(u64, usize, usize)>>,
    latencies: Vec<f64>,
    finished: usize,
    makespan_s: u64,
    telemetry: Telemetry,
}

/// What one finished task changed, as [`QueuedRun::next_completion`]
/// reports it.
#[derive(Debug)]
pub struct TaskDone {
    /// The query the task belonged to.
    pub query: usize,
    /// It was the query's last task; the latency is recorded.
    pub query_done: bool,
    /// The stages it unblocked, as `(stage, tasks)`.
    pub ready: Vec<(usize, u32)>,
}

impl<'a> QueuedRun<'a> {
    /// Start a run of `workload` recording into `telemetry`; a query whose
    /// stage graph cannot execute is an [`RunError::InvalidWorkload`].
    pub fn try_new(workload: &'a [QueryArrival], telemetry: &Telemetry) -> Result<Self, RunError> {
        let queries: Vec<_> = profile_graphs(workload).collect();
        for (qi, q) in queries.iter().enumerate() {
            validate_stage_graph(qi, q.stages.iter().map(Stage::shape))?;
        }
        let mut arrival_order: Vec<usize> = (0..queries.len()).collect();
        arrival_order.sort_by_key(|&q| queries[q].at_s);
        Ok(QueuedRun {
            latencies: vec![0.0; queries.len()],
            queries,
            arrival_order,
            arrived: 0,
            completions: BinaryHeap::new(),
            finished: 0,
            makespan_s: 0,
            telemetry: telemetry.clone(),
        })
    }

    /// The earliest pending arrival or task completion, if any.
    pub fn next_event_s(&self) -> Option<u64> {
        let arrival = self.arrival_order.get(self.arrived);
        let arrival = arrival.map(|&q| self.queries[q].at_s);
        let completion = self.completions.peek().map(|Reverse((t, _, _))| *t);
        arrival.into_iter().chain(completion).min()
    }

    /// Every query has finished.
    pub fn is_finished(&self) -> bool {
        self.finished == self.queries.len()
    }

    /// Tasks holding a slot right now.
    pub fn running_tasks(&self) -> usize {
        self.completions.len()
    }

    /// The second the last query so far finished at.
    pub fn makespan_s(&self) -> u64 {
        self.makespan_s
    }

    /// The next query that has arrived by `now`, in arrival order.
    pub fn next_arrival(&mut self, now: u64) -> Option<usize> {
        let &query = self.arrival_order.get(self.arrived)?;
        (self.queries[query].at_s <= now).then(|| {
            self.arrived += 1;
            query
        })
    }

    /// The stages of `query` that wait for no other, as `(stage, tasks)`.
    pub fn roots(&self, query: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let q = &self.queries[query];
        q.roots().map(|s| (s, q.stages[s].remaining_tasks))
    }

    /// `tasks` tasks of a ready stage got a slot each and run until
    /// `finish_s`.
    pub fn launch(&mut self, finish_s: u64, query: usize, stage: usize, tasks: u32) {
        for _ in 0..tasks {
            self.completions.push(Reverse((finish_s, query, stage)));
        }
    }

    /// The next task that has finished by `now`; its slot is free again.
    pub fn next_completion(&mut self, now: u64) -> Option<TaskDone> {
        let &Reverse((finish_s, query, stage)) = self.completions.peek()?;
        if finish_s > now {
            return None;
        }
        self.completions.pop();
        let q = &mut self.queries[query];
        let progress = q.task_done(stage);
        let mut ready = Vec::new();
        match progress {
            Progress::Running => {}
            Progress::StageDone => {
                let unblocked = q.newly_ready(stage);
                ready.extend(unblocked.map(|s| (s, q.stages[s].remaining_tasks)));
            }
            Progress::QueryDone => {
                let latency_s = now.saturating_sub(q.at_s);
                self.latencies[query] = latency_s as f64;
                self.makespan_s = self.makespan_s.max(now);
                self.finished += 1;
                let (arrival_ms, latency_ms) =
                    (q.at_s.saturating_mul(1000), latency_s.saturating_mul(1000));
                record_query_done(&self.telemetry, query, q.name, arrival_ms, latency_ms);
            }
        }
        Some(TaskDone {
            query,
            query_done: progress == Progress::QueryDone,
            ready,
        })
    }

    /// Close the run: the lease — `vm_seconds` of capacity for `dollars`
    /// — is its whole bill, mirrored to telemetry under `component`.
    pub fn finish(
        self,
        vm_seconds: f64,
        dollars: f64,
        component: &str,
        label: String,
    ) -> RunResult {
        self.telemetry.add_cost(component, "vm_compute", dollars);
        self.telemetry
            .gauge_set(catalog::RUN_DURATION_SECONDS, self.makespan_s as f64);
        RunResult {
            compute: ComputeCost {
                vm_cost: dollars,
                pool_cost: 0.0,
                vm_seconds,
                pool_seconds: 0.0,
            },
            shuffle: Default::default(),
            latencies: self.latencies,
            duration_s: self.makespan_s,
            strategy: label,
            telemetry: self.telemetry,
        }
    }
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
    let mut run = QueuedRun::try_new(workload, &spec.telemetry)?;
    // Ready stages as (query arrival, query, stage, tasks not yet launched).
    let mut ready: BinaryHeap<Reverse<(u64, usize, usize, u32)>> = BinaryHeap::new();
    let mut free = slots;
    let mut now = 0u64;
    let queued = |q: usize| move |(s, tasks)| Reverse((workload[q].at_s, q, s, tasks));
    loop {
        while let Some(q) = run.next_arrival(now) {
            ready.extend(run.roots(q).map(queued(q)));
        }
        while let Some(done) = run.next_completion(now) {
            free += 1;
            ready.extend(done.ready.into_iter().map(queued(done.query)));
        }
        // Schedule as many ready tasks as slots allow.
        while free > 0 {
            let Some(Reverse((at_s, q, s, tasks))) = ready.pop() else {
                break;
            };
            let launch = tasks.min(free);
            free -= launch;
            let dur = workload[q].profile.stages[s].task_seconds as u64;
            run.launch(now + dur, q, s, launch);
            if tasks > launch {
                ready.push(Reverse((at_s, q, s, tasks - launch)));
            }
        }
        match run.next_event_s() {
            Some(t) => now = t.max(now),
            None => break,
        }
    }

    let vm_seconds = slots as f64 * run.makespan_s() as f64;
    let vm_cost = vm_seconds * spec.env.pricing.vm_per_sec();
    Ok(run.finish(vm_seconds, vm_cost, "fleet", format!("delaying_{slots}")))
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
        assert_eq!(t.cost("fleet", "vm_compute"), r.compute.vm_cost);
        assert_eq!(t.gauge("run.duration_seconds"), Some(r.duration_s as f64));
    }
}
