//! The coordinator's event loop (§3, §7.1), shared by every runner that
//! schedules individual tasks.
//!
//! The loop owns what the paper's coordinator owns: the event queue, the
//! execution [`VmFleet`] and the [`ElasticPool`] it overflows to, the
//! shuffle-node fleet and its provisioner, the [`StrategyClock`] its one
//! `Second` event advances, per-query stage counters, and the table of
//! task attempts with its recovery (see [`TaskAttempt`]). It is also the
//! one place a [`RunResult`] is assembled.
//!
//! What a task *is* does not enter into any of that: a [`TaskSource`] —
//! profile replay in [`crate::system`], real engine plans in
//! [`crate::live`] — hands the loop one [`TaskLaunch`] per task. The loop
//! is generic over the source (no dispatch on the per-task path) and
//! selects events by the data a launch carries, never by who is calling.

use crate::clock::StrategyClock;
use crate::factory::try_make_strategy;
use crate::report::{ComputeCost, RunResult, ShuffleCost};
use crate::shuffleprov::ShuffleProvisioner;
use crate::spec::{RunError, RunSpec};
use crate::strategy::ProvisioningStrategy;
use cackle_cloud::{
    CostCategory, CostLedger, ElasticPool, EventQueue, InvocationId, ObjectStore, Pricing,
    SimDuration, SimTime, VmFleet, VmId,
};
use cackle_faults::{EnvironmentSpec, FaultInjector, InjectionPoint, RecoveryPolicy};
use cackle_telemetry::{catalog, Telemetry};
use std::collections::VecDeque;
use std::sync::Arc;

/// One task handed to the loop: how long it occupies whichever slot the
/// scheduler finds for it.
pub(crate) struct TaskLaunch {
    /// Simulated seconds on a provisioned VM, before that VM's own
    /// environment slowdown.
    pub vm_secs: f64,
    /// Simulated seconds on the elastic pool.
    pub pool_secs: f64,
    /// Shuffle bytes the task publishes; a remote-region VM ships them
    /// out of region.
    pub publish_bytes: u64,
    /// `None` when the task has executed and published by the time it is
    /// launched: the loop then draws no spot hazard and schedules no
    /// duplicate check for it.
    pub recovery: Option<Recovery>,
}

/// What the reclaim draw and the duplicate check need to know about a
/// task that is still running while its slot is occupied.
#[derive(Clone, Copy)]
pub(crate) struct Recovery {
    /// Nominal seconds before jitter and slowdowns; a re-execution or a
    /// duplicate runs this long (times the pool slowdown).
    pub base_secs: f64,
    /// Un-straggled VM seconds of a task that drew a straggler slowdown;
    /// a duplicate check is due after them (times the policy's patience).
    pub unstraggled_secs: Option<f64>,
}

/// What a stage *is*: how long its tasks run and where its intermediate
/// state lives. Its object-store requests go through the run's
/// [`ObjectStore`], which the loop hands the source when it is made.
pub(crate) trait TaskSource {
    /// Start every task of a stage, with `shuffle_nodes` nodes running,
    /// and return one launch per task in task order. Sequential draws
    /// happen here, serially, so no stream position depends on a worker
    /// count.
    fn launch_stage(&mut self, query: usize, stage: usize, shuffle_nodes: usize)
        -> Vec<TaskLaunch>;

    /// The last task of a stage published; nothing to account where
    /// tasks move their bytes as they run.
    fn stage_finished(&mut self, _query: usize, _stage: usize, _shuffle_nodes: usize) {}

    /// The last stage of a query finished; its intermediate state can go.
    fn query_finished(&mut self, query: usize);

    /// Intermediate bytes the shuffle-node provisioner should size for.
    fn resident_bytes(&self) -> u64;
}

/// One stage of a query's graph.
pub(crate) struct Stage {
    /// Tasks that have not published yet; the stage's task count at first.
    pub remaining_tasks: u32,
    /// Upstream stages.
    pub deps: Vec<usize>,
}

impl Stage {
    /// `(tasks, dependencies)`, as [`validate_stage_graph`] reads it.
    pub(crate) fn shape(&self) -> (u32, &[usize]) {
        (self.remaining_tasks, &self.deps)
    }
}

/// One query as the loop sees it.
pub(crate) struct QueryGraph<'a> {
    /// Arrival second.
    pub at_s: u64,
    /// What telemetry calls the query.
    pub name: &'a str,
    pub stages: Vec<Stage>,
}

/// What one published task did to its query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Progress {
    /// The stage still has unpublished tasks.
    Running,
    /// The stage's last task: see [`QueryGraph::newly_ready`].
    StageDone,
    /// The query's last task.
    QueryDone,
}

impl QueryGraph<'_> {
    /// A stage can launch once every upstream stage has published.
    fn is_ready(&self, stage: usize) -> bool {
        let mut deps = self.stages[stage].deps.iter();
        deps.all(|&d| self.stages[d].remaining_tasks == 0)
    }

    /// One task of `stage` published.
    pub(crate) fn task_done(&mut self, stage: usize) -> Progress {
        let remaining = &mut self.stages[stage].remaining_tasks;
        *remaining = remaining.saturating_sub(1);
        if *remaining > 0 {
            Progress::Running
        } else if self.stages.iter().all(|s| s.remaining_tasks == 0) {
            Progress::QueryDone
        } else {
            Progress::StageDone
        }
    }

    /// The stages with no upstream, which launch when the query arrives.
    pub(crate) fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.stages.len()).filter(|&si| self.stages[si].deps.is_empty())
    }

    /// The stages that waited only for `finished`, a stage whose last
    /// task just published.
    pub(crate) fn newly_ready(&self, finished: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.stages.len())
            .filter(move |&si| self.stages[si].deps.contains(&finished) && self.is_ready(si))
    }
}

/// A query finished: the counter, the latency histogram and the
/// arrival-to-completion span every runner's dump carries.
pub(crate) fn record_query_done(
    telemetry: &Telemetry,
    index: usize,
    name: &str,
    arrival_ms: u64,
    latency_ms: u64,
) {
    telemetry.add(catalog::RUN_QUERIES_TOTAL, 1);
    telemetry.record(
        catalog::RUN_QUERY_LATENCY_SECONDS,
        latency_ms as f64 / 1000.0,
    );
    telemetry.span_event(
        arrival_ms,
        latency_ms,
        "query",
        Some(index as u64),
        None,
        name,
    );
}

/// Check that query number `query`'s stage graph, given as each stage's
/// `(tasks, dependencies)`, can actually execute: at least one stage, at
/// least one task per stage, and every dependency an earlier stage — the
/// contract `QueryProfile::new` and `StageDag::new` assert, which rules
/// out missing stages and cycles (a cycle would deadlock the event loop).
/// A stage may name one upstream twice: every runner reads a stage's
/// dependencies as a set. Allocates nothing unless the graph is rejected.
pub(crate) fn validate_stage_graph<'s>(
    query: usize,
    stages: impl IntoIterator<Item = (u32, &'s [usize])>,
) -> Result<(), RunError> {
    let invalid = |what: String| Err(RunError::InvalidWorkload(format!("query {query} {what}")));
    let mut count = 0;
    for (si, (tasks, deps)) in stages.into_iter().enumerate() {
        if tasks == 0 {
            return invalid(format!("stage {si} has zero tasks"));
        }
        if let Some(d) = deps.iter().find(|&&d| d >= si) {
            return invalid(format!(
                "stage {si} depends on stage {d}, not an earlier one"
            ));
        }
        count += 1;
    }
    if count == 0 {
        return invalid("has no stages".to_string());
    }
    Ok(())
}

/// Where a task ran.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Vm(VmId),
    Pool(InvocationId),
}

#[derive(Debug)]
enum Ev {
    Arrive(usize),
    TaskDone {
        token: u64,
        slot: Slot,
        /// This copy is the straggler duplicate, not the primary.
        dup: bool,
    },
    /// A spot VM is reclaimed mid-task; the attempt re-executes on the
    /// pool (unless a duplicate already finished it).
    Interrupted {
        token: u64,
        vm: VmId,
    },
    /// Retry a pool launch whose invoke was failed by the fault plan,
    /// after deterministic backoff.
    PoolLaunch {
        token: u64,
        dur_s: f64,
        attempt: u32,
        dup: bool,
    },
    /// Straggler patience elapsed: launch a duplicate if the task is
    /// still unfinished.
    DupCheck {
        token: u64,
    },
    /// A whole second ended: the strategy clock advances and, on a tick
    /// second, the fleet takes the new target.
    Second,
}

/// One logical task in flight, possibly backed by several physical
/// copies over its lifetime (spot re-executions, pool retry chains, a
/// straggler duplicate). Shuffle writes are idempotent: only the first
/// completion publishes stage output, so extra copies cost compute but
/// never double-count work.
#[derive(Debug)]
struct TaskAttempt {
    query: usize,
    stage: usize,
    /// [`Recovery::base_secs`]; zero and unused without recovery data.
    base_secs: f64,
    /// [`TaskLaunch::publish_bytes`].
    publish_bytes: u64,
    /// A copy already completed and was credited to the stage.
    done: bool,
    /// Physical copies alive: scheduled completion/interruption events
    /// plus pool retry chains still backing off.
    copies: u32,
}

/// The attempts in flight, indexed by token: slot `i` holds token
/// `base + i`. Tokens are handed out in increasing order, so admitting an
/// attempt is a push at the back; retiring one empties its slot, and the
/// empty slots at the front are popped, so the window spans only the
/// oldest attempt still in flight to the newest. A slot is never reused:
/// an event naming a retired token — a `DupCheck` that fires after its
/// task finished, a `PoolLaunch` after a duplicate won — reads `None`,
/// never a newer task.
#[derive(Default)]
struct AttemptWindow {
    /// The token of the front slot.
    base: u64,
    slots: VecDeque<Option<TaskAttempt>>,
}

impl AttemptWindow {
    /// Admit an attempt under the next token.
    fn push(&mut self, attempt: TaskAttempt) -> u64 {
        let token = self.base + self.slots.len() as u64;
        self.slots.push_back(Some(attempt));
        token
    }

    fn index(&self, token: u64) -> Option<usize> {
        usize::try_from(token.checked_sub(self.base)?).ok()
    }

    /// The attempt under `token`; `None` once retired or never admitted.
    fn get(&self, token: u64) -> Option<&TaskAttempt> {
        self.slots.get(self.index(token)?)?.as_ref()
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut TaskAttempt> {
        let i = self.index(token)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Drop the attempt under `token`, then advance `base` past the
    /// retired prefix.
    fn retire(&mut self, token: u64) {
        if let Some(slot) = self.index(token).and_then(|i| self.slots.get_mut(i)) {
            *slot = None;
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// Run a workload to completion: validate the spec's knobs and every
/// query's stage graph before any event is scheduled, then drive the
/// event loop. Without a `strategy` one is built from the spec's label
/// (after validation, so a malformed workload is reported first).
/// `make_source` gets the run's telemetry sink, fault injector and
/// object store (faults injected); the finished source comes back beside
/// the result.
pub(crate) fn run<'a, S: TaskSource>(
    spec: &RunSpec,
    workload: impl Iterator<Item = QueryGraph<'a>>,
    strategy: Option<&mut dyn ProvisioningStrategy>,
    make_source: impl FnOnce(&Telemetry, &FaultInjector, &Arc<ObjectStore>) -> S,
) -> Result<(RunResult, S), RunError> {
    spec.validate()?;
    let queries: Vec<_> = workload.collect();
    for (qi, q) in queries.iter().enumerate() {
        validate_stage_graph(qi, q.stages.iter().map(Stage::shape))?;
    }
    let mut from_label;
    let strategy = match strategy {
        Some(strategy) => strategy,
        None => {
            from_label = try_make_strategy(&spec.strategy, &spec.env)?;
            from_label.as_mut()
        }
    };
    let env = &spec.env;
    let pricing = &env.pricing;
    let telemetry = spec.telemetry.clone();
    let market = spec.price_timeline();
    let mut clock = StrategyClock::new(strategy, spec, market.clone());
    let faults = spec.fault_injector(&telemetry)?;
    let store = Arc::new(ObjectStore::new(pricing.clone()));
    store.inject_faults(&faults);
    let mut st = Coordinator {
        spec,
        source: make_source(&telemetry, &faults, &store),
        store,
        events: EventQueue::new(),
        fleet: VmFleet::new(pricing.clone()),
        pool: ElasticPool::new(pricing.clone()),
        shuffle_fleet: VmFleet::with_category(pricing.clone(), CostCategory::ShuffleNode),
        running: 0,
        max_since_sample: 0,
        environment: faults.environment(),
        faults,
        attempts: AttemptWindow::default(),
        recovery_ledger: CostLedger::new(),
        env_ledger: CostLedger::new(),
        queries,
        fatal: None,
    };
    st.fleet.instrument(&telemetry);
    st.pool.instrument(&telemetry);
    st.shuffle_fleet.instrument(&telemetry);
    // Both fleets integrate the run's price timeline (flat without
    // spot-market motion) at termination time; the clock reprices the
    // strategy from the same timeline.
    st.fleet.set_price_timeline(market.clone());
    st.shuffle_fleet.set_price_timeline(market);
    let mut shuffle_prov = ShuffleProvisioner::new(env);
    let total = st.queries.len();
    let mut latencies = vec![0.0f64; total];
    let mut done = 0usize;

    for (i, q) in st.queries.iter().enumerate() {
        st.events
            .schedule(SimTime::from_secs(q.at_s), Ev::Arrive(i));
    }
    if total > 0 {
        st.events.schedule(SimTime::ZERO, Ev::Second);
    }

    while let Some((now, ev)) = st.events.pop() {
        match ev {
            Ev::Arrive(query) => {
                let roots: Vec<usize> = st.queries[query].roots().collect();
                for stage in roots {
                    st.launch_stage(now, query, stage);
                }
            }
            Ev::TaskDone { token, slot, dup } => {
                match slot {
                    Slot::Vm(id) => st.fleet.release(now, id),
                    Slot::Pool(id) => {
                        st.pool.complete(now, id);
                    }
                }
                st.running = st.running.saturating_sub(1);
                let Some(a) = st.attempts.get_mut(token) else {
                    debug_assert!(false, "completion for unknown attempt {token}");
                    continue;
                };
                a.copies = a.copies.saturating_sub(1);
                let first = !a.done;
                a.done = true;
                let (query, stage, bytes) = (a.query, a.stage, a.publish_bytes);
                if a.copies == 0 {
                    st.attempts.retire(token);
                }
                if !first {
                    // The losing copy of a duplicate pair: its slot is
                    // released and its compute was billed, but shuffle
                    // writes are idempotent — nothing further publishes.
                    continue;
                }
                if dup {
                    st.faults.note_duplicate_win();
                }
                if let Slot::Vm(id) = slot {
                    st.bill_egress(&telemetry, id, bytes);
                }
                let progress = st.queries[query].task_done(stage);
                if progress == Progress::Running {
                    continue;
                }
                st.source
                    .stage_finished(query, stage, st.shuffle_fleet.running_count());
                let q = &st.queries[query];
                if progress == Progress::QueryDone {
                    let arrival = SimTime::from_secs(q.at_s);
                    let latency = now - arrival;
                    latencies[query] = latency.as_secs_f64();
                    st.source.query_finished(query);
                    done += 1;
                    let (arrival_ms, latency_ms) = (arrival.as_millis(), latency.as_millis());
                    record_query_done(&telemetry, query, q.name, arrival_ms, latency_ms);
                    continue;
                }
                let ready: Vec<usize> = q.newly_ready(stage).collect();
                for si in ready {
                    st.launch_stage(now, query, si);
                }
            }
            Ev::Interrupted { token, vm } => {
                // The provider reclaims the VM; the attempt re-executes
                // from scratch on the elastic pool (run-to-completion
                // tasks have no partial progress to save).
                st.fleet.reclaim(now, vm);
                match st.attempts.get(token) {
                    // A duplicate already finished this task; the
                    // reclaimed copy just disappears.
                    Some(a) if a.done => st.drop_copy(token),
                    Some(a) => {
                        let base_secs = a.base_secs;
                        st.faults.note_reexec();
                        st.recover_on_pool(now, token, base_secs, false);
                    }
                    None => debug_assert!(false, "interrupt for unknown attempt {token}"),
                }
            }
            Ev::PoolLaunch {
                token,
                dur_s,
                attempt,
                dup,
            } => {
                if st.attempts.get(token).is_some_and(|a| !a.done) {
                    st.launch_on_pool(now, token, dur_s, attempt, dup);
                } else {
                    // A duplicate finished the task while this copy was
                    // backing off; abandon the retry chain.
                    st.drop_copy(token);
                }
            }
            Ev::DupCheck { token } => {
                // Each task gets at most one check. First completed copy
                // wins; the duplicate runs at nominal (non-straggled)
                // speed on the pool.
                if let Some(a) = st.attempts.get_mut(token).filter(|a| !a.done) {
                    a.copies += 1;
                    let base_secs = a.base_secs;
                    st.faults.note_duplicate();
                    st.running += 1;
                    st.max_since_sample = st.max_since_sample.max(st.running);
                    st.recover_on_pool(now, token, base_secs, true);
                }
            }
            Ev::Second => {
                // The peak concurrency of the second that just ended.
                let demand = st.max_since_sample.max(st.running);
                st.max_since_sample = st.running;
                if let Some(target) = clock.second(demand).target {
                    st.fleet.set_target(now, target as usize);
                }
                st.poll_fleet(now);
                st.shuffle_fleet.poll(now);
                let shuffle_target = shuffle_prov.target_nodes(st.source.resident_bytes());
                st.shuffle_fleet.set_target(now, shuffle_target as usize);
                clock.record(st.fleet.running_count());
                if done < total || st.running > 0 {
                    st.events
                        .schedule(now + SimDuration::from_secs(1), Ev::Second);
                } else {
                    st.fleet.set_target(now, 0);
                    st.shuffle_fleet.set_target(now, 0);
                }
            }
        }
        // An event that exhausted a recovery bound is still handled to
        // its end, so the sink counts everything it injected, and the
        // dump keeps the spend so far. A store request that failed every
        // attempt during the event ends the run like a pool chain does.
        if let (None, Some(point)) = (&st.fatal, st.faults.keyed_exhaustion()) {
            st.unrecovered(point, st.faults.policy().max_retries.saturating_add(1));
        }
        if let Some(e) = st.fatal.take() {
            st.record_costs(&telemetry);
            return Err(e);
        }
    }

    let end = SimTime::from_secs(clock.seconds());
    st.fleet.set_target(end, 0);
    st.fleet.finalize(end);
    st.shuffle_fleet.finalize(end);
    let store_ledger = st.record_costs(&telemetry);
    let vm_ledger = st.fleet.ledger();
    let pool_ledger = st.pool.ledger();
    let node_ledger = st.shuffle_fleet.ledger();
    telemetry.gauge_set(catalog::RUN_DURATION_SECONDS, clock.seconds() as f64);

    // The result's cost fields are f64 dollars: the ledgers' money is
    // converted here, once, exactly as `record_costs` wrote it.
    let result = RunResult {
        compute: ComputeCost {
            vm_cost: vm_ledger.category(CostCategory::VmCompute).dollars(),
            pool_cost: pool_ledger.category(CostCategory::ElasticPool).dollars(),
            vm_seconds: vm_ledger.vm_seconds,
            pool_seconds: pool_ledger.pool_seconds,
        },
        shuffle: ShuffleCost {
            node_cost: node_ledger.category(CostCategory::ShuffleNode).dollars(),
            s3_put_cost: store_ledger.category(CostCategory::S3Put).dollars(),
            s3_get_cost: store_ledger.category(CostCategory::S3Get).dollars(),
            egress_cost: st.env_ledger.category(CostCategory::Egress).dollars(),
            puts: store_ledger.put_requests,
            gets: store_ledger.get_requests,
        },
        latencies,
        duration_s: clock.seconds(),
        strategy: clock.strategy_name(),
        telemetry,
    };
    Ok((result, st.source))
}

/// Everything the event handlers mutate while scheduling tasks.
struct Coordinator<'a, S> {
    spec: &'a RunSpec,
    source: S,
    /// Every object-store request of the run, counted, retried and
    /// priced in one place.
    store: Arc<ObjectStore>,
    events: EventQueue<Ev>,
    fleet: VmFleet,
    pool: ElasticPool,
    shuffle_fleet: VmFleet,
    running: u32,
    max_since_sample: u32,
    /// Seeded fault plan + recovery policy; disabled when the effective
    /// spec is all-zero (the guaranteed no-op path).
    faults: FaultInjector,
    /// The effective environment spec (zero when the run carries none),
    /// cached so the hot completion path never locks the injector just
    /// to learn the environment is inert.
    environment: EnvironmentSpec,
    /// Task attempts in flight, by token.
    attempts: AttemptWindow,
    /// Extra compute attributable to fault recovery — duplicate launches
    /// and spot re-executions. Telemetry attribution only (component
    /// `recovery`); the pool's own ledger already bills the real
    /// resources, so this is never added to the `RunResult` totals.
    recovery_ledger: CostLedger,
    /// Cross-region shuffle-egress charges from the environment model's
    /// second region, recorded as component `env`. Its `Egress`
    /// category becomes [`ShuffleCost::egress_cost`] in the result.
    env_ledger: CostLedger,
    queries: Vec<QueryGraph<'a>>,
    /// Set when recovery exhausts its bound; aborts the event loop with a
    /// typed error instead of panicking or hanging.
    fatal: Option<RunError>,
}

impl<S: TaskSource> Coordinator<'_, S> {
    /// Write every ledger's totals into the run's cost table, once per
    /// run: from the finished run, or from an aborted one before its
    /// error returns. The store also states its request counts and the
    /// retried share of its bill. Returns the store ledger, taken for the
    /// result.
    fn record_costs(&mut self, telemetry: &Telemetry) -> CostLedger {
        let store = self.store.ledger();
        self.fleet.ledger().record("fleet", telemetry);
        self.pool.ledger().record("pool", telemetry);
        self.shuffle_fleet
            .ledger()
            .record("shuffle_fleet", telemetry);
        store.record("store", telemetry);
        self.env_ledger.record("env", telemetry);
        self.recovery_ledger.record("recovery", telemetry);
        self.store.retried().record("recovery", telemetry);
        telemetry.add(catalog::STORE_PUT_REQUESTS_TOTAL, store.put_requests);
        telemetry.add(catalog::STORE_GET_REQUESTS_TOTAL, store.get_requests);
        store
    }

    /// Poll the execution fleet and tag every newly started VM with its
    /// persistent environment traits: records the `env.vm_slowdown`
    /// histogram and regional counters, and installs the remote-region
    /// billing rate on the fleet. A zero environment records and tags
    /// nothing, so the poll stays a bit-identical no-op.
    fn poll_fleet(&mut self, now: SimTime) {
        for id in self.fleet.poll(now) {
            let traits = self.faults.vm_started(id.0);
            if traits.rate_milli != 1000 {
                self.fleet.set_vm_rate_milli(id, traits.rate_milli);
            }
        }
    }

    /// Cross-region egress: a remote VM publishing its shuffle output
    /// ships the task's `bytes` out of region, billed through the env
    /// ledger (only the winning copy publishes, so egress is never
    /// double-charged).
    fn bill_egress(&mut self, telemetry: &Telemetry, vm: VmId, bytes: u64) {
        let remote =
            self.environment.remote_vm_fraction > 0.0 && self.faults.vm_traits(vm.0).remote;
        if remote && bytes > 0 {
            telemetry.add(catalog::ENV_EGRESS_BYTES_TOTAL, bytes);
            let cost = Pricing::egress(bytes, self.environment.egress_micros_per_gib);
            self.env_ledger.bill(CostCategory::Egress, cost);
        }
    }

    /// A physical copy ended without completing (abandoned retry chain,
    /// reclaimed after a duplicate won); drop the attempt record once the
    /// last copy is gone.
    fn drop_copy(&mut self, token: u64) {
        self.running = self.running.saturating_sub(1);
        if let Some(a) = self.attempts.get_mut(token) {
            a.copies = a.copies.saturating_sub(1);
            if a.copies == 0 && a.done {
                self.attempts.retire(token);
            }
        }
    }

    /// Launch a fresh copy of a recoverable task on the pool — the
    /// re-execution after a reclaim, or a straggler's duplicate — and
    /// attribute its compute to the recovery ledger.
    fn recover_on_pool(&mut self, now: SimTime, token: u64, base_secs: f64, dup: bool) {
        let dur_s = base_secs * self.spec.pool_slowdown;
        let pricing = &self.spec.env.pricing;
        let cost = pricing.pool_cost(SimDuration::from_secs_f64(dur_s));
        self.recovery_ledger.bill(CostCategory::ElasticPool, cost);
        self.launch_on_pool(now, token, dur_s, 0, dup);
    }

    /// An operation at `point` failed all `attempts`: count it and end
    /// the run with a typed error once the current event is handled.
    fn unrecovered(&mut self, point: InjectionPoint, attempts: u32) {
        self.faults.note_unrecovered(point);
        self.fatal = Some(RunError::FaultUnrecovered {
            point: point.as_str(),
            attempts,
        });
    }

    /// Launch (or relaunch) a copy of `token` on the elastic pool. An
    /// injected invoke failure retries with deterministic backoff via a
    /// [`Ev::PoolLaunch`] event; once the policy's bound is exhausted the
    /// run aborts with [`RunError::FaultUnrecovered`].
    fn launch_on_pool(&mut self, now: SimTime, token: u64, dur_s: f64, attempt: u32, dup: bool) {
        if let Some((id, start)) = self.pool.invoke_faulted(now, &self.faults) {
            let slot = Slot::Pool(id);
            self.events.schedule(
                start + SimDuration::from_secs_f64(dur_s),
                Ev::TaskDone { token, slot, dup },
            );
            return;
        }
        let policy = self.faults.policy();
        if !policy.allows_retry(attempt) {
            self.unrecovered(InjectionPoint::PoolInvoke, attempt + 1);
            return;
        }
        let backoff = policy.backoff_ms(attempt);
        self.faults.note_retry(backoff);
        self.events.schedule(
            now + SimDuration::from_millis(backoff),
            Ev::PoolLaunch {
                token,
                dur_s,
                attempt: attempt + 1,
                dup,
            },
        );
    }

    /// Ask the source for a stage's tasks and place each on a provisioned
    /// VM if one is idle, on the elastic pool otherwise. Serial and in
    /// task order: token allocation, capacity bookkeeping, the spot draw
    /// and event scheduling are order-sensitive state.
    fn launch_stage(&mut self, now: SimTime, query: usize, stage: usize) {
        let nodes = self.shuffle_fleet.running_count();
        for launch in self.source.launch_stage(query, stage, nodes) {
            let token = self.attempts.push(TaskAttempt {
                query,
                stage,
                base_secs: launch.recovery.map_or(0.0, |r| r.base_secs),
                publish_bytes: launch.publish_bytes,
                done: false,
                copies: 1,
            });
            self.running += 1;
            self.max_since_sample = self.max_since_sample.max(self.running);
            let vm = self.fleet.try_assign(now);
            match vm {
                Some(id) => {
                    // Persistent per-VM heterogeneity: the environment's
                    // seed-keyed slowdown stretches every task this VM
                    // runs. An inert environment yields exactly 1.0, a
                    // bit-identical no-op multiply.
                    let dur_s = launch.vm_secs * self.faults.vm_traits(id.0).slowdown;
                    // Spot interruptions: a VM task survives its duration
                    // with probability exp(-rate × duration); otherwise
                    // the VM is reclaimed at a uniformly random point
                    // through the task. Drawn from the plan's spot stream;
                    // the hazard rises inside compiled reclaim-storm
                    // windows.
                    let reclaimed_at = launch
                        .recovery
                        .and_then(|_| self.faults.vm_interrupt_at(now.as_secs(), dur_s));
                    let (after_s, ev) = match reclaimed_at {
                        Some(frac) => (dur_s * frac, Ev::Interrupted { token, vm: id }),
                        None => {
                            let slot = Slot::Vm(id);
                            let dup = false;
                            (dur_s, Ev::TaskDone { token, slot, dup })
                        }
                    };
                    self.events
                        .schedule(now + SimDuration::from_secs_f64(after_s), ev);
                }
                None => self.launch_on_pool(now, token, launch.pool_secs, 0, false),
            }
            // A straggler gets a duplicate check once its un-straggled
            // duration (times the policy's patience factor) has elapsed.
            if let Some(vm_nominal_s) = launch.recovery.and_then(|r| r.unstraggled_secs) {
                let nominal_s = match vm {
                    Some(_) => vm_nominal_s,
                    None => vm_nominal_s * self.spec.pool_slowdown,
                };
                self.events.schedule(
                    now + SimDuration::from_secs_f64(
                        nominal_s * RecoveryPolicy::STRAGGLER_PATIENCE,
                    ),
                    Ev::DupCheck { token },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attempt(stage: usize) -> TaskAttempt {
        TaskAttempt {
            query: 0,
            stage,
            base_secs: 0.0,
            publish_bytes: 0,
            done: false,
            copies: 1,
        }
    }

    fn stages(w: &AttemptWindow, tokens: std::ops::Range<u64>) -> Vec<Option<usize>> {
        tokens.map(|t| w.get(t).map(|a| a.stage)).collect()
    }

    #[test]
    fn attempt_window_retires_out_of_order() {
        let mut w = AttemptWindow::default();
        let tokens: Vec<u64> = (0..5).map(|s| w.push(attempt(s))).collect();
        assert_eq!(tokens, [0, 1, 2, 3, 4]);
        // Retiring behind a live front leaves `base` where it is.
        w.retire(3);
        w.retire(1);
        assert_eq!((w.base, w.slots.len()), (0, 5));
        assert_eq!(stages(&w, 0..5), [Some(0), None, Some(2), None, Some(4)]);
        // `base` advances only past a retired prefix: 0, then 1 with it.
        w.retire(0);
        assert_eq!((w.base, w.slots.len()), (2, 3));
        w.get_mut(2).unwrap().done = true;
        assert!(w.get(2).unwrap().done);
        // Retiring the new front pops 2 and the already-retired 3.
        w.retire(2);
        assert_eq!((w.base, w.slots.len()), (4, 1));
        // Retiring a token twice, or one outside the window, changes nothing.
        w.retire(1);
        w.retire(9);
        assert_eq!((w.base, w.slots.len()), (4, 1));
        // Tokens keep increasing: none is ever handed out twice.
        assert_eq!(w.push(attempt(5)), 5);
        assert_eq!(
            stages(&w, 0..7),
            [None, None, None, None, Some(4), Some(5), None]
        );
    }

    #[test]
    fn attempt_window_reads_none_outside_live_tokens() {
        let mut w = AttemptWindow::default();
        for s in 0..6 {
            w.push(attempt(s));
        }
        w.retire(0);
        w.retire(1);
        w.retire(3);
        assert_eq!(w.base, 2);
        // Below `base`, retired in the middle, and past the end.
        assert!(w.get(1).is_none());
        assert!(w.get_mut(0).is_none());
        assert!(w.get(3).is_none());
        assert!(w.get_mut(3).is_none());
        assert!(w.get(6).is_none());
        assert!(w.get_mut(u64::MAX).is_none());
        assert_eq!(w.get(4).map(|a| a.stage), Some(4));
    }

    #[test]
    fn attempt_window_drains_to_empty() {
        let mut w = AttemptWindow::default();
        for s in 0..100 {
            w.push(attempt(s));
        }
        // Retire in a scrambled order (37 is coprime with 100).
        for i in 0..100u64 {
            w.retire(i * 37 % 100);
        }
        assert!(w.slots.is_empty());
        assert_eq!(w.base, 100);
        assert_eq!(w.push(attempt(0)), 100);
    }
}
