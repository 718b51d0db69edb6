//! The two passes over one workload. Both are a closed loop with one
//! client: ops run back to back, the next one starts when the previous
//! one returned, and the benchmark adds no threads of its own.
//!
//! * [`end_to_end`] — untraced: a set-up, ops through the product's plain
//!   entry points for `--seconds` (and at least `min_ops`), the
//!   correctness gate, then two more complete set-ups for `setup_s`.
//! * [`per_layer`] — traced: plain and traced ops alternating for half as
//!   long (so a quarter as many traced ops), one counting op with a sink,
//!   then the layer probes.

use crate::metrics::{end_to_end_table, extra_table, per_layer_table, Row, Rows};
use crate::probes;
use crate::stats::{median, samples_beyond, sorted, TAIL_MIN_BEYOND};
use crate::trace::{durations, Span, Tracer};
use crate::workloads::{Input, OpResult, Shape, Workload};
use cackle::model::workload_curves;
use cackle::{oracle_cost, Telemetry, Timeseries};
use std::time::Instant;

/// How long and how much one pass measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Length of the timed window.
    pub seconds: f64,
    /// Fewest timed ops, however long they take. The simulated metrics
    /// are computed over exactly the first `min_ops` ops, so they repeat
    /// for a fixed seed whatever the host's speed.
    pub min_ops: usize,
    /// Untimed ops per set-up (first live ops ran 2–3x slower than
    /// settled ones); their time counts in `setup_s`.
    pub warmup_ops: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Samples behind each layer probe's median.
    pub probe_reps: usize,
}

impl Plan {
    pub fn full(seconds: f64) -> Plan {
        Plan {
            seconds,
            min_ops: 100,
            warmup_ops: 8,
            setups: 3,
            probe_reps: 5,
        }
    }

    /// Exercises every code path in a few seconds; its numbers mean nothing.
    pub fn smoke() -> Plan {
        Plan {
            seconds: 1.0,
            min_ops: 10,
            warmup_ops: 2,
            setups: 1,
            probe_reps: 1,
        }
    }
}

/// What a pass hands back to `main`.
pub struct Outcome {
    pub rows: Vec<Row>,
    /// Rows reported beside the contract's (`metrics::EXTRA`).
    pub extra: Vec<Row>,
    pub timed_ops: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed, and caveats about the numbers.
    pub notes: Vec<String>,
}

/// Attempt/failure accounting shared by both passes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Count one attempt; keep the reason if it failed.
    fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(why) => {
                self.failed += 1;
                if self.notes.len() < 20 {
                    self.notes.push(format!("{what}: {why}"));
                }
                None
            }
        }
    }
}

/// Per-op checks: nothing lost, the bill adds up, faults all recovered.
fn check_op(shape: &Shape, r: &OpResult) -> Result<(), String> {
    let expected = shape.queries_per_op();
    if r.run.latencies.len() != expected {
        return Err(format!(
            "{} of {expected} queries completed",
            r.run.latencies.len()
        ));
    }
    if let Some(bad) = r
        .run
        .latencies
        .iter()
        .find(|l| !l.is_finite() || **l <= 0.0)
    {
        return Err(format!("a query reports latency {bad}"));
    }
    let (compute, shuffle, total) = (
        r.run.compute_cost_micros(),
        r.run.shuffle_cost_micros(),
        r.run.total_cost_micros(),
    );
    if compute + shuffle != total || total <= 0 {
        return Err(format!(
            "compute {compute} + shuffle {shuffle} micro-dollars against a total of {total}"
        ));
    }
    if let Some(s) = r.serve {
        if s.attributed_micros != total {
            return Err(format!(
                "tenants were attributed {} micro-dollars of {total}",
                s.attributed_micros
            ));
        }
        if s.admitted != expected as u64 || s.rejected != 0 {
            return Err(format!(
                "{} admitted, {} rejected of {expected}",
                s.admitted, s.rejected
            ));
        }
    }
    let unrecovered = r.run.telemetry.counter("recovery.unrecovered_total");
    if unrecovered != 0 {
        return Err(format!("{unrecovered} injected faults went unrecovered"));
    }
    Ok(())
}

/// Set the workload up from scratch and run its warm-up ops.
fn set_up(shape: Shape, seed: u64, plan: &Plan, tally: &mut Tally) -> Workload {
    let w = Workload::set_up(shape, seed);
    for i in 0..plan.warmup_ops as u64 {
        let input = w.prepare(seed, i);
        let outcome = w.run(&input).and_then(|r| check_op(&shape, &r));
        tally.record(&format!("warm-up op {i}"), outcome);
    }
    w
}

/// The untraced pass: the end-to-end rows.
pub fn end_to_end(shape: Shape, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    // The first set-up serves the timed window; the others are timed
    // after it (below), so peak memory is that of one set-up and its ops
    // and does not depend on what earlier set-ups left in the heap.
    let mut setup_s = Vec::with_capacity(plan.setups);
    let t = Instant::now();
    let w = set_up(shape, seed, plan, &mut tally);
    setup_s.push(t.elapsed().as_secs_f64());

    let mut op_ms: Vec<f64> = Vec::new();
    let mut queries_done = 0usize;
    // Simulated results of the first `min_ops` ops.
    let (mut sim_micros, mut sim_queries) = (0i64, 0usize);
    let mut sim_latencies: Vec<f64> = Vec::new();
    let mut first: Option<(i64, Vec<f64>)> = None;
    let window = Instant::now();
    let mut i = 0usize;
    while i < plan.min_ops || window.elapsed().as_secs_f64() < plan.seconds {
        let input = w.prepare(seed, i as u64);
        let t = Instant::now();
        let result = w.run(&input);
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let checked = result.and_then(|r| check_op(&shape, &r).map(|()| r));
        if let Some(r) = tally.record(&format!("op {i}"), checked) {
            queries_done += r.run.latencies.len();
            if i < plan.min_ops {
                sim_micros += r.run.total_cost_micros();
                sim_queries += r.run.latencies.len();
                sim_latencies.extend_from_slice(&r.run.latencies);
            }
            if i == 0 {
                first = Some((r.run.total_cost_micros(), r.run.latencies));
            }
        }
        i += 1;
    }
    let peak_rss_mib = crate::host::peak_rss_mib().ok_or("cannot read VmHWM from /proc")?;

    // The gate: op 0 again must reproduce its bill and latencies exactly
    // (integer micro-dollars, not f64 bits of dollars), and the live
    // workloads' answers must equal a one-worker reference execution.
    let input0 = w.prepare(seed, 0);
    let again = match (&first, w.run(&input0)) {
        (None, _) => Err("op 0 failed, so there is nothing to reproduce".to_string()),
        (_, Err(why)) => Err(why),
        (Some((micros, latencies)), Ok(r)) => {
            if *micros != r.run.total_cost_micros() {
                Err(format!(
                    "op 0 cost {micros} micro-dollars, its re-run {}",
                    r.run.total_cost_micros()
                ))
            } else if *latencies != r.run.latencies {
                Err("op 0's re-run reports different query latencies".to_string())
            } else {
                Ok(())
            }
        }
    };
    tally.record("re-run of op 0", again);
    if let Some(outcome) = w.reference_check(&input0) {
        tally.record("reference check of op 0", outcome);
    }
    drop(w);
    for _ in 1..plan.setups {
        let t = Instant::now();
        let again = set_up(shape, seed, plan, &mut tally);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(again);
    }

    let mut notes = std::mem::take(&mut tally.notes);
    if samples_beyond(op_ms.len(), 90.0) < TAIL_MIN_BEYOND {
        notes.push(format!(
            "op_ms_p90 has {} samples beyond it; {TAIL_MIN_BEYOND} are needed to trust it",
            samples_beyond(op_ms.len(), 90.0)
        ));
    }
    let mut rows = Rows::default();
    rows.median_of("setup_s", "s", &setup_s);
    rows.median_of("op_ms_p50", "ms", &op_ms);
    rows.single(
        "queries_per_host_s",
        "1/s",
        queries_done as f64 / (op_ms.iter().sum::<f64>() / 1e3),
    );
    rows.single("peak_rss_mib", "MiB", peak_rss_mib);
    rows.single(
        "sim_cost_usd_per_query",
        "usd",
        sim_micros as f64 / sim_queries.max(1) as f64 / 1e6,
    );
    rows.push(Row {
        value: sim_latencies.iter().sum::<f64>() / sim_latencies.len().max(1) as f64,
        ..Row::median_of("sim_latency_s_mean", "s", &sim_latencies)
    });
    let mut extra = Rows::default();
    extra.push(Row::percentile_of("op_ms_p90", "ms", &op_ms, 90.0));
    extra.median_of("sim_latency_s_p50", "s", &sim_latencies);
    extra.push(Row::percentile_of(
        "sim_latency_s_p99",
        "s",
        &sim_latencies,
        99.0,
    ));
    Ok(Outcome {
        rows: rows.conform(&end_to_end_table())?,
        extra: extra.conform(&extra_table())?,
        timed_ops: op_ms.len(),
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
    })
}

/// The demand curve an op served: from its inputs for the model (which
/// runs without a sink), from the sink's `run.demand` series otherwise.
fn demand_of(input: &Input, r: &OpResult) -> Vec<u32> {
    match input {
        Input::Model(workload, _) => workload_curves(workload).demand.samples,
        _ => Timeseries::from_telemetry(&r.run.telemetry).map_or(Vec::new(), |t| t.demand),
    }
}

/// Rows that come from one op's own counters and simulated results —
/// they repeat exactly for a fixed seed. The op needs a live sink.
fn counted_rows(input: &Input, r: &OpResult, rows: &mut Rows) {
    let t = &r.run.telemetry;
    let env = match input {
        Input::Model(_, spec) | Input::Live(spec) => &spec.env,
        Input::Serve(spec) => &spec.run.env,
    };
    let oracle = oracle_cost(&demand_of(input, r), env).total();
    let compute = r.run.compute.total();
    rows.single("core.meta.cost_vs_oracle", "ratio", compute / oracle);
    rows.single(
        "cloud.pool_share",
        "ratio",
        r.run.compute.pool_cost / compute,
    );
    let injected: u64 = [
        "fault.spot_reclaims_total",
        "fault.pool_invoke_failures_total",
        "fault.pool_throttles_total",
        "fault.store_get_errors_total",
        "fault.store_put_errors_total",
        "fault.transport_drops_total",
        "fault.stragglers_total",
    ]
    .iter()
    .map(|name| t.counter(name))
    .sum();
    rows.single("faults.injected", "count", injected as f64);
    for (row, unit, counter) in [
        ("core.meta.ticks", "count", "meta.ticks_total"),
        ("core.meta.switches", "count", "meta.switches_total"),
        ("faults.retries", "count", "recovery.retries_total"),
        ("faults.unrecovered", "count", "recovery.unrecovered_total"),
        ("engine.tasks", "count", "engine.tasks_total"),
        (
            "engine.shuffle_bytes",
            "bytes",
            "engine.shuffle_bytes_written_total",
        ),
    ] {
        rows.single(row, unit, t.counter(counter) as f64);
    }
    let serve = r.serve.unwrap_or_default();
    rows.single("serve.admitted", "count", serve.admitted as f64);
    rows.single("serve.rejected", "count", serve.rejected as f64);
    rows.single("serve.deferrals", "count", serve.deferrals as f64);
    rows.single(
        "engine.rows_in",
        "count",
        t.histogram("engine.task_rows_in").map_or(0.0, |h| h.sum),
    );
    let checkouts = t.counter("engine.scratch_checkouts_total");
    rows.single(
        "engine.scratch.reuse_frac",
        "ratio",
        t.counter("engine.scratch_reuses_total") as f64 / checkouts.max(1) as f64,
    );
}

/// The traced pass: the per-layer rows, and the spans of the workload's
/// traced ops for the trace file.
pub fn per_layer(shape: Shape, seed: u64, plan: &Plan) -> Result<(Outcome, Vec<Span>), String> {
    let mut tally = Tally::default();
    let w = set_up(shape, seed, plan, &mut tally);
    let tracer = Tracer::new();
    let mut plain_ms: Vec<f64> = Vec::new();
    let min_traced = (plan.min_ops / 4).max(2);
    let window = Instant::now();
    let mut i = 0usize;
    while i < 2 * min_traced || window.elapsed().as_secs_f64() < plan.seconds / 2.0 {
        let input = w.prepare(seed, i as u64);
        let result = if i.is_multiple_of(2) {
            let t = Instant::now();
            let result = w.run(&input);
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            result
        } else {
            w.run_traced(&input, &tracer, i as u32)
        };
        let checked = result.and_then(|r| check_op(&shape, &r));
        tally.record(&format!("op {i}"), checked);
        i += 1;
    }

    // One more op 0 with a sink attached whatever the workload (the
    // model runs without one), for the counters.
    let mut input0 = w.prepare(seed, 0);
    if let Input::Model(_, spec) = &mut input0 {
        *spec = spec.clone().with_telemetry(&Telemetry::new());
    }
    let counted = tally.record("counting op", w.run(&input0));

    let spans = tracer.into_spans();
    let mut rows = Rows::default();
    let tick_us = durations(&spans, "tick", 1e3);
    rows.median_of("core.meta.tick_us_p50", "us", &tick_us);
    rows.push(Row::percentile_of(
        "core.meta.tick_us_p90",
        "us",
        &tick_us,
        90.0,
    ));
    let runner_us: f64 = ["run_model", "run_system", "run_live"]
        .iter()
        .flat_map(|name| durations(&spans, name, 1e3))
        .sum();
    rows.single(
        "core.meta.busy_frac",
        "ratio",
        tick_us.iter().sum::<f64>() / runner_us,
    );
    let traced_ms = durations(&spans, "op", 1e6);
    rows.single(
        "bench.trace_overhead_frac",
        "ratio",
        median(&sorted(&traced_ms)) / median(&sorted(&plain_ms)) - 1.0,
    );
    rows.single("bench.spans", "count", spans.len() as f64);
    if let Some(r) = &counted {
        counted_rows(&input0, r, &mut rows);
    }
    probes::run_all(seed, plan.probe_reps, &mut rows);

    let outcome = Outcome {
        rows: rows.conform(&per_layer_table())?,
        extra: Vec::new(),
        timed_ops: traced_ms.len(),
        attempted: tally.attempted,
        failed: tally.failed,
        notes: tally.notes,
    };
    Ok((outcome, spans))
}
