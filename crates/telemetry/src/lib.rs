//! # cackle-telemetry — deterministic observability
//!
//! A dependency-free, sim-clock-driven metrics and tracing layer shared by
//! every Cackle crate. The paper's headline evidence (Figures 12–14,
//! Table 2) is per-tick observability — cost attribution by component,
//! demand vs. allocation, queue/tail latency — and this crate is the one
//! place that data is collected, instead of 20+ bench binaries each
//! hand-rolling extraction against the run internals.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** Identically-seeded runs must produce byte-identical
//!    telemetry dumps (`tests/determinism.rs` enforces this). Metrics live
//!    in a slot array indexed by their [`catalog`] handle, and the
//!    catalogue is in name order, so export order is name order; costs
//!    live in `BTreeMap`s; timestamps come from the *simulated* clock
//!    (plain `u64` milliseconds) — never the host clock; floats are
//!    exported with Rust's shortest-round-trip formatting.
//! 2. **Dependency-free.** The workspace is offline; the JSONL/CSV
//!    exporters and the JSON parser used by the `telemetry-check` schema
//!    validator are hand-rolled (see [`json`]).
//! 3. **Free when disabled.** A [`Telemetry`] handle is a cheap
//!    `Option<Arc<Mutex<Registry>>>`; a disabled handle makes every record
//!    call a no-op, so hot paths carry the handle unconditionally.
//!
//! ## Metric names
//!
//! Every metric is declared once in [`catalog`], with its kind, unit and
//! (for histograms) bucket bounds; code records through the typed `const`
//! handles declared there. The naming grammar and the per-component table
//! are in `DESIGN.md` §"Telemetry".

pub mod catalog;
pub mod check;
pub mod json;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default histogram bucket upper bounds (seconds-flavoured, covering
/// latencies from 100 ms to ~1.5 h; values above the last bound land in the
/// overflow bucket).
pub const DEFAULT_BUCKETS: [f64; 12] = [
    0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 1800.0, 5400.0,
];

/// A fixed-bucket histogram: `counts[i]` counts observations `v` with
/// `v <= bounds[i]` (and greater than the previous bound); the final slot
/// counts overflow beyond the last bound. Tracks count / sum / min / max
/// exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending bucket upper bounds.
    pub bounds: &'static [f64],
    /// Per-bucket observation counts; `bounds.len() + 1` slots, the last
    /// one holding out-of-range (overflow) observations.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`+inf` until the first observation).
    pub min: f64,
    /// Largest observed value (`-inf` until the first observation).
    pub max: f64,
}

impl Histogram {
    /// An empty histogram over the given ascending bucket bounds.
    pub fn new(bounds: &'static [f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. Non-finite values are dropped (they would
    /// poison `sum`); values beyond the last bound count in the overflow
    /// bucket; negative values land in the first bucket.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Observations that exceeded the last bucket bound.
    pub fn overflow(&self) -> u64 {
        *self.counts.last().unwrap_or(&0)
    }

    /// Add another histogram's observations (same bounds) to this one.
    fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One trace event: either an instant (`dur_ms == 0`) or a span covering
/// `[t_ms, t_ms + dur_ms]` of simulated time. Task/query/strategy activity
/// is recorded as these rather than ad-hoc prints.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated start time in milliseconds.
    pub t_ms: u64,
    /// Span length in simulated milliseconds (0 for instant events).
    pub dur_ms: u64,
    /// Event kind, e.g. `query`, `strategy.tick`, `vm.interrupted`.
    pub kind: String,
    /// Query index, when the event belongs to one.
    pub query: Option<u64>,
    /// Stage index, when the event belongs to one.
    pub stage: Option<u32>,
    /// Free-form detail.
    pub detail: String,
}

/// One metric's recorded state: `Unset` until its first record, then the
/// value of its catalogue kind.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Unset,
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
    /// `(t_ms, value)` points in record order.
    Series(Vec<(u64, f64)>),
}

/// The collected state behind an enabled [`Telemetry`] handle.
///
/// Metrics live in one slot per [`catalog`] entry, indexed by handle;
/// the catalogue is in name order, so walking the slots exports in name
/// order, independent of record order.
#[derive(Debug, Clone, PartialEq)]
pub struct Registry {
    slots: Vec<Slot>,
    /// Dollars by component, then category — each cell written once per
    /// run from a ledger's exact total (`CostLedger::record` in
    /// `cackle-cloud`) or from a runner's reported estimate. Iterates in
    /// the same `(component, category)` order a tuple-keyed map would.
    costs: BTreeMap<String, BTreeMap<String, f64>>,
    events: Vec<TraceEvent>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            slots: vec![Slot::Unset; catalog::METRICS.len()],
            costs: BTreeMap::new(),
            events: Vec::new(),
        }
    }
}

impl Registry {
    fn slot(&self, name: &str) -> Option<&Slot> {
        catalog::index_of(name).map(|i| &self.slots[i])
    }

    /// Every catalogue entry with its slot, in name order.
    fn named_slots(&self) -> impl Iterator<Item = (&'static str, &Slot)> {
        catalog::METRICS.iter().map(|m| m.name).zip(&self.slots)
    }

    /// Counter value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        let Some(Slot::Counter(n)) = self.slot(name) else {
            return 0;
        };
        *n
    }

    /// Gauge value, when set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let Some(Slot::Gauge(v)) = self.slot(name) else {
            return None;
        };
        Some(*v)
    }

    /// Histogram, when observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        let Some(Slot::Histogram(h)) = self.slot(name) else {
            return None;
        };
        Some(h)
    }

    /// Series points, when sampled.
    pub fn series(&self, name: &str) -> Option<&[(u64, f64)]> {
        let Some(Slot::Series(points)) = self.slot(name) else {
            return None;
        };
        Some(points)
    }

    /// Dollars attributed to one `(component, category)` pair.
    pub fn cost(&self, component: &str, category: &str) -> f64 {
        self.costs
            .get(component)
            .and_then(|cells| cells.get(category))
            .copied()
            .unwrap_or(0.0)
    }

    /// Total dollars across all components and categories.
    pub fn cost_total(&self) -> f64 {
        self.costs().map(|(_, _, d)| d).sum()
    }

    /// All cost cells in deterministic `(component, category)` order.
    pub fn costs(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        self.costs.iter().flat_map(|(comp, cells)| {
            cells
                .iter()
                .map(move |(cat, &d)| (comp.as_str(), cat.as_str(), d))
        })
    }

    /// Recorded trace events in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Export the registry as JSON Lines: one self-describing object per
    /// line, sections in a fixed order (meta, counters, gauges, histograms,
    /// costs, series, events), each section sorted by name. Hand-rolled:
    /// the workspace is offline and serde-free.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"type\":\"meta\",\"schema\":\"cackle-telemetry\",\"version\":1}\n");
        for (name, slot) in self.named_slots() {
            let Slot::Counter(v) = slot else { continue };
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":{},\"value\":{v}}}\n",
                json_str(name)
            ));
        }
        for (name, slot) in self.named_slots() {
            let Slot::Gauge(v) = slot else { continue };
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":{},\"value\":{}}}\n",
                json_str(name),
                json_f64(*v)
            ));
        }
        for (name, slot) in self.named_slots() {
            let Slot::Histogram(h) = slot else { continue };
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":{},\"bounds\":{},\"counts\":{},\
                 \"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}\n",
                json_str(name),
                json_f64_array(h.bounds),
                json_u64_array(&h.counts),
                h.count,
                json_f64(h.sum),
                json_f64(if h.count == 0 { 0.0 } else { h.min }),
                json_f64(if h.count == 0 { 0.0 } else { h.max }),
            ));
        }
        for (comp, cat, d) in self.costs() {
            out.push_str(&format!(
                "{{\"type\":\"cost\",\"component\":{},\"category\":{},\"dollars\":{}}}\n",
                json_str(comp),
                json_str(cat),
                json_f64(d)
            ));
        }
        for (name, slot) in self.named_slots() {
            let Slot::Series(points) = slot else { continue };
            out.push_str(&format!(
                "{{\"type\":\"series\",\"name\":{},\"points\":[",
                json_str(name)
            ));
            for (i, (t, v)) in points.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{t},{}]", json_f64(*v)));
            }
            out.push_str("]}\n");
        }
        for e in &self.events {
            out.push_str(&format!(
                "{{\"type\":\"event\",\"kind\":{},\"t_ms\":{},\"dur_ms\":{}",
                json_str(&e.kind),
                e.t_ms,
                e.dur_ms
            ));
            if let Some(q) = e.query {
                out.push_str(&format!(",\"query\":{q}"));
            }
            if let Some(s) = e.stage {
                out.push_str(&format!(",\"stage\":{s}"));
            }
            if !e.detail.is_empty() {
                out.push_str(&format!(",\"detail\":{}", json_str(&e.detail)));
            }
            out.push_str("}\n");
        }
        out
    }

    /// Fold another registry (a shard) into this one.
    ///
    /// Absorbing shards in a fixed order gives the same registry however
    /// they were recorded, so the exported dump is independent of which
    /// thread recorded which shard. (The stage executor does not need
    /// shards: its tasks return their counters and the barrier records
    /// them in task-index order.) Merge semantics per section: counters
    /// add; gauges last-write-wins (the absorbing shard's value replaces
    /// ours); histograms merge elementwise (a metric has one set of bounds,
    /// its catalogue entry's); series and events append in shard order;
    /// costs add. The two slot arrays are zipped by index; a cost cell
    /// this registry already holds is merged without allocating.
    pub fn absorb(&mut self, shard: &Registry) {
        for (mine, theirs) in self.slots.iter_mut().zip(&shard.slots) {
            match (mine, theirs) {
                (_, Slot::Unset) => {}
                (Slot::Counter(a), Slot::Counter(b)) => *a += b,
                (Slot::Histogram(a), Slot::Histogram(b)) => a.merge(b),
                (Slot::Series(a), Slot::Series(b)) => a.extend_from_slice(b),
                // A first record here, or a gauge: the shard's value wins.
                (mine, theirs) => *mine = theirs.clone(),
            }
        }
        for (comp, cells) in &shard.costs {
            update(&mut self.costs, comp, |mine| {
                for (cat, d) in cells {
                    update(mine, cat, |total| *total += d);
                }
            });
        }
        self.events.extend_from_slice(&shard.events);
    }

    /// Export every time series as long-format CSV
    /// (`name,t_ms,value` rows, sorted by name then record order) —
    /// convenient for plotting tools.
    pub fn export_series_csv(&self) -> String {
        let mut out = String::from("name,t_ms,value\n");
        for (name, slot) in self.named_slots() {
            let Slot::Series(points) = slot else { continue };
            for (t, v) in points {
                out.push_str(&format!("{name},{t},{}\n", json_f64(*v)));
            }
        }
        out
    }
}

/// Apply `f` to the cost cell under `name`, starting from
/// `V::default()` on first use. Only that first insert allocates the
/// key; charging a cell the map already holds allocates nothing.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => f(map.entry(name.to_string()).or_default()),
    }
}

/// Format a finite f64 with Rust's shortest exact round-trip decimal
/// (`{:?}`), which is valid JSON; non-finite values become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_f64_array(vs: &[f64]) -> String {
    let cells: Vec<String> = vs.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", cells.join(","))
}

fn json_u64_array(vs: &[u64]) -> String {
    let cells: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
    format!("[{}]", cells.join(","))
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A cheap, cloneable handle to a telemetry registry.
///
/// Disabled handles (the default) make every record call a no-op, so
/// components carry one unconditionally. Enabled handles share one
/// [`Registry`] behind a poison-forgiving mutex (the engine executes tasks
/// from multiple threads in some tests; the simulation itself is
/// single-threaded, so lock order never affects recorded state).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(_) => f.write_str("Telemetry(enabled)"),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// An enabled handle with a fresh, empty registry. Use one sink per
    /// run: sharing a sink across runs interleaves their series.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Registry::default()))),
        }
    }

    /// A disabled handle: every record call is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Registry>> {
        self.inner
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Update the slot of the metric at `index` (a no-op when disabled).
    fn with_slot(&self, index: usize, f: impl FnOnce(&mut Slot)) {
        if let Some(mut r) = self.lock() {
            f(&mut r.slots[index]);
        }
    }

    /// Add `delta` to a monotone counter.
    pub fn add(&self, counter: catalog::Counter, delta: u64) {
        self.with_slot(counter.index(), |slot| match slot {
            Slot::Counter(n) => *n += delta,
            slot => *slot = Slot::Counter(delta),
        });
    }

    /// Set a gauge to `v` (last write wins).
    pub fn gauge_set(&self, gauge: catalog::Gauge, v: f64) {
        self.with_slot(gauge.index(), |slot| *slot = Slot::Gauge(v));
    }

    /// Observe `v` into a histogram over its catalogue bounds.
    pub fn record(&self, histogram: catalog::Histogram, v: f64) {
        self.with_slot(histogram.index(), |slot| match slot {
            Slot::Histogram(h) => h.observe(v),
            slot => {
                let mut h = Histogram::new(histogram.metric().bounds);
                h.observe(v);
                *slot = Slot::Histogram(h);
            }
        });
    }

    /// Append a `(t_ms, v)` point to a time series.
    pub fn sample(&self, series: catalog::Series, t_ms: u64, v: f64) {
        self.with_slot(series.index(), |slot| match slot {
            Slot::Series(points) => points.push((t_ms, v)),
            slot => *slot = Slot::Series(vec![(t_ms, v)]),
        });
    }

    /// [`Telemetry::add`] by name. An uncatalogued name, or one that is
    /// not a counter, trips a `debug_assert!` and is dropped in release.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(counter) = catalog::Counter::named(name) {
            self.add(counter, delta);
        }
    }

    /// [`Telemetry::record`] by name. An uncatalogued name, or one that
    /// is not a histogram, trips a `debug_assert!` and is dropped in
    /// release.
    pub fn observe(&self, name: &'static str, v: f64) {
        if let Some(histogram) = catalog::Histogram::named(name) {
            self.record(histogram, v);
        }
    }

    /// Attribute `dollars` to `(component, category)`. Runners call it
    /// once per cell, when a run ends, with the figure the run reports:
    /// `CostLedger::record` writes a ledger's exact category totals, and
    /// the analytical model and the work-delaying baselines write their
    /// estimates. A non-finite amount is dropped.
    pub fn add_cost(&self, component: &str, category: &str, dollars: f64) {
        if !dollars.is_finite() {
            return;
        }
        if let Some(mut r) = self.lock() {
            update(&mut r.costs, component, |cells| {
                // A report of money already billed, never a bill.
                update(cells, category, |total| *total += dollars);
            });
        }
    }

    /// Record an instant event.
    pub fn event(&self, t_ms: u64, kind: &str, detail: &str) {
        self.span_event(t_ms, 0, kind, None, None, detail);
    }

    /// Record a span event covering `[t_ms, t_ms + dur_ms]`.
    #[allow(clippy::too_many_arguments)]
    pub fn span_event(
        &self,
        t_ms: u64,
        dur_ms: u64,
        kind: &str,
        query: Option<u64>,
        stage: Option<u32>,
        detail: &str,
    ) {
        if let Some(mut r) = self.lock() {
            r.events.push(TraceEvent {
                t_ms,
                dur_ms,
                kind: kind.to_string(),
                query,
                stage,
                detail: detail.to_string(),
            });
        }
    }

    /// Absorb a telemetry shard into this sink (see [`Registry::absorb`]).
    /// A no-op when either handle is disabled. The caller is responsible
    /// for absorbing shards in a fixed order — that ordering, not thread
    /// scheduling, is what keeps parallel recording byte-identical.
    pub fn merge(&self, shard: &Telemetry) {
        let Some(other) = shard.snapshot() else {
            return;
        };
        if let Some(mut r) = self.lock() {
            r.absorb(&other);
        }
    }

    /// A point-in-time copy of the registry (None when disabled).
    pub fn snapshot(&self) -> Option<Registry> {
        self.lock().map(|r| r.clone())
    }

    /// Counter value (0 when disabled or never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().map(|r| r.counter(name)).unwrap_or(0)
    }

    /// Gauge value, when enabled and set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().and_then(|r| r.gauge(name))
    }

    /// Clone of the named series, when enabled and sampled.
    pub fn series(&self, name: &str) -> Option<Vec<(u64, f64)>> {
        self.lock().and_then(|r| r.series(name).map(|s| s.to_vec()))
    }

    /// Clone of the named histogram, when enabled and observed.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().and_then(|r| r.histogram(name).cloned())
    }

    /// Dollars attributed to `(component, category)` (0 when disabled).
    pub fn cost(&self, component: &str, category: &str) -> f64 {
        self.lock()
            .map(|r| r.cost(component, category))
            .unwrap_or(0.0)
    }

    /// JSONL dump of the registry (empty string when disabled).
    pub fn export_jsonl(&self) -> String {
        self.lock().map(|r| r.export_jsonl()).unwrap_or_default()
    }

    /// Long-format CSV dump of all series (empty string when disabled).
    pub fn export_series_csv(&self) -> String {
        self.lock()
            .map(|r| r.export_series_csv())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_noop() {
        let t = Telemetry::disabled();
        t.counter_add("run.queries_total", 3);
        t.gauge_set(catalog::RUN_DURATION_SECONDS, 1.5);
        t.observe("run.query_latency_seconds", 2.0);
        t.sample(catalog::RUN_DEMAND, 1000, 4.0);
        t.add_cost("fleet", "vm_compute", 1.0);
        assert!(!t.is_enabled());
        assert_eq!(t.counter("run.queries_total"), 0);
        assert_eq!(t.snapshot(), None);
        assert_eq!(t.export_jsonl(), "");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "`fleet.vms_restarted_total` is not a catalogued Counter")]
    fn uncatalogued_name_trips_the_debug_assert() {
        Telemetry::disabled().counter_add("fleet.vms_restarted_total", 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "`run.queries_total` is not a catalogued Histogram")]
    fn name_of_another_kind_trips_the_debug_assert() {
        Telemetry::new().observe("run.queries_total", 1.0);
    }

    #[test]
    fn counters_gauges_series_roundtrip() {
        let t = Telemetry::new();
        t.counter_add("run.queries_total", 2);
        t.add(catalog::RUN_QUERIES_TOTAL, 1);
        t.gauge_set(catalog::RUN_DURATION_SECONDS, 10.0);
        t.gauge_set(catalog::RUN_DURATION_SECONDS, 12.5);
        t.sample(catalog::RUN_DEMAND, 0, 4.0);
        t.sample(catalog::RUN_DEMAND, 1000, 6.0);
        assert_eq!(t.counter("run.queries_total"), 3);
        // Reading an uncatalogued name, or under the wrong kind, finds
        // nothing.
        assert_eq!(t.counter("run.demand"), 0);
        assert_eq!(t.gauge("run.missing"), None);
        assert_eq!(t.gauge("run.duration_seconds"), Some(12.5));
        assert_eq!(t.series("run.demand"), Some(vec![(0, 4.0), (1000, 6.0)]));
    }

    #[test]
    fn histogram_bucketing_zero_max_and_out_of_range() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        // Zero lands in the first bucket (bounds are upper bounds).
        h.observe(0.0);
        assert_eq!(h.counts, vec![1, 0, 0, 0]);
        // A value exactly on a bound belongs to that bound's bucket.
        h.observe(2.0);
        assert_eq!(h.counts, vec![1, 1, 0, 0]);
        // The maximum representable value overflows to the last slot.
        h.observe(f64::MAX);
        assert_eq!(h.counts, vec![1, 1, 0, 1]);
        assert_eq!(h.overflow(), 1);
        // Out-of-range on the low side (negative) counts in bucket 0.
        h.observe(-3.0);
        assert_eq!(h.counts, vec![2, 1, 0, 1]);
        // Non-finite observations are dropped entirely.
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count, 4);
        assert_eq!(h.min, -3.0);
        assert_eq!(h.max, f64::MAX);
        assert!((h.mean() - (0.0 + 2.0 + f64::MAX - 3.0) / 4.0).abs() < 1e292);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        let h = Histogram::new(&DEFAULT_BUCKETS);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count, 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn cost_attribution_accumulates_per_component() {
        let t = Telemetry::new();
        t.add_cost("fleet", "vm_compute", 1.5);
        t.add_cost("fleet", "vm_compute", 0.5);
        t.add_cost("pool", "elastic_pool", 3.0);
        t.add_cost("fleet", "vm_compute", f64::NAN); // dropped
        assert_eq!(t.cost("fleet", "vm_compute"), 2.0);
        assert_eq!(t.cost("pool", "elastic_pool"), 3.0);
        let r = t.snapshot().unwrap();
        assert_eq!(r.cost_total(), 5.0);
        let cells: Vec<(String, String, f64)> = r
            .costs()
            .map(|(a, b, d)| (a.to_string(), b.to_string(), d))
            .collect();
        assert_eq!(cells[0].0, "fleet"); // deterministic order
    }

    #[test]
    fn export_is_deterministic_and_parseable() {
        let build = || {
            let t = Telemetry::new();
            // Insert in "wrong" order: export must sort by name.
            t.add(catalog::STORE_PUT_REQUESTS_TOTAL, 1);
            t.add(catalog::ENGINE_TASKS_TOTAL, 2);
            t.gauge_set(catalog::TENANT_COUNT, 0.125);
            t.record(catalog::ENV_VM_SLOWDOWN, 3.0);
            t.sample(catalog::RUN_DEMAND, 0, 1.0);
            t.sample(catalog::RUN_DEMAND, 1000, 2.0);
            t.add_cost("fleet", "vm_compute", 0.25);
            t.span_event(500, 1500, "query", Some(0), None, "q01");
            t.export_jsonl()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "export must be byte-identical");
        let first_counter = a
            .lines()
            .find(|l| l.contains("\"counter\""))
            .expect("counter line");
        assert!(
            first_counter.contains("engine.tasks_total"),
            "{first_counter}"
        );
        let histogram = a.lines().find(|l| l.contains("\"histogram\"")).unwrap();
        assert!(
            histogram.contains("\"bounds\":[1.0,1.25,1.5,2.0,3.0,4.0,6.0]"),
            "{histogram}"
        );
        // Every line parses as a JSON object with a type.
        for line in a.lines() {
            let v = json::parse(line).expect("valid JSON line");
            assert!(v.get("type").and_then(json::Value::as_str).is_some());
        }
    }

    #[test]
    fn jsonl_escapes_strings() {
        let t = Telemetry::new();
        t.event(0, "weird\"kind", "line\nbreak\tand \\slash");
        let dump = t.export_jsonl();
        let event_line = dump.lines().last().unwrap();
        let v = json::parse(event_line).expect("escaped JSON parses");
        assert_eq!(
            v.get("kind").and_then(json::Value::as_str),
            Some("weird\"kind")
        );
        assert_eq!(
            v.get("detail").and_then(json::Value::as_str),
            Some("line\nbreak\tand \\slash")
        );
    }

    #[test]
    fn shard_merge_in_task_order_matches_serial_recording() {
        // The parallel-execution contract: recording into per-task shards
        // and absorbing them in task order must reproduce the dump a
        // single serial registry would have produced.
        let record = |t: &Telemetry, task: u64| {
            t.add(catalog::ENGINE_TASKS_TOTAL, 1);
            t.add(catalog::ENGINE_TASK_ROWS_OUT_TOTAL, 10 * (task + 1));
            t.record(catalog::ENGINE_TASK_ROWS_IN, task as f64);
            t.gauge_set(catalog::TENANT_ACTIVE, task as f64);
            t.sample(catalog::RUN_DEMAND, task * 100, task as f64);
            t.add_cost("store", "s3_put", 0.125);
            t.span_event(task * 10, 5, "task", Some(task), Some(0), "");
        };
        let serial = Telemetry::new();
        for task in 0..4u64 {
            record(&serial, task);
        }
        let main = Telemetry::new();
        let shards: Vec<Telemetry> = (0..4u64)
            .map(|task| {
                let shard = Telemetry::new();
                record(&shard, task);
                shard
            })
            .collect();
        for shard in &shards {
            main.merge(shard);
        }
        assert_eq!(serial.export_jsonl(), main.export_jsonl());
    }

    #[test]
    fn merge_gauges_last_wins_and_disabled_is_noop() {
        let main = Telemetry::new();
        main.gauge_set(catalog::TENANT_ACTIVE, 1.0);
        let shard = Telemetry::new();
        shard.gauge_set(catalog::TENANT_ACTIVE, 7.0);
        main.merge(&shard);
        assert_eq!(main.gauge("tenant.active"), Some(7.0));
        // Disabled shard: nothing happens; disabled main: nothing happens.
        main.merge(&Telemetry::disabled());
        assert_eq!(main.gauge("tenant.active"), Some(7.0));
        let disabled = Telemetry::disabled();
        disabled.merge(&shard);
        assert!(!disabled.is_enabled());
    }

    #[test]
    fn series_csv_long_format() {
        let t = Telemetry::new();
        t.sample(catalog::RUN_DEMAND, 0, 3.0);
        t.sample(catalog::RUN_ACTIVE, 1000, 1.0);
        let csv = t.export_series_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,t_ms,value");
        assert_eq!(lines[1], "run.active,1000,1.0");
        assert_eq!(lines[2], "run.demand,0,3.0");
    }

    /// The nested cost map exports exactly what the `(component,
    /// category)` tuple map did: costs, counters and series recorded in
    /// shuffled order, component names that are prefixes of each other,
    /// and a shard merged on top.
    #[test]
    fn export_order_is_pinned() {
        let t = Telemetry::new();
        t.add_cost("store_x", "s3_get", 0.5);
        t.sample(catalog::RUN_TARGET, 1000, 2.0);
        t.add_cost("store", "s3_put", 0.25);
        t.counter_add("store.put_requests_total", 2);
        t.add_cost("pool", "elastic_pool", 1.0);
        t.add_cost("store", "s3_get", 0.125);
        t.counter_add("pool.invocations_total", 1);
        t.sample(catalog::RUN_DEMAND, 0, 3.0);
        t.add_cost("store_x", "egress", 0.75);
        let shard = Telemetry::new();
        shard.add_cost("store", "s3_put", 0.5);
        shard.add_cost("fleet", "vm_compute", 2.0);
        shard.add_cost("store_x", "s3_get", 0.25);
        shard.counter_add("store.put_requests_total", 1);
        shard.counter_add("fleet.vms_started_total", 3);
        shard.sample(catalog::RUN_DEMAND, 1000, 4.0);
        shard.sample(catalog::RUN_ACTIVE, 1000, 1.0);
        t.merge(&shard);
        let expected = r#"{"type":"meta","schema":"cackle-telemetry","version":1}
{"type":"counter","name":"fleet.vms_started_total","value":3}
{"type":"counter","name":"pool.invocations_total","value":1}
{"type":"counter","name":"store.put_requests_total","value":3}
{"type":"cost","component":"fleet","category":"vm_compute","dollars":2.0}
{"type":"cost","component":"pool","category":"elastic_pool","dollars":1.0}
{"type":"cost","component":"store","category":"s3_get","dollars":0.125}
{"type":"cost","component":"store","category":"s3_put","dollars":0.75}
{"type":"cost","component":"store_x","category":"egress","dollars":0.75}
{"type":"cost","component":"store_x","category":"s3_get","dollars":0.75}
{"type":"series","name":"run.active","points":[[1000,1.0]]}
{"type":"series","name":"run.demand","points":[[0,3.0],[1000,4.0]]}
{"type":"series","name":"run.target","points":[[1000,2.0]]}
"#;
        assert_eq!(t.export_jsonl(), expected);
        assert_eq!(t.cost("store", "s3_put"), 0.75);
        assert_eq!(t.cost("store_x", "s3_put"), 0.0);
        assert_eq!(t.cost("stor", "s3_put"), 0.0);
        assert_eq!(t.snapshot().unwrap().cost_total(), 5.375);
    }
}
