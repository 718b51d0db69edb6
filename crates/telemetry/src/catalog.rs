//! The metric catalogue: every metric the workspace records, declared
//! once as a typed `const` handle.
//!
//! A handle carries its metric's dense index, which is the metric's
//! position in [`METRICS`]; the entry there carries the name, the kind,
//! the unit and, for a histogram, its bucket bounds. Recording through a
//! handle is an indexed update of the registry's slot array, and because
//! [`METRICS`] is in byte-wise name order, walking the slots in index
//! order exports in name order. A metric that is not declared here cannot
//! be recorded: there is no handle to pass, and the `&'static str`
//! entry points (`Telemetry::counter_add`, `Telemetry::observe`) resolve
//! their name here, tripping a `debug_assert!` on an unknown one.
//!
//! Names are `<component>.<metric>[_<unit>][_total]`, lowercase snake
//! case: counters end in `_total`, and `_seconds`, `_bytes` and `_ms`
//! spell the unit (checked by the tests below). DESIGN.md §7 has one row
//! per component prefix (checked by `tests/docs.rs`).

use crate::DEFAULT_BUCKETS;

/// What a metric records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone `u64` sum.
    Counter,
    /// A last-write-wins `f64`.
    Gauge,
    /// A fixed-bucket histogram over the entry's bounds.
    Histogram,
    /// Append-only `(t_ms, value)` points.
    Series,
}

/// What a metric's values count or measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Events, requests, queries, tenants.
    Count,
    /// Table rows.
    Rows,
    /// Bytes.
    Bytes,
    /// Simulated seconds.
    Seconds,
    /// Simulated milliseconds.
    Millis,
    /// VMs (demanded, targeted or running).
    Vms,
    /// A percentile, 0–100.
    Percentile,
    /// A dimensionless factor.
    Ratio,
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The exported name.
    pub name: &'static str,
    /// The instrument kind.
    pub kind: Kind,
    /// The unit of the recorded values.
    pub unit: Unit,
    /// Ascending bucket upper bounds (histograms only; empty otherwise).
    pub bounds: &'static [f64],
}

macro_rules! handles {
    ($($(#[$doc:meta])* $kind:ident;)*) => {$(
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $kind(u16);

        impl $kind {
            /// Position of the metric in [`METRICS`] and in a registry's
            /// slot array.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// The catalogue entry.
            pub fn metric(self) -> &'static Metric {
                &METRICS[self.index()]
            }

            /// The handle of the metric named `name`. An uncatalogued
            /// name, or one of another kind, trips a `debug_assert!` and
            /// gives `None`.
            pub fn named(name: &str) -> Option<Self> {
                let i = index_of(name).filter(|&i| METRICS[i].kind == Kind::$kind);
                debug_assert!(i.is_some(), "`{name}` is not a catalogued {:?}", Kind::$kind);
                i.map(|i| $kind(i as u16))
            }
        }
    )*};
}

handles! {
    /// Handle of a [`Kind::Counter`] metric.
    Counter;
    /// Handle of a [`Kind::Gauge`] metric.
    Gauge;
    /// Handle of a [`Kind::Histogram`] metric.
    Histogram;
    /// Handle of a [`Kind::Series`] metric.
    Series;
}

/// Declare every metric: one `const` handle each, numbered by an enum so
/// the indices are dense and follow declaration order, and one
/// [`METRICS`] entry each, in the same order. A histogram names its
/// bounds; other kinds have none. An entry's doc comment, if any, follows
/// the name in its handle's rustdoc.
macro_rules! catalog {
    ($($(#[$doc:meta])* $handle:ident: $kind:ident($name:literal, $unit:ident $(, $bounds:expr)?);)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Index { $($handle),* }

        $(
            #[doc = concat!("`", $name, "`")]
            $(#[$doc])*
            pub const $handle: $kind = $kind(Index::$handle as u16);
        )*

        /// Every metric, in byte-wise name order; a handle's index is its
        /// position here.
        pub const METRICS: &[Metric] = &[$(Metric {
            name: $name,
            kind: Kind::$kind,
            unit: Unit::$unit,
            bounds: [$($bounds as &[f64],)? &[]][0],
        }),*];

        /// Index of the metric named `name`, if the catalogue declares one.
        pub fn index_of(name: &str) -> Option<usize> {
            match name {
                $($name => Some(Index::$handle as usize),)*
                _ => None,
            }
        }
    };
}

/// Row-count bounds for per-task input sizes.
const ROW_BUCKETS: [f64; 9] = [
    100.0, 1_000.0, 10_000.0, 100_000.0, 1e6, 1e7, 1e8, 1e9, 1e10,
];

/// Per-VM slowdown factors drawn by the environment model.
const SLOWDOWN_BUCKETS: [f64; 7] = [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0];

catalog! {
    ENGINE_SCRATCH_CHECKOUTS_TOTAL: Counter("engine.scratch_checkouts_total", Count);
    ENGINE_SCRATCH_REUSES_TOTAL: Counter("engine.scratch_reuses_total", Count);
    ENGINE_SHUFFLE_BYTES_WRITTEN_TOTAL: Counter("engine.shuffle_bytes_written_total", Bytes);
    ENGINE_SHUFFLE_WRITES_TOTAL: Counter("engine.shuffle_writes_total", Count);
    ENGINE_TASK_ROWS_IN: Histogram("engine.task_rows_in", Rows, &ROW_BUCKETS);
    ENGINE_TASK_ROWS_OUT_TOTAL: Counter("engine.task_rows_out_total", Rows);
    ENGINE_TASKS_TOTAL: Counter("engine.tasks_total", Count);
    ENV_EGRESS_BYTES_TOTAL: Counter("env.egress_bytes_total", Bytes);
    ENV_REMOTE_VMS_TOTAL: Counter("env.remote_vms_total", Count);
    ENV_STORM_RECLAIMS_TOTAL: Counter("env.storm_reclaims_total", Count);
    ENV_VM_SLOWDOWN: Histogram("env.vm_slowdown", Ratio, &SLOWDOWN_BUCKETS);
    ENV_VMS_TOTAL: Counter("env.vms_total", Count);
    FAULT_POOL_INVOKE_FAILURES_TOTAL: Counter("fault.pool_invoke_failures_total", Count);
    FAULT_POOL_THROTTLES_TOTAL: Counter("fault.pool_throttles_total", Count);
    FAULT_SPOT_RECLAIMS_TOTAL: Counter("fault.spot_reclaims_total", Count);
    FAULT_STORE_GET_ERRORS_TOTAL: Counter("fault.store_get_errors_total", Count);
    FAULT_STORE_PUT_ERRORS_TOTAL: Counter("fault.store_put_errors_total", Count);
    FAULT_STRAGGLERS_TOTAL: Counter("fault.stragglers_total", Count);
    ///
    /// One per dropped attempt of a node-tier shuffle write, under the one
    /// bounded retry: a write whose `max_retries + 1` attempts all drop
    /// falls back to the object store. Reads draw no drops.
    FAULT_TRANSPORT_DROPS_TOTAL: Counter("fault.transport_drops_total", Count);
    FLEET_VM_BILLED_SECONDS: Histogram("fleet.vm_billed_seconds", Seconds, &DEFAULT_BUCKETS);
    FLEET_VMS_RECLAIMED_TOTAL: Counter("fleet.vms_reclaimed_total", Count);
    FLEET_VMS_STARTED_TOTAL: Counter("fleet.vms_started_total", Count);
    FLEET_VMS_TERMINATED_TOTAL: Counter("fleet.vms_terminated_total", Count);
    META_CHOSEN_TARGET: Series("meta.chosen_target", Vms);
    META_EXPERT_MULTIPLIER: Series("meta.expert_multiplier", Ratio);
    META_EXPERT_PERCENTILE: Series("meta.expert_percentile", Percentile);
    META_SWITCHES_TOTAL: Counter("meta.switches_total", Count);
    META_TICKS_TOTAL: Counter("meta.ticks_total", Count);
    POOL_INVOCATION_SECONDS: Histogram("pool.invocation_seconds", Seconds, &DEFAULT_BUCKETS);
    POOL_INVOCATIONS_TOTAL: Counter("pool.invocations_total", Count);
    RECOVERY_BACKOFF_MS_TOTAL: Counter("recovery.backoff_ms_total", Millis);
    RECOVERY_DUPLICATE_WINS_TOTAL: Counter("recovery.duplicate_wins_total", Count);
    RECOVERY_DUPLICATES_LAUNCHED_TOTAL: Counter("recovery.duplicates_launched_total", Count);
    RECOVERY_RETRIES_TOTAL: Counter("recovery.retries_total", Count);
    RECOVERY_TASK_REEXECS_TOTAL: Counter("recovery.task_reexecs_total", Count);
    RECOVERY_TRANSPORT_FALLBACKS_TOTAL: Counter("recovery.transport_fallbacks_total", Count);
    RECOVERY_UNRECOVERED_TOTAL: Counter("recovery.unrecovered_total", Count);
    RUN_ACTIVE: Series("run.active", Vms);
    RUN_DEMAND: Series("run.demand", Vms);
    RUN_DURATION_SECONDS: Gauge("run.duration_seconds", Seconds);
    RUN_QUERIES_TOTAL: Counter("run.queries_total", Count);
    RUN_QUERY_LATENCY_SECONDS: Histogram("run.query_latency_seconds", Seconds, &DEFAULT_BUCKETS);
    RUN_TARGET: Series("run.target", Vms);
    SERVE_ADMITTED_TOTAL: Counter("serve.admitted_total", Count);
    SERVE_DEFERRED_TOTAL: Counter("serve.deferred_total", Count);
    SERVE_DISPATCHED_BATCH_TOTAL: Counter("serve.dispatched_batch_total", Count);
    SERVE_DISPATCHED_INTERACTIVE_TOTAL: Counter("serve.dispatched_interactive_total", Count);
    SERVE_DISPATCHED_STANDARD_TOTAL: Counter("serve.dispatched_standard_total", Count);
    SERVE_QUEUE_DELAY_SECONDS: Histogram("serve.queue_delay_seconds", Seconds, &DEFAULT_BUCKETS);
    SERVE_QUEUE_DEPTH: Series("serve.queue_depth", Count);
    SERVE_REJECTED_TOTAL: Counter("serve.rejected_total", Count);
    SHUFFLE_FLEET_VM_BILLED_SECONDS: Histogram("shuffle_fleet.vm_billed_seconds", Seconds, &DEFAULT_BUCKETS);
    SHUFFLE_FLEET_VMS_RECLAIMED_TOTAL: Counter("shuffle_fleet.vms_reclaimed_total", Count);
    SHUFFLE_FLEET_VMS_STARTED_TOTAL: Counter("shuffle_fleet.vms_started_total", Count);
    SHUFFLE_FLEET_VMS_TERMINATED_TOTAL: Counter("shuffle_fleet.vms_terminated_total", Count);
    STORE_GET_REQUESTS_TOTAL: Counter("store.get_requests_total", Count);
    STORE_PUT_REQUESTS_TOTAL: Counter("store.put_requests_total", Count);
    TENANT_ACTIVE: Gauge("tenant.active", Count);
    TENANT_COUNT: Gauge("tenant.count", Count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_in_byte_order() {
        for w in METRICS.windows(2) {
            assert!(w[0].name < w[1].name, "{} !< {}", w[0].name, w[1].name);
        }
        for (i, m) in METRICS.iter().enumerate() {
            assert_eq!(index_of(m.name), Some(i));
        }
        assert_eq!(index_of("fleet.vms_restarted_total"), None);
        assert_eq!(RUN_QUERIES_TOTAL.metric().name, "run.queries_total");
        assert_eq!(TENANT_COUNT.index(), METRICS.len() - 1);
    }

    #[test]
    fn names_follow_the_grammar() {
        for m in METRICS {
            let (component, metric) = m.name.split_once('.').expect(m.name);
            for seg in [component, metric] {
                assert!(
                    seg.starts_with(|c: char| c.is_ascii_lowercase())
                        && seg
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "{}",
                    m.name
                );
            }
            let snake = format!("_{metric}_");
            assert_eq!(
                m.kind == Kind::Counter,
                metric.ends_with("_total"),
                "{}",
                m.name
            );
            assert_eq!(
                m.unit == Unit::Seconds,
                snake.contains("_seconds_"),
                "{}",
                m.name
            );
            assert_eq!(
                m.unit == Unit::Bytes,
                snake.contains("_bytes_"),
                "{}",
                m.name
            );
            assert_eq!(m.unit == Unit::Millis, snake.contains("_ms_"), "{}", m.name);
        }
    }

    #[test]
    fn only_histograms_have_ascending_bounds() {
        for m in METRICS {
            assert_eq!(
                m.kind == Kind::Histogram,
                !m.bounds.is_empty(),
                "{}",
                m.name
            );
            assert!(m.bounds.windows(2).all(|w| w[0] < w[1]), "{}", m.name);
        }
        assert_eq!(ENGINE_TASK_ROWS_IN.metric().bounds, &ROW_BUCKETS);
        assert_eq!(RUN_QUERY_LATENCY_SECONDS.metric().bounds, &DEFAULT_BUCKETS);
    }
}
