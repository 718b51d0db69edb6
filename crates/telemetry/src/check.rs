//! Validation of cackle-telemetry JSONL dumps.
//!
//! Shared by the `telemetry-check` binary (which `ci.sh` runs over the
//! example dump) and by integration tests that assert dumps stay
//! well-formed. Checks, per dump:
//!
//! * every line parses as a JSON object with a string `type`;
//! * the first line is the `meta` line with `schema == "cackle-telemetry"`;
//! * each record type carries its required fields with the right JSON
//!   types (see DESIGN.md §"Telemetry");
//! * histogram invariants hold (`counts.len() == bounds.len() + 1`,
//!   bucket counts sum to `count`);
//! * series points are `[t_ms, value]` pairs with non-decreasing `t_ms`;
//! * a cost row's `dollars` is finite and not negative, and no
//!   `(component, category)` pair has two rows;
//! * a `store/s3_put` or `store/s3_get` row above zero comes with a
//!   positive `store.put_requests_total` / `store.get_requests_total`
//!   counter, the requests it paid for;
//! * every counter, gauge, histogram and series names a [`catalog`]
//!   entry of its kind, and a histogram carries that entry's bounds.

use crate::catalog::{self, Kind};
use crate::json::{self, Value};
use std::collections::BTreeSet;

/// Validate a full dump; returns `line: message` strings (1-based lines).
pub fn check_dump(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut saw_meta = false;
    let mut cost_rows: BTreeSet<(String, String)> = BTreeSet::new();
    // Positive `store` request rows, by line, and the request counters.
    let mut store_rows: Vec<(usize, &'static str, &'static str)> = Vec::new();
    let mut counted: BTreeSet<String> = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let mut fail = |msg: String| errors.push(format!("{lineno}: {msg}"));
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                fail(format!("{e}"));
                continue;
            }
        };
        if !v.is_object() {
            fail("line is not a JSON object".to_string());
            continue;
        }
        let Some(ty) = v.get("type").and_then(Value::as_str) else {
            fail("missing string field `type`".to_string());
            continue;
        };
        if i == 0 {
            if ty != "meta" {
                fail(format!("first line must be the meta record, got `{ty}`"));
            } else if v.get("schema").and_then(Value::as_str) != Some("cackle-telemetry") {
                fail("meta.schema must be \"cackle-telemetry\"".to_string());
            } else if v.get("version").and_then(Value::as_u64).is_none() {
                fail("meta.version must be a non-negative integer".to_string());
            } else {
                saw_meta = true;
            }
            continue;
        }
        match ty {
            "meta" => fail("duplicate meta record".to_string()),
            "counter" => {
                check_name(&v, ty, Kind::Counter, &mut fail);
                match v.get("value").and_then(Value::as_u64) {
                    None => fail("counter.value must be a non-negative integer".to_string()),
                    Some(0) => {}
                    Some(_) => {
                        if let Some(name) = v.get("name").and_then(Value::as_str) {
                            counted.insert(name.to_string());
                        }
                    }
                }
            }
            "gauge" => {
                check_name(&v, ty, Kind::Gauge, &mut fail);
                if !is_num_or_null(v.get("value")) {
                    fail("gauge.value must be a number or null".to_string());
                }
            }
            "histogram" => {
                check_name(&v, ty, Kind::Histogram, &mut fail);
                check_histogram(&v, &mut fail);
            }
            "cost" => {
                let component = v.get("component").and_then(Value::as_str);
                let category = v.get("category").and_then(Value::as_str);
                if component.is_none() {
                    fail("cost needs string `component`".to_string());
                }
                if category.is_none() {
                    fail("cost needs string `category`".to_string());
                }
                match v.get("dollars").and_then(Value::as_f64) {
                    None => fail("cost.dollars must be a number".to_string()),
                    Some(d) if !d.is_finite() || d < 0.0 => fail(format!(
                        "cost.dollars must be finite and non-negative, got {d}"
                    )),
                    Some(d) if d > 0.0 && component == Some("store") => {
                        let counter = match category {
                            Some("s3_put") => Some(("s3_put", "store.put_requests_total")),
                            Some("s3_get") => Some(("s3_get", "store.get_requests_total")),
                            _ => None,
                        };
                        if let Some((category, counter)) = counter {
                            store_rows.push((lineno, category, counter));
                        }
                    }
                    Some(_) => {}
                }
                if let (Some(component), Some(category)) = (component, category) {
                    let row = (component.to_string(), category.to_string());
                    if !cost_rows.insert(row) {
                        fail(format!("repeated cost row `{component}`/`{category}`"));
                    }
                }
            }
            "series" => {
                check_name(&v, ty, Kind::Series, &mut fail);
                check_series(&v, &mut fail);
            }
            "event" => {
                if v.get("kind").and_then(Value::as_str).is_none() {
                    fail("event needs string `kind`".to_string());
                }
                if v.get("t_ms").and_then(Value::as_u64).is_none() {
                    fail("event.t_ms must be a non-negative integer".to_string());
                }
                if v.get("dur_ms").and_then(Value::as_u64).is_none() {
                    fail("event.dur_ms must be a non-negative integer".to_string());
                }
            }
            other => fail(format!("unknown record type `{other}`")),
        }
    }
    for (lineno, category, counter) in store_rows {
        if !counted.contains(counter) {
            errors.push(format!(
                "{lineno}: cost row `store`/`{category}` bills requests, but no positive `{counter}` counts them"
            ));
        }
    }
    if !saw_meta && !text.trim().is_empty() && errors.is_empty() {
        errors.push("1: dump has no meta record".to_string());
    }
    if text.trim().is_empty() {
        errors.push("1: dump is empty".to_string());
    }
    errors
}

/// The `ty` record's `name` must be a catalogue entry of `kind`, and a
/// histogram must carry that entry's bounds.
fn check_name(v: &Value, ty: &str, kind: Kind, fail: &mut dyn FnMut(String)) {
    let Some(name) = v.get("name").and_then(Value::as_str) else {
        return fail(format!("{ty} needs string `name`"));
    };
    let Some(metric) = catalog::index_of(name).map(|i| &catalog::METRICS[i]) else {
        return fail(format!("{ty} `{name}` is not in the metric catalogue"));
    };
    if metric.kind != kind {
        return fail(format!(
            "{ty} `{name}` is a {:?} in the metric catalogue",
            metric.kind
        ));
    }
    if let Some(bounds) = v.get("bounds").and_then(Value::as_array) {
        let declared = metric.bounds.iter().map(|&b| Some(b));
        if !bounds.iter().map(Value::as_f64).eq(declared) {
            fail(format!(
                "{ty} `{name}` bounds differ from its catalogue entry's {:?}",
                metric.bounds
            ));
        }
    }
}

fn is_num_or_null(v: Option<&Value>) -> bool {
    matches!(v, Some(Value::Num(_)) | Some(Value::Null))
}

fn check_histogram(v: &Value, fail: &mut dyn FnMut(String)) {
    let bounds = v.get("bounds").and_then(Value::as_array);
    let counts = v.get("counts").and_then(Value::as_array);
    let (Some(bounds), Some(counts)) = (bounds, counts) else {
        fail("histogram needs `bounds` and `counts` arrays".to_string());
        return;
    };
    if counts.len() != bounds.len() + 1 {
        fail(format!(
            "histogram counts.len() ({}) must be bounds.len() + 1 ({})",
            counts.len(),
            bounds.len() + 1
        ));
    }
    let mut sum = 0u64;
    for c in counts {
        match c.as_u64() {
            Some(n) => sum += n,
            None => {
                fail("histogram counts must be non-negative integers".to_string());
                return;
            }
        }
    }
    match v.get("count").and_then(Value::as_u64) {
        Some(total) if total == sum => {}
        Some(total) => fail(format!(
            "histogram bucket counts sum to {sum} but count is {total}"
        )),
        None => fail("histogram.count must be a non-negative integer".to_string()),
    }
    for key in ["sum", "min", "max"] {
        if !is_num_or_null(v.get(key)) {
            fail(format!("histogram.{key} must be a number or null"));
        }
    }
}

fn check_series(v: &Value, fail: &mut dyn FnMut(String)) {
    let Some(points) = v.get("points").and_then(Value::as_array) else {
        fail("series needs a `points` array".to_string());
        return;
    };
    let mut last_t = 0u64;
    for (i, p) in points.iter().enumerate() {
        let pair = p.as_array();
        let (t, val) = match pair {
            Some([t, val]) => (t, val),
            _ => {
                fail(format!("series point {i} must be a [t_ms, value] pair"));
                return;
            }
        };
        let Some(t) = t.as_u64() else {
            fail(format!(
                "series point {i}: t_ms must be a non-negative integer"
            ));
            return;
        };
        if t < last_t {
            fail(format!(
                "series point {i}: t_ms {t} goes backwards (previous {last_t})"
            ));
            return;
        }
        last_t = t;
        if !matches!(val, Value::Num(_) | Value::Null) {
            fail(format!("series point {i}: value must be a number or null"));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    const META: &str = "{\"type\":\"meta\",\"schema\":\"cackle-telemetry\",\"version\":1}\n";

    #[test]
    fn real_dump_validates_cleanly() {
        let t = Telemetry::new();
        t.add(catalog::RUN_QUERIES_TOTAL, 5);
        t.gauge_set(catalog::RUN_DURATION_SECONDS, 3600.0);
        t.record(catalog::RUN_QUERY_LATENCY_SECONDS, 12.0);
        t.record(catalog::ENGINE_TASK_ROWS_IN, 5000.0);
        t.sample(catalog::RUN_DEMAND, 0, 4.0);
        t.sample(catalog::RUN_DEMAND, 1000, 6.0);
        t.add_cost("fleet", "vm_compute", 1.25);
        t.span_event(0, 12_000, "query", Some(0), None, "");
        let errors = check_dump(&t.export_jsonl());
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn rejects_bad_dumps() {
        assert!(!check_dump("").is_empty());
        assert!(!check_dump("{\"type\":\"counter\"}\n").is_empty());
        let no_meta = "{\"type\":\"counter\",\"name\":\"x\",\"value\":1}\n";
        assert!(!check_dump(no_meta).is_empty());
        let bad_hist = "{\"type\":\"meta\",\"schema\":\"cackle-telemetry\",\"version\":1}\n\
             {\"type\":\"histogram\",\"name\":\"h\",\"bounds\":[1.0],\"counts\":[1,2],\
             \"count\":99,\"sum\":1.0,\"min\":1.0,\"max\":1.0}\n";
        let errors = check_dump(bad_hist);
        assert!(errors.iter().any(|e| e.contains("sum to 3")), "{errors:?}");
        let backwards = "{\"type\":\"meta\",\"schema\":\"cackle-telemetry\",\"version\":1}\n\
             {\"type\":\"series\",\"name\":\"s\",\"points\":[[5,1.0],[3,2.0]]}\n";
        assert!(!check_dump(backwards).is_empty());
    }

    fn cost_row(component: &str, category: &str, dollars: &str) -> String {
        format!(
            "{{\"type\":\"cost\",\"component\":\"{component}\",\
             \"category\":\"{category}\",\"dollars\":{dollars}}}\n"
        )
    }

    #[test]
    fn rejects_a_negative_cost() {
        let dump = format!("{META}{}", cost_row("fleet", "vm_compute", "-0.5"));
        assert_eq!(
            check_dump(&dump),
            ["2: cost.dollars must be finite and non-negative, got -0.5"]
        );
    }

    #[test]
    fn rejects_a_non_finite_cost() {
        // 1e999 parses to infinity: the writer never emits it, a file
        // from elsewhere can.
        let dump = format!("{META}{}", cost_row("pool", "elastic_pool", "1e999"));
        assert_eq!(
            check_dump(&dump),
            ["2: cost.dollars must be finite and non-negative, got inf"]
        );
    }

    fn counter(name: &str, value: u64) -> String {
        format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}\n")
    }

    #[test]
    fn rejects_a_repeated_cost_row() {
        let dump = format!(
            "{META}{}{}{}{}{}",
            cost_row("store", "s3_put", "0.25"),
            cost_row("store", "s3_get", "0.25"),
            cost_row("store", "s3_put", "0.5"),
            counter("store.get_requests_total", 625_000),
            counter("store.put_requests_total", 150_000),
        );
        assert_eq!(check_dump(&dump), ["4: repeated cost row `store`/`s3_put`"]);
    }

    #[test]
    fn rejects_a_store_bill_without_its_request_count() {
        let dump = format!(
            "{META}{}{}{}{}{}",
            counter("store.get_requests_total", 10),
            counter("store.put_requests_total", 0),
            cost_row("store", "s3_put", "0.25"),
            cost_row("store", "s3_get", "0.000004"),
            cost_row("recovery", "s3_put", "0.05"),
        );
        assert_eq!(
            check_dump(&dump),
            [
                "4: cost row `store`/`s3_put` bills requests, but no positive \
              `store.put_requests_total` counts them"
            ]
        );
        // A zero row needs no counter; the get row has its ten requests.
        let quiet = format!("{META}{}", cost_row("store", "s3_put", "0"));
        assert!(check_dump(&quiet).is_empty());
    }

    #[test]
    fn rejects_a_name_outside_the_catalogue() {
        let dump = format!(
            "{META}{{\"type\":\"counter\",\"name\":\"fleet.vms_restarted_total\",\"value\":1}}\n"
        );
        assert_eq!(
            check_dump(&dump),
            ["2: counter `fleet.vms_restarted_total` is not in the metric catalogue"]
        );
    }

    #[test]
    fn rejects_a_name_recorded_as_another_kind() {
        let dump =
            format!("{META}{{\"type\":\"gauge\",\"name\":\"run.queries_total\",\"value\":1.0}}\n");
        assert_eq!(
            check_dump(&dump),
            ["2: gauge `run.queries_total` is a Counter in the metric catalogue"]
        );
    }

    #[test]
    fn rejects_histogram_bounds_other_than_the_catalogue_entry() {
        let dump = format!(
            "{META}{{\"type\":\"histogram\",\"name\":\"env.vm_slowdown\",\"bounds\":[1.0,2.0],\
             \"counts\":[1,0,0],\"count\":1,\"sum\":1.0,\"min\":1.0,\"max\":1.0}}\n"
        );
        let errors = check_dump(&dump);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].starts_with("2: histogram `env.vm_slowdown` bounds differ"),
            "{errors:?}"
        );
    }
}
