//! L10 · telemetry metric-name schema conformance.
//!
//! Registry write methods take the metric name as their first argument.
//! That argument must be a single string literal matching the DESIGN §7
//! grammar — `component.metric_name`, lowercase snake segments, a known
//! component prefix — so the set of series a run emits is fixed at
//! compile time and the golden-dump diff stays meaningful. Arity
//! disambiguates same-named methods on other types (`Histogram::
//! observe(v)` is 1-arg, `Pcg32` range `sample(rng)` is 1-arg; the
//! registry's are 2- and 3-arg).

use super::RawFinding;
use crate::index::Workspace;
use crate::lexer::TokKind;
use crate::LintId;

/// Registry write methods and their argument counts.
const METHODS: [(&str, usize); 5] = [
    ("counter_add", 2),
    ("gauge_set", 2),
    ("observe", 2),
    ("observe_with_buckets", 3),
    ("sample", 3),
];

/// Component prefixes blessed by the DESIGN §7 table.
const PREFIXES: [&str; 14] = [
    "run",
    "meta",
    "engine",
    "pool",
    "store",
    "fault",
    "recovery",
    "fleet",
    "shuffle_fleet",
    "warehouse",
    "endpoint",
    "serve",
    "tenant",
    "env",
];

pub fn check(ws: &Workspace, out: &mut Vec<RawFinding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        let p = &file.parsed;
        let toks = &p.toks;
        for i in 0..toks.len() {
            let Some(&(_, arity)) = METHODS.iter().find(|&&(m, _)| m == toks[i].ident()) else {
                continue;
            };
            // Method call: `.name(`.
            if i == 0 || toks[i - 1].punct() != "." {
                continue;
            }
            if toks.get(i + 1).map(|t| t.punct()) != Some("(") {
                continue;
            }
            let Some(args) = p.call_args(i + 1) else {
                continue;
            };
            if args.len() != arity {
                continue;
            }
            let (mut lo, hi) = args[0];
            // A leading `&` borrow is transparent.
            while lo < hi && toks[lo].punct() == "&" {
                lo += 1;
            }
            let method = toks[i].text.clone();
            if lo == hi && toks[lo].kind == TokKind::Str {
                let name = &toks[lo].text;
                if let Some(problem) = grammar_problem(name) {
                    out.push(RawFinding {
                        file: fi,
                        tok: i,
                        id: LintId::L10,
                        message: format!("metric name \"{name}\" passed to `.{method}` {problem}"),
                        suggestion: "use `component.metric_name`: lowercase snake segments, \
                                     component prefix from the DESIGN §7 table"
                            .into(),
                    });
                }
                continue;
            }
            let built_by_format = (lo..=hi).any(|j| {
                toks[j].ident() == "format" && toks.get(j + 1).map(|t| t.punct()) == Some("!")
            });
            let (what, fix) = if built_by_format {
                (
                    "is format!-built",
                    "select from a static table of literal names instead of formatting",
                )
            } else {
                (
                    "is not a string literal",
                    "pass a literal `component.metric_name` (or add an allow comment if the \
                     name is provably from a literal table)",
                )
            };
            out.push(RawFinding {
                file: fi,
                tok: i,
                id: LintId::L10,
                message: format!("metric name passed to `.{method}` {what}"),
                suggestion: fix.into(),
            });
        }
    }
}

/// Why `name` violates the `component.metric_name` grammar, if it does.
fn grammar_problem(name: &str) -> Option<String> {
    let segs: Vec<&str> = name.split('.').collect();
    if segs.len() < 2 {
        return Some("has no `component.` prefix".into());
    }
    for s in &segs {
        let mut chars = s.chars();
        let head_ok = chars.next().is_some_and(|c| c.is_ascii_lowercase());
        let tail_ok = chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if !head_ok || !tail_ok {
            return Some(format!("has a malformed segment `{s}`"));
        }
    }
    if !PREFIXES.contains(&segs[0]) {
        return Some(format!(
            "has unknown component prefix `{}` (not in the DESIGN §7 table)",
            segs[0]
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<RawFinding> {
        let ws = Workspace::build(vec![(
            "crates/telemetry/src/x.rs".to_string(),
            src.to_string(),
        )]);
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    #[test]
    fn conforming_literals_clean() {
        let f = findings(
            "fn f(t: &Registry) { t.counter_add(\"store.get_requests_total\", 1);\n\
             t.gauge_set(\"pool.ready_vms\", 3.0);\n\
             t.sample(\"fleet.vm_billed_seconds\", 10, 1.0);\n\
             t.observe_with_buckets(\"engine.stage_ms\", 5.0, &[1.0, 10.0]); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn format_built_name_flagged() {
        let f = findings(
            "fn f(t: &Registry, c: &str) { t.counter_add(&format!(\"{}.vms_total\", c), 1); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("format!-built"));
    }

    #[test]
    fn bad_grammar_flagged() {
        assert_eq!(
            findings("fn f(t: &T) { t.counter_add(\"noprefix\", 1); }").len(),
            1
        );
        assert_eq!(
            findings("fn f(t: &T) { t.counter_add(\"Store.Get\", 1); }").len(),
            1
        );
        assert_eq!(
            findings("fn f(t: &T) { t.counter_add(\"mystery.thing_total\", 1); }").len(),
            1
        );
    }

    #[test]
    fn serving_layer_prefixes_blessed() {
        let f = findings(
            "fn f(t: &Registry) { t.counter_add(\"serve.admitted_total\", 1);\n\
             t.gauge_set(\"tenant.active\", 3.0);\n\
             t.sample(\"serve.queue_depth\", 1000, 2.0); }",
        );
        assert!(f.is_empty(), "{f:?}");
        // Near-miss prefixes still fail the table lookup.
        let near = findings("fn f(t: &T) { t.counter_add(\"serv.admitted_total\", 1); }");
        assert_eq!(near.len(), 1, "{near:?}");
        assert!(near[0].message.contains("`serv`"), "{near:?}");
    }

    #[test]
    fn environment_prefix_blessed() {
        let f = findings(
            "fn f(t: &Registry) { t.counter_add(\"env.storm_reclaims_total\", 1);\n\
             t.counter_add(\"env.egress_bytes_total\", 512);\n\
             t.observe_with_buckets(\"env.vm_slowdown\", 2.0, &[1.0, 2.0, 4.0]); }",
        );
        assert!(f.is_empty(), "{f:?}");
        // Near-miss prefixes still fail the table lookup.
        let near = findings("fn f(t: &T) { t.counter_add(\"en.vms_total\", 1); }");
        assert_eq!(near.len(), 1, "{near:?}");
        assert!(near[0].message.contains("`en`"), "{near:?}");
        // format!-building an env name is flagged like any other.
        let built = findings(
            "fn f(t: &T, region: &str) { t.counter_add(&format!(\"env.{}_vms_total\", region), 1); }",
        );
        assert_eq!(built.len(), 1, "{built:?}");
        assert!(built[0].message.contains("format!-built"));
    }

    #[test]
    fn non_literal_variable_flagged() {
        let f = findings("fn f(t: &T, name: &str) { t.counter_add(name, 1); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not a string literal"));
    }

    #[test]
    fn one_arg_observe_is_histogram_not_registry() {
        // `Histogram::observe(v)` takes one argument — not a metric write.
        let f = findings("fn f(h: &mut Histogram, v: f64) { h.observe(v); }");
        assert!(f.is_empty(), "{f:?}");
        // Same for a 1-arg `sample` (PRNG ranges).
        let f2 = findings("fn f(r: &Range, rng: &mut Pcg32) { r.sample(rng); }");
        assert!(f2.is_empty(), "{f2:?}");
    }
}
