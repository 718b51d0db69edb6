//! L19 · purity contracts: `// cackle-lint: pure(param, ...)`.
//!
//! The env pack's keyed-draw artifacts (DESIGN §14) promise that
//! `vm_traits(seed, vm)`, the `PriceTimeline` / `ReclaimStorm`
//! constructors, and the keyed-draw helpers are *pure functions of
//! their declared inputs* — the property that makes draws independent
//! of worker count, arrival order, and wall-clock. A `pure(...)`
//! annotation on the line above a fn (or trailing on its `fn` line)
//! turns that promise into a verified contract. Four clauses:
//!
//! * **(a) declared params exist** — every name in `pure(...)` must be
//!   a signature parameter (`self` is allowed only on methods, and
//!   permits reads of own fields);
//! * **(b) no mutable statics** — the body never references a
//!   `static mut` item (collected workspace-wide);
//! * **(c) no interior mutability, pure callees only** — no
//!   `lock`/`borrow_mut`/atomic-RMW calls, and every callee that
//!   resolves to a workspace fn is itself `pure(...)`-annotated (PRNG
//!   intrinsics — `splitmix64`, `gen_range`, ... — are the trusted
//!   leaves; unresolved names are std and assumed pure);
//! * **(d) draw keys from declared inputs** — every argument of a
//!   `keyed(...)` / `keyed_stream(...)` call derives (via the L13
//!   source closure) only from declared parameters, seed/salt-named
//!   constants, own fields when `self` is declared, or locals built
//!   from those.
//!
//! Syntactically malformed annotations are SUP hard errors (surfaced
//! by lib.rs via [`annotations`]), same as `allow(...)`:
//! a typo'd contract that silently verifies nothing is worse than no
//! contract at all.

use super::RawFinding;
use crate::dataflow::{is_seed_named, Flows};
use crate::index::Workspace;
use crate::lexer::TokKind;
use crate::LintId;
use std::collections::{BTreeMap, BTreeSet};

/// Trusted PRNG leaves: deterministic mixers the seed machinery is
/// built from. Calls to these never need their own annotation.
const INTRINSICS: [&str; 7] = [
    "splitmix64",
    "seed_from_u64",
    "gen_range",
    "next_u32",
    "next_u64",
    "next_f64",
    "next_f32",
];

/// Method names that reach through `&self` to mutate shared state —
/// categorically impure whatever the receiver.
const INTERIOR_MUT: [&str; 10] = [
    "lock",
    "borrow_mut",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Parsed `pure(...)` annotations of one file.
#[derive(Debug, Default)]
pub struct PureAnnots {
    /// 1-based annotation line → declared parameter names (possibly
    /// empty: `pure()` declares a constant).
    pub by_line: BTreeMap<usize, Vec<String>>,
    /// `(line, what)` for each malformed annotation.
    pub errors: Vec<(usize, String)>,
}

/// Parse every `// cackle-lint: pure(...)` comment in `source`.
/// Malformations — missing `)`, empty element / trailing comma,
/// duplicate name, non-identifier — land in `errors`.
pub fn annotations(source: &str) -> PureAnnots {
    const MARKER: &str = "cackle-lint:";
    let mut out = PureAnnots::default();
    for (i, raw) in source.lines().enumerate() {
        let line = i + 1;
        let Some(at) = raw.find(MARKER) else {
            continue;
        };
        let rest = raw[at + MARKER.len()..].trim_start();
        let Some(list) = rest.strip_prefix("pure(") else {
            continue;
        };
        let Some(close) = list.find(')') else {
            out.errors
                .push((line, "malformed pure annotation: missing `)`".into()));
            continue;
        };
        let body = &list[..close];
        let mut decls: Vec<String> = Vec::new();
        let mut ok = true;
        if !body.trim().is_empty() {
            for part in body.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    out.errors.push((
                        line,
                        "malformed pure annotation: empty element (trailing comma?)".into(),
                    ));
                    ok = false;
                    break;
                }
                let ident_ok = part.chars().enumerate().all(|(k, c)| {
                    c == '_' || c.is_ascii_alphabetic() || (k > 0 && c.is_ascii_digit())
                });
                if !ident_ok {
                    out.errors.push((
                        line,
                        format!("malformed pure annotation: `{part}` is not a parameter name"),
                    ));
                    ok = false;
                    break;
                }
                if decls.iter().any(|d| d == part) {
                    out.errors.push((
                        line,
                        format!("malformed pure annotation: duplicate parameter `{part}`"),
                    ));
                    ok = false;
                    break;
                }
                decls.push(part.to_string());
            }
        }
        if ok {
            out.by_line.insert(line, decls);
        }
    }
    out
}

pub fn check(ws: &Workspace, flows: &Flows, out: &mut Vec<RawFinding>) {
    // Workspace-wide facts: per-file annotations, `static mut` names,
    // and the set of pure-annotated fn ids (clause (c) consults it).
    let annots: Vec<PureAnnots> = ws.files.iter().map(|f| annotations(&f.source)).collect();
    let mut static_muts: BTreeSet<String> = BTreeSet::new();
    for f in &ws.files {
        let toks = &f.parsed.toks;
        for i in 0..toks.len().saturating_sub(2) {
            if toks[i].ident() == "static" && toks[i + 1].ident() == "mut" {
                static_muts.insert(toks[i + 2].text.clone());
            }
        }
    }

    // fn id → declared params, plus which annotation lines attached.
    let mut pure_fns: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut attached: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); ws.files.len()];
    for (id, f) in ws.index.fns.iter().enumerate() {
        let item = ws.fn_item(id);
        for line in [item.line.saturating_sub(1), item.line] {
            if let Some(decls) = annots[f.file].by_line.get(&line) {
                pure_fns.insert(id, decls.clone());
                attached[f.file].insert(line);
                break;
            }
        }
    }

    // Orphaned annotations: a contract that attaches to nothing
    // verifies nothing — loudly so.
    for (fi, ann) in annots.iter().enumerate() {
        for &line in ann.by_line.keys() {
            if attached[fi].contains(&line) {
                continue;
            }
            let toks = &ws.files[fi].parsed.toks;
            let Some(tok) = toks
                .iter()
                .position(|t| t.line >= line)
                .or(if toks.is_empty() {
                    None
                } else {
                    Some(toks.len() - 1)
                })
            else {
                continue;
            };
            out.push(RawFinding {
                file: fi,
                tok,
                id: LintId::L19,
                message: "`pure(...)` annotation attaches to no fn (neither this line nor \
                          the next starts a fn item)"
                    .to_string(),
                suggestion: "place the annotation on the line directly above the `fn`, after \
                             any attributes"
                    .to_string(),
            });
        }
    }

    let resolves_pure = |name: &str| -> bool {
        if INTRINSICS.contains(&name) || !Workspace::edge_name_kept(name) {
            return true;
        }
        match ws.index.by_name.get(name) {
            // Unresolved: a std method (`wrapping_mul`, `to_le_bytes`)
            // — trusted.
            None => true,
            Some(ids) => ids.iter().all(|c| pure_fns.contains_key(c)),
        }
    };

    for (&id, decls) in &pure_fns {
        let f = &ws.index.fns[id];
        let p = &ws.files[f.file].parsed;
        let item = ws.fn_item(id);
        let q = &item.qualified;
        let name_tok = item.kw + 1;
        let sig_end = item
            .body
            .map(|(open, _)| open)
            .unwrap_or_else(|| p.statement_end(item.kw).min(p.toks.len().saturating_sub(1)));
        let has_self = (item.kw..=sig_end).any(|k| p.toks[k].ident() == "self");
        let self_declared = decls.iter().any(|d| d == "self");

        // (a) every declared name is a parameter.
        for d in decls {
            let ok = if d == "self" {
                has_self
            } else {
                flows.flows[id].params.iter().any(|n| n == d)
            };
            if !ok {
                out.push(RawFinding {
                    file: f.file,
                    tok: name_tok,
                    id: LintId::L19,
                    message: format!(
                        "`pure(...)` on fn `{q}` names `{d}`, which is not a parameter"
                    ),
                    suggestion: "list only the fn's own parameter names (and `self` on methods)"
                        .to_string(),
                });
            }
        }

        let Some(body) = item.body else {
            continue;
        };

        // Own fields readable when `self` is declared: idents after
        // `self.` in the body (methods, too — clause (c) vets them).
        let mut self_fields: BTreeSet<&str> = BTreeSet::new();
        for k in body.0..body.1.saturating_sub(1) {
            if p.toks[k].ident() == "self"
                && p.toks[k + 1].punct() == "."
                && p.toks[k + 2].kind == TokKind::Ident
            {
                self_fields.insert(p.toks[k + 2].text.as_str());
            }
        }

        // (b) no mutable-static reads.
        for k in body.0 + 1..body.1 {
            let t = &p.toks[k];
            if t.kind == TokKind::Ident && static_muts.contains(&t.text) {
                out.push(RawFinding {
                    file: f.file,
                    tok: k,
                    id: LintId::L19,
                    message: format!(
                        "`pure(...)`-annotated fn `{q}` reads mutable static `{}`",
                        t.text
                    ),
                    suggestion: "thread the value through a declared parameter instead".to_string(),
                });
            }
        }

        for call in &f.calls {
            // (c) no interior mutability; workspace callees must be
            // pure themselves.
            if INTERIOR_MUT.contains(&call.name.as_str()) {
                out.push(RawFinding {
                    file: f.file,
                    tok: call.name_tok,
                    id: LintId::L19,
                    message: format!(
                        "`pure(...)`-annotated fn `{q}` calls interior-mutability \
                         method `.{}(...)`",
                        call.name
                    ),
                    suggestion: "a pure fn may not mutate through shared references; \
                                 hoist the state change to the caller"
                        .to_string(),
                });
                continue;
            }
            if !resolves_pure(&call.name) {
                out.push(RawFinding {
                    file: f.file,
                    tok: call.name_tok,
                    id: LintId::L19,
                    message: format!(
                        "`pure(...)`-annotated fn `{q}` calls `{}`, which is not \
                         `pure(...)`-annotated",
                        call.name
                    ),
                    suggestion: "annotate the callee's contract (and fix what that surfaces) \
                                 or drop the call"
                        .to_string(),
                });
            }

            // (d) draw keys derive only from declared inputs.
            if call.name != "keyed" && call.name != "keyed_stream" {
                continue;
            }
            let Some(args) = p.call_args(call.open) else {
                continue;
            };
            for arg in args {
                for s in flows.expr_sources(p, id, arg) {
                    let ok = if let Some(callee) = s.strip_prefix("call:") {
                        resolves_pure(callee)
                    } else {
                        decls.iter().any(|d| d == &s)
                            || is_seed_named(&s)
                            || (self_declared && self_fields.contains(s.as_str()))
                            || flows.closures[id].contains_key(&s)
                    };
                    if !ok {
                        out.push(RawFinding {
                            file: f.file,
                            tok: call.name_tok,
                            id: LintId::L19,
                            message: format!(
                                "draw key in `pure(...)`-annotated fn `{q}` derives from \
                                 `{s}`, outside the declared parameters"
                            ),
                            suggestion: "derive keys only from the `pure(...)` parameters, \
                                         seed/salt constants, or declared-`self` fields"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str)]) -> Vec<RawFinding> {
        let ws = Workspace::build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        );
        let flows = Flows::build(&ws);
        let mut out = Vec::new();
        check(&ws, &flows, &mut out);
        out
    }

    #[test]
    fn annotation_grammar_accepts_and_rejects() {
        let a = annotations(
            "// cackle-lint: pure(seed, vm)\n\
             // cackle-lint: pure()\n\
             // cackle-lint: pure(seed, seed)\n\
             // cackle-lint: pure(seed,)\n\
             // cackle-lint: pure(a b)\n\
             // cackle-lint: pure(seed\n\
             // cackle-lint: allow(L5)\n",
        );
        assert_eq!(a.by_line[&1], ["seed", "vm"]);
        assert!(a.by_line[&2].is_empty());
        assert_eq!(a.errors.len(), 4, "{:?}", a.errors);
        assert!(a.errors[0].1.contains("duplicate"));
        assert!(a.errors[1].1.contains("empty element"));
        assert!(a.errors[2].1.contains("not a parameter name"));
        assert!(a.errors[3].1.contains("missing `)`"));
    }

    #[test]
    fn clean_pure_fn_verifies() {
        let f = findings(&[(
            "crates/faults/src/env.rs",
            "// cackle-lint: pure(seed, salt, key)\n\
             pub fn keyed(seed: u64, salt: u64, key: u64) -> u64 {\n\
                 let mut s = seed ^ salt ^ key;\n\
                 splitmix64(&mut s)\n\
             }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn undeclared_param_unpure_callee_and_interior_mut_flagged() {
        let f = findings(&[(
            "crates/faults/src/env.rs",
            "// cackle-lint: pure(seed, nope)\n\
             pub fn vm_traits(seed: u64, vm: u32) -> u64 {\n\
                 let c = self.cache.lock();\n\
                 helper(seed)\n\
             }\n\
             pub fn helper(seed: u64) -> u64 { seed }\n",
        )]);
        let msgs: Vec<&str> = f.iter().map(|r| r.message.as_str()).collect();
        assert_eq!(f.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("names `nope`")));
        assert!(msgs.iter().any(|m| m.contains("interior-mutability")));
        assert!(msgs.iter().any(|m| m.contains("`helper`, which is not")));
        assert!(f.iter().all(|r| r.id == LintId::L19));
    }

    #[test]
    fn mutable_static_read_flagged() {
        let f = findings(&[(
            "crates/faults/src/env.rs",
            "static mut GLOBAL_EPOCH: u64 = 0;\n\
             // cackle-lint: pure(seed)\n\
             pub fn draw(seed: u64) -> u64 { seed ^ unsafe { GLOBAL_EPOCH } }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("GLOBAL_EPOCH"));
    }

    #[test]
    fn draw_key_outside_declared_params_flagged() {
        // `vm` flows into the key but only `seed` is declared; the
        // derived local `k` itself is fine (locals expand through the
        // closure), its `worker_slot` source is not.
        let f = findings(&[(
            "crates/faults/src/env.rs",
            "// cackle-lint: pure(seed, salt, key)\n\
             pub fn keyed(seed: u64, salt: u64, key: u64) -> u64 { seed ^ salt ^ key }\n\
             // cackle-lint: pure(seed)\n\
             pub fn vm_traits(seed: u64, worker_slot: u32) -> u64 {\n\
                 let k = worker_slot as u64;\n\
                 keyed(seed, SALT_ENV_VM, k)\n\
             }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("worker_slot"), "{f:?}");
        // Declaring the param clears it.
        let ok = findings(&[(
            "crates/faults/src/env.rs",
            "// cackle-lint: pure(seed, salt, key)\n\
             pub fn keyed(seed: u64, salt: u64, key: u64) -> u64 { seed ^ salt ^ key }\n\
             // cackle-lint: pure(seed, vm)\n\
             pub fn vm_traits(seed: u64, vm: u32) -> u64 {\n\
                 keyed(seed, SALT_ENV_VM, vm as u64)\n\
             }\n",
        )]);
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn self_fields_require_declared_self_and_orphans_flagged() {
        let src = "// cackle-lint: pure(self, now_s)\n\
             impl PriceTimeline { pub fn multiplier_milli(&self, now_s: u64) -> u64 {\n\
                 self.base ^ now_s\n\
             } }\n\
             // cackle-lint: pure(seed)\n\
             const X: u64 = 0;\n";
        let f = findings(&[("crates/faults/src/env.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("attaches to no fn"));
    }
}
