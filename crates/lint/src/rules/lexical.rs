//! The flat token-pattern rules carried over from cackle-lint v1:
//! L1 host clock, L2 unseeded RNG, L3 hash-order iteration, L5 panic
//! paths, L6 ad-hoc threading. All neighbor comparisons are kind-guarded
//! (`ident()` / `punct()`) so string literals — now preserved as `Str`
//! tokens — can never match as code.

use super::RawFinding;
use crate::index::Workspace;
use crate::lexer::TokKind;
use crate::LintId;
use std::collections::BTreeSet;

const ORDER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
];

pub fn check(ws: &Workspace, out: &mut Vec<RawFinding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        let toks = &file.parsed.toks;
        let hash_bindings = collect_hash_bindings(file);
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident {
                continue;
            }
            let t = &toks[i];
            let next = toks.get(i + 1).map(|t| t.punct()).unwrap_or("");
            let prev = if i > 0 { toks[i - 1].punct() } else { "" };

            // L1: host clock.
            if t.text == "Instant" || t.text == "SystemTime" {
                out.push(RawFinding {
                    file: fi,
                    tok: i,
                    id: LintId::L1,
                    message: format!("host clock `{}`", t.text),
                    suggestion: "use the simulated clock in cackle-cloud".into(),
                });
            }

            // L2: nondeterministic RNG.
            if matches!(
                t.text.as_str(),
                "thread_rng" | "from_entropy" | "ThreadRng" | "OsRng"
            ) || (t.text == "rand" && next == "::")
            {
                out.push(RawFinding {
                    file: fi,
                    tok: i,
                    id: LintId::L2,
                    message: format!("unseeded RNG `{}`", t.text),
                    suggestion: "use cackle_prng::Pcg32::seed_from_u64".into(),
                });
            }

            // L3: order-revealing hash iteration.
            if hash_bindings.contains(t.text.as_str()) {
                if next == "." {
                    if let Some(m) = toks.get(i + 2) {
                        if ORDER_METHODS.contains(&m.ident())
                            && toks.get(i + 3).map(|t| t.punct()) == Some("(")
                        {
                            out.push(RawFinding {
                                file: fi,
                                tok: i + 2,
                                id: LintId::L3,
                                message: format!(
                                    "iteration over hash collection `{}` (`.{}`): order is \
                                     nondeterministic",
                                    t.text, m.text
                                ),
                                suggestion: "use a BTree collection".into(),
                            });
                        }
                    }
                }
                // `for (k, v) in &map {` / `for k in map {`
                let prev_in = (i > 0 && toks[i - 1].ident() == "in")
                    || (prev == "&" && i >= 2 && toks[i - 2].ident() == "in");
                if prev_in && next == "{" {
                    out.push(RawFinding {
                        file: fi,
                        tok: i,
                        id: LintId::L3,
                        message: format!(
                            "iteration over hash collection `{}`: order is nondeterministic",
                            t.text
                        ),
                        suggestion: "use a BTree collection".into(),
                    });
                }
            }

            // L5: panic paths.
            if (t.text == "unwrap" || t.text == "expect") && next == "(" && prev == "." {
                out.push(RawFinding {
                    file: fi,
                    tok: i,
                    id: LintId::L5,
                    message: format!("`.{}()` on a hot path", t.text),
                    suggestion: "return a fallible variant or handle the None/Err".into(),
                });
            }
            if matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && next == "!"
            {
                out.push(RawFinding {
                    file: fi,
                    tok: i,
                    id: LintId::L5,
                    message: format!("`{}!` on a hot path", t.text),
                    suggestion: "handle the case or debug_assert".into(),
                });
            }

            // L6: ad-hoc threading (`thread::spawn` / `thread::scope`).
            if matches!(t.text.as_str(), "spawn" | "scope")
                && prev == "::"
                && i >= 2
                && toks[i - 2].ident() == "thread"
            {
                out.push(RawFinding {
                    file: fi,
                    tok: i,
                    id: LintId::L6,
                    message: format!("`thread::{}` outside the stage executor", t.text),
                    suggestion: "route parallel work through cackle_engine::executor::Executor"
                        .into(),
                });
            }
        }
    }
}

/// Identifiers declared with a `HashMap` / `HashSet` type in this file:
/// `name: ...HashMap<...>` (fields, params) and
/// `let [mut] name = ...HashMap::new()`-style initializers.
fn collect_hash_bindings(file: &crate::index::SourceFile) -> BTreeSet<String> {
    let toks = &file.parsed.toks;
    let excluded = &file.parsed.test_excluded;
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if excluded[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name : ... HashMap` within a few tokens, before any delimiter.
        if toks.get(i + 1).map(|t| t.punct()) == Some(":") {
            for t in toks.iter().skip(i + 2).take(8) {
                if matches!(t.ident(), "HashMap" | "HashSet") {
                    names.insert(toks[i].text.clone());
                    break;
                }
                if matches!(t.punct(), "," | ";" | ")" | "{" | "}" | "=") {
                    break;
                }
            }
        }
        // `let [mut] name ... = ... HashMap ... ;`
        if toks[i].text == "let" {
            let mut j = i + 1;
            if toks.get(j).map(|t| t.ident()) == Some("mut") {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                let mut k = j + 1;
                while k < toks.len() && toks[k].punct() != ";" {
                    if matches!(toks[k].ident(), "HashMap" | "HashSet") {
                        names.insert(name.text.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    names
}
