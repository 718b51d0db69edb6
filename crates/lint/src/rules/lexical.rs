//! The flat token-pattern rules: L1 host clock, L2 unseeded RNG, L3
//! hash-order iteration, L5 panic paths, L6 ad-hoc threading, L13 seed
//! provenance (the one rule here that looks one `let` up). All neighbor
//! comparisons are kind-guarded (`ident()` / `punct()`) so string
//! literals — preserved as `Str` tokens — can never match as code.

use super::RawFinding;
use crate::index::Workspace;
use crate::lexer::{TokKind, Token};
use crate::parser::ParsedFile;
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

/// A stream-output method: its result must never become a seed.
fn is_draw(name: &str) -> bool {
    matches!(name, "next_u32" | "next_u64") || name.starts_with("gen_")
}

/// Does the token run call a draw method (turbofish included)?
fn calls_draw(toks: &[Token]) -> bool {
    toks.windows(2)
        .any(|w| is_draw(w[0].ident()) && matches!(w[1].punct(), "(" | "::"))
}

/// One hop of `let` provenance: is `name`, used at token `at`, bound by
/// the nearest `let [mut] name` above it in the same fn body (and still
/// in scope there) to an expression that calls a draw method?
fn let_draws(parsed: &ParsedFile, at: usize, name: &str) -> bool {
    let toks = &parsed.toks;
    let Some((open, _)) = parsed
        .fns
        .iter()
        .filter_map(|f| f.body)
        .filter(|&(open, close)| open < at && at < close)
        .max_by_key(|&(open, _)| open)
    else {
        return false;
    };
    let binds = |j: usize| {
        let k = if toks[j + 1].ident() == "mut" {
            j + 2
        } else {
            j + 1
        };
        toks[j].ident() == "let" && toks[k].ident() == name
    };
    (open..at)
        .rev()
        .find(|&j| binds(j) && parsed.scope_end(j) >= at)
        .is_some_and(|j| calls_draw(&toks[j..parsed.statement_end(j).min(at)]))
}

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

            // L13: a seed no RunSpec can reproduce — a literal, or a draw
            // from another stream (in the argument, or one `let` away).
            if t.text == "seed_from_u64" && next == "(" && !(i > 0 && toks[i - 1].ident() == "fn") {
                let arg = match file.parsed.close_of(i + 1) {
                    Some(close) => &toks[i + 2..close],
                    None => &[][..],
                };
                let drawn = match arg {
                    [one] => one.kind == TokKind::Ident && let_draws(&file.parsed, i, &one.text),
                    _ => calls_draw(arg),
                };
                let finding = if matches!(arg, [lit] if lit.kind == TokKind::Number) {
                    Some((
                        "PRNG stream seeded from a literal",
                        "thread the RunSpec seed here (e.g. `spec.seed ^ SALT_X`) so the stream \
                         is re-derivable from the spec",
                    ))
                } else {
                    drawn.then_some((
                        "PRNG stream re-seeded from derived stream state (a draw feeds \
                         `seed_from_u64`)",
                        "derive sub-streams from the RunSpec seed with a salt \
                         (`seed ^ SALT_X`, `splitmix64`), never from draws",
                    ))
                };
                if let Some((message, suggestion)) = finding {
                    out.push(RawFinding {
                        file: fi,
                        tok: i,
                        id: LintId::L13,
                        message: message.into(),
                        suggestion: suggestion.into(),
                    });
                }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn l13(src: &str) -> Vec<String> {
        let ws = Workspace::build(vec![("crates/core/src/x.rs".into(), src.into())]);
        let mut out = Vec::new();
        check(&ws, &mut out);
        out.into_iter()
            .filter(|f| f.id == LintId::L13)
            .map(|f| f.message)
            .collect()
    }

    #[test]
    fn literal_and_drawn_seeds_flagged() {
        let f = l13("fn f() -> Pcg32 { Pcg32::seed_from_u64(42) }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("literal"));
        for drawn in [
            "Pcg32::seed_from_u64(rng.next_u64())",
            "Pcg32::seed_from_u64(seed ^ rng.next_u32() as u64)",
            "Pcg32::seed_from_u64(rng.gen_range::<u64>(0..9))",
            // One `let` away.
            "let draw = rng.next_u64(); Pcg32::seed_from_u64(draw)",
            "let mut d: u64 = rng.next_u32() as u64; d ^= seed; Pcg32::seed_from_u64(d)",
        ] {
            let f = l13(&format!(
                "fn f(rng: &mut Pcg32, seed: u64) -> Pcg32 {{ {drawn} }}"
            ));
            assert_eq!(f.len(), 1, "{drawn}: {f:?}");
            assert!(f[0].contains("derived stream state"), "{f:?}");
        }
    }

    #[test]
    fn derived_seeds_and_definitions_clean() {
        for ok in [
            "fn f(spec: &RunSpec) -> Pcg32 { Pcg32::seed_from_u64(spec.seed ^ SALT_X) }",
            "fn f(s: u64) -> Pcg32 { Pcg32::seed_from_u64(splitmix64(&mut (s ^ 1))) }",
            // A literal inside a larger expression is a salt, not a seed.
            "fn f(seed: u64) -> Pcg32 { Pcg32::seed_from_u64(seed ^ 0x9e37) }",
            // A draw-like name that is not called.
            "fn f(gen_seed: u64) -> Pcg32 { Pcg32::seed_from_u64(gen_seed) }",
            "pub fn seed_from_u64(seed: u64) -> Pcg32 { Pcg32 { state: seed } }",
            // The nearest `let` decides: a clean shadow of a drawn value.
            "fn f(rng: &mut Pcg32, seed: u64) -> Pcg32 { let k = rng.next_u64(); \
             let k = seed ^ 7; Pcg32::seed_from_u64(k) }",
            // A drawn binding whose block has closed, or in another fn.
            "fn f(rng: &mut Pcg32, k: u64) -> Pcg32 { { let k = rng.next_u64(); } \
             Pcg32::seed_from_u64(k) }",
            "fn g(rng: &mut Pcg32) { let k = rng.next_u64(); }\n\
             fn f(k: u64) -> Pcg32 { Pcg32::seed_from_u64(k) }",
        ] {
            assert!(l13(ok).is_empty(), "{ok}");
        }
    }
}
