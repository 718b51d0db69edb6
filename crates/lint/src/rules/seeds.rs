//! L13 · seed provenance: no PRNG stream seeded from a literal or from
//! another stream's draws.
//!
//! A lexical check on `seed_from_u64(...)` call sites: the argument's
//! tokens, plus the one `let` in the same fn that binds a lone
//! identifier argument. Every neighbor comparison is kind-guarded
//! (`ident()` / `punct()`), so string literals — preserved as `Str`
//! tokens — never match as code.

use super::RawFinding;
use crate::index::Workspace;
use crate::lexer::{TokKind, Token};
use crate::parser::ParsedFile;
use crate::LintId;

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
        for i in 0..toks.len() {
            // A call, not the definition in crates/prng.
            if toks[i].ident() != "seed_from_u64"
                || toks.get(i + 1).map(|t| t.punct()) != Some("(")
                || (i > 0 && toks[i - 1].ident() == "fn")
            {
                continue;
            }
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
