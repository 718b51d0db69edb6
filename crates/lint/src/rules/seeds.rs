//! L13 · seed provenance.
//!
//! Reproducibility rests on every PRNG stream deriving from the
//! RunSpec seed (possibly through salt constants and `splitmix64`
//! expansion). This rule taint-tracks the argument of every
//! `Pcg32::seed_from_u64(...)` construction site through the
//! assignment graph and call summaries, and flags:
//!
//! * **literal seeds** — `seed_from_u64(42)` bakes schedule-independent
//!   randomness nobody can re-derive from a RunSpec;
//! * **re-seeding from derived state** — feeding a stream's *output*
//!   (`next_u64()`, `gen_range(...)`) back into a new stream couples
//!   the new stream to draw order, the exact coupling keyed streams
//!   exist to break;
//! * **unproven provenance** — the argument's sources contain neither a
//!   seed/salt/key-named identifier nor a call to a seed-derived
//!   helper. Thread the seed explicitly, or suppress with a
//!   justification when the derivation is genuinely out of reach.

use super::RawFinding;
use crate::dataflow::Flows;
use crate::index::Workspace;
use crate::LintId;

/// Stream-output methods: their results must never become seeds.
const DRAW_METHODS: [&str; 6] = [
    "next_u64",
    "next_u32",
    "gen_range",
    "gen_f64",
    "gen_bool",
    "gen_u32",
];

pub fn check(ws: &Workspace, fl: &Flows, out: &mut Vec<RawFinding>) {
    for id in 0..ws.index.fns.len() {
        let f = &ws.index.fns[id];
        let p = &ws.files[f.file].parsed;
        for call in &f.calls {
            if call.name != "seed_from_u64" {
                continue;
            }
            let Some(args) = p.call_args(call.open) else {
                continue;
            };
            let [arg] = args[..] else {
                continue;
            };
            let srcs = fl.expr_sources(p, id, arg);
            if srcs.iter().any(|s| {
                s.strip_prefix("call:")
                    .is_some_and(|c| DRAW_METHODS.contains(&c))
            }) {
                out.push(RawFinding {
                    file: f.file,
                    tok: call.name_tok,
                    id: LintId::L13,
                    message: "PRNG stream re-seeded from derived stream state (a draw feeds \
                              `seed_from_u64`)"
                        .into(),
                    suggestion: "derive sub-streams from the RunSpec seed with a salt \
                                 (`seed ^ SALT_X`, `splitmix64`), never from draws"
                        .into(),
                });
                continue;
            }
            if srcs.iter().any(|s| fl.source_is_seed_derived(ws, s)) {
                continue;
            }
            if srcs.is_empty() {
                out.push(RawFinding {
                    file: f.file,
                    tok: call.name_tok,
                    id: LintId::L13,
                    message: "PRNG stream seeded from a literal".into(),
                    suggestion: "thread the RunSpec seed here (e.g. `spec.seed ^ SALT_X`) so \
                                 the stream is re-derivable from the spec"
                        .into(),
                });
                continue;
            }
            let mut shown: Vec<&str> = srcs.iter().map(|s| s.as_str()).take(3).collect();
            if srcs.len() > 3 {
                shown.push("...");
            }
            out.push(RawFinding {
                file: f.file,
                tok: call.name_tok,
                id: LintId::L13,
                message: format!(
                    "cannot prove this PRNG seed derives from the RunSpec seed \
                     (sources: {})",
                    shown.join(", ")
                ),
                suggestion: "derive the value from a `seed`/`salt`/`*_key` binding or a \
                             seed-derived helper; if the derivation is real but invisible \
                             to the analysis, add `// cackle-lint: allow(L13)` with why"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Flows;

    fn findings(files: &[(&str, &str)]) -> Vec<RawFinding> {
        let ws = Workspace::build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        );
        let fl = Flows::build(&ws);
        let mut out = Vec::new();
        check(&ws, &fl, &mut out);
        out
    }

    fn one(src: &str) -> Vec<RawFinding> {
        findings(&[("crates/core/src/x.rs", src)])
    }

    #[test]
    fn literal_seed_flagged() {
        let f = one("fn f() -> Pcg32 { Pcg32::seed_from_u64(42) }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("literal"));
    }

    #[test]
    fn seed_and_salt_derivations_clean() {
        assert!(
            one("fn f(spec: &RunSpec) -> Pcg32 { Pcg32::seed_from_u64(spec.seed ^ 0x9e37) }")
                .is_empty()
        );
        assert!(one("fn f(seed: u64, salt: u64) -> Pcg32 {\n\
                 let mut s = seed ^ salt;\n\
                 let expanded = splitmix64(&mut s);\n\
                 Pcg32::seed_from_u64(expanded)\n\
             }")
        .is_empty());
        // SALT constants are salt-named sources.
        assert!(
            one("fn f(cfg: &Cfg) -> Pcg32 { Pcg32::seed_from_u64(cfg.seed ^ SALT_READ) }")
                .is_empty()
        );
    }

    #[test]
    fn taint_crosses_function_summaries() {
        let f = findings(&[
            (
                "crates/faults/src/lib.rs",
                "pub fn point(seed: u64, salt: u64) -> u64 { seed ^ salt }",
            ),
            (
                "crates/core/src/model.rs",
                "fn g(a: u64, b: u64) -> Pcg32 { Pcg32::seed_from_u64(point(a, b)) }",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn reseeding_from_draws_flagged() {
        let f = one("fn f(rng: &mut Pcg32) -> Pcg32 {\n\
                 let next = rng.next_u64();\n\
                 Pcg32::seed_from_u64(next)\n\
             }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("derived stream state"));
    }

    #[test]
    fn unproven_provenance_flagged_with_sources() {
        let f = one("fn f(slot: u64) -> Pcg32 { Pcg32::seed_from_u64(slot) }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("slot"), "{f:?}");
    }
}
