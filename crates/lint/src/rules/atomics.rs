//! L8 · `Ordering::Relaxed` on atomics shared with the worker pool.
//!
//! An atomic binding counts as *shared* when it is method-called both
//! inside a `spawn(...)` closure and outside every such closure in the
//! same file. On a shared atomic, `Relaxed` establishes no
//! happens-before edge with the workers, so any Relaxed operation is
//! flagged. Declarations (`AtomicUsize::new(...)`) are not touches; the
//! sequence `Ordering :: Relaxed` is matched token-exactly, so
//! `std::cmp::Ordering` never trips the rule.

use super::RawFinding;
use crate::index::Workspace;
use crate::lexer::TokKind;
use crate::LintId;
use std::collections::BTreeSet;

pub fn check(ws: &Workspace, out: &mut Vec<RawFinding>) {
    for (fi, file) in ws.files.iter().enumerate() {
        let atomics = &ws.index.atomic_names[fi];
        if atomics.is_empty() {
            continue;
        }
        let p = &file.parsed;
        let toks = &p.toks;
        let spawn_ranges = p.spawn_closure_ranges();
        let inside = |i: usize| spawn_ranges.iter().any(|&(lo, hi)| i >= lo && i <= hi);

        // Touch sites per atomic: (tok of name, tok of `(`, inside?).
        let mut touches: Vec<(usize, usize, bool)> = Vec::new();
        let mut shared: BTreeSet<&str> = BTreeSet::new();
        let mut seen_in: BTreeSet<&str> = BTreeSet::new();
        let mut seen_out: BTreeSet<&str> = BTreeSet::new();
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident || !atomics.contains(&toks[i].text) {
                continue;
            }
            // A touch is `name . method (`.
            if toks.get(i + 1).map(|t| t.punct()) != Some(".") {
                continue;
            }
            if !toks.get(i + 2).is_some_and(|t| !t.ident().is_empty()) {
                continue;
            }
            if toks.get(i + 3).map(|t| t.punct()) != Some("(") {
                continue;
            }
            let is_inside = inside(i);
            if is_inside {
                seen_in.insert(&toks[i].text);
            } else {
                seen_out.insert(&toks[i].text);
            }
            touches.push((i, i + 3, is_inside));
        }
        for name in seen_in.intersection(&seen_out) {
            shared.insert(name);
        }
        if shared.is_empty() {
            continue;
        }

        for &(name_tok, open, _) in &touches {
            if !shared.contains(toks[name_tok].text.as_str()) {
                continue;
            }
            let Some(close) = p.close_of(open) else {
                continue;
            };
            // `Ordering :: Relaxed` anywhere in the argument list.
            for j in open + 1..close.saturating_sub(1) {
                if toks[j].ident() == "Ordering"
                    && toks[j + 1].punct() == "::"
                    && toks.get(j + 2).map(|t| t.ident()) == Some("Relaxed")
                {
                    out.push(RawFinding {
                        file: fi,
                        tok: name_tok,
                        id: LintId::L8,
                        message: format!(
                            "`Ordering::Relaxed` on atomic `{}`, which is touched both inside \
                             and outside worker closures",
                            toks[name_tok].text
                        ),
                        suggestion: "use Acquire/Release (or SeqCst) for cross-thread \
                                     synchronization, or justify atomicity-only use with an \
                                     allow comment"
                            .into(),
                    });
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<RawFinding> {
        let ws = Workspace::build(vec![(
            "crates/engine/src/x.rs".to_string(),
            src.to_string(),
        )]);
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    #[test]
    fn relaxed_on_shared_atomic_flagged() {
        let f = findings(
            "fn f() { let done = AtomicBool::new(false);\n\
             s.spawn(|| { done.store(true, Ordering::Relaxed); });\n\
             while !done.load(Ordering::Relaxed) {} }",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.id == LintId::L8));
    }

    #[test]
    fn relaxed_inside_only_not_flagged() {
        // Worker-local counter: never touched outside the closures.
        let f = findings(
            "fn f() { let n = AtomicUsize::new(0);\n\
             s.spawn(|| { n.fetch_add(1, Ordering::Relaxed); }); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn acquire_release_on_shared_atomic_clean() {
        let f = findings(
            "fn f() { let done = AtomicBool::new(false);\n\
             s.spawn(|| { done.store(true, Ordering::Release); });\n\
             while !done.load(Ordering::Acquire) {} }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cmp_ordering_never_matches() {
        let f = findings(
            "fn f() { let n = AtomicUsize::new(0);\n\
             s.spawn(|| { n.fetch_add(1, Ordering::SeqCst); });\n\
             n.store(match x.cmp(&y) { std::cmp::Ordering::Less => 0, _ => 1 }, Ordering::SeqCst); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
