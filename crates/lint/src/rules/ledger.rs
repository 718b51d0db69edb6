//! L11 · ledger hygiene (subsumes the retired, path-scoped L4).
//!
//! Dollars are minted in `Pricing` and accumulated in `CostLedger`;
//! everywhere else money only moves, it is never computed. Two checks:
//!
//! (a) arithmetic on a cost-named binding (`dollar`/`cost`/`price`/
//!     `usd` in the identifier). `*`, `/`, `%`, compound assignment,
//!     and `==` are always wrong outside the billing layer; `+` and `-`
//!     are allowed when BOTH operands are cost-named — summing or
//!     diffing already-minted dollars (`max_cost - min_cost`) is
//!     legitimate bookkeeping, scaling them (`cost * n`) is minting.
//!
//! (b) a `*` or `/` at the top level of a `.charge(...)` /
//!     `.try_charge(...)` / `.charge_requests(...)` argument list:
//!     computing the amount at the call site is a rate formula that
//!     belongs in a Pricing method.

use super::RawFinding;
use crate::lexer::TokKind;
use crate::parser::ParsedFile;
use crate::{LintId, SourceFile};

const ALWAYS_BAD: [&str; 8] = ["*", "/", "%", "+=", "-=", "*=", "/=", "=="];
const SUM_OPS: [&str; 2] = ["+", "-"];
const CHARGE_METHODS: [&str; 3] = ["charge", "try_charge", "charge_requests"];

fn is_cost_named(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    ["dollar", "cost", "price", "usd"]
        .iter()
        .any(|k| lower.contains(k))
}

pub fn check(files: &[SourceFile], out: &mut Vec<RawFinding>) {
    for (fi, file) in files.iter().enumerate() {
        let p = &file.parsed;
        let toks = &p.toks;
        for i in 0..toks.len() {
            // (a) arithmetic adjacent to a cost-named identifier.
            if toks[i].kind == TokKind::Ident && is_cost_named(&toks[i].text) {
                let next = toks.get(i + 1).map(|t| t.punct()).unwrap_or("");
                let prev = if i > 0 { toks[i - 1].punct() } else { "" };
                let mut flag_op = None;
                if ALWAYS_BAD.contains(&next) || ALWAYS_BAD.contains(&prev) {
                    flag_op = Some(if ALWAYS_BAD.contains(&next) {
                        next
                    } else {
                        prev
                    });
                } else if SUM_OPS.contains(&next) {
                    // `cost + x`: allowed only when x is cost-named too.
                    if !right_operand(p, i + 1).is_some_and(|n| is_cost_named(&n)) {
                        flag_op = Some(next);
                    }
                } else if SUM_OPS.contains(&prev) {
                    // `x + cost`: allowed only when x is cost-named too.
                    if !left_operand(p, i - 1).is_some_and(|n| is_cost_named(&n)) {
                        flag_op = Some(prev);
                    }
                }
                if let Some(op) = flag_op {
                    out.push(RawFinding {
                        file: fi,
                        tok: i,
                        id: LintId::L11,
                        message: format!(
                            "raw `{op}` arithmetic on cost-named `{}` outside the billing layer",
                            toks[i].text
                        ),
                        suggestion: "route dollars through CostLedger; mint rates in Pricing"
                            .into(),
                    });
                }
            }

            // (b) price computed inside a charge call's arguments.
            if CHARGE_METHODS.contains(&toks[i].ident())
                && i > 0
                && toks[i - 1].punct() == "."
                && toks.get(i + 1).map(|t| t.punct()) == Some("(")
            {
                let Some(args) = p.call_args(i + 1) else {
                    continue;
                };
                for (lo, hi) in args {
                    let mut j = lo;
                    while j <= hi {
                        let pt = toks[j].punct();
                        if matches!(pt, "(" | "[" | "{") {
                            // Nested groups (inner calls) are that
                            // callee's business.
                            j = p.close_of(j).filter(|&c| c <= hi).unwrap_or(hi);
                        } else if pt == "*" || pt == "/" {
                            // Deref `*x` has no left operand; only
                            // binary uses are rate formulas.
                            let has_left = j > lo
                                && (toks[j - 1].kind != TokKind::Punct
                                    || matches!(toks[j - 1].punct(), ")" | "]"));
                            if has_left {
                                out.push(RawFinding {
                                    file: fi,
                                    tok: j,
                                    id: LintId::L11,
                                    message: format!(
                                        "`{pt}` inside `.{}(...)` arguments computes a price \
                                         at the call site",
                                        toks[i].text
                                    ),
                                    suggestion: "move the formula into a Pricing method and \
                                                 charge its result"
                                        .into(),
                                });
                                break;
                            }
                        }
                        j += 1;
                    }
                }
            }
        }
    }
}

/// Terminal identifier of the operand to the RIGHT of the operator at
/// `op`: `+ self.vm_cost` → `vm_cost`; `+ f(x)` → None.
fn right_operand(p: &ParsedFile, op: usize) -> Option<String> {
    let toks = &p.toks;
    let mut j = op + 1;
    // Leading sign/borrow/deref are transparent.
    while toks.get(j).map(|t| t.punct()) == Some("&") || toks.get(j).map(|t| t.punct()) == Some("*")
    {
        j += 1;
    }
    let mut name: Option<String> = None;
    loop {
        let t = toks.get(j)?;
        if t.kind != TokKind::Ident {
            return name;
        }
        // A call right operand (`f(...)`) is opaque.
        if toks.get(j + 1).map(|t| t.punct()) == Some("(") {
            return None;
        }
        name = Some(t.text.clone());
        if toks.get(j + 1).map(|t| t.punct()) == Some(".") {
            j += 2;
            continue;
        }
        return name;
    }
}

/// Terminal identifier of the operand to the LEFT of the operator at
/// `op`: `self.vm_cost +` → `vm_cost`; `f(x) +` → None.
fn left_operand(p: &ParsedFile, op: usize) -> Option<String> {
    if op == 0 {
        return None;
    }
    let t = &p.toks[op - 1];
    if t.kind == TokKind::Ident {
        return Some(t.text.clone());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<RawFinding> {
        let files = [SourceFile::new("crates/core/src/x.rs".into(), src.into())];
        let mut out = Vec::new();
        check(&files, &mut out);
        out
    }

    #[test]
    fn scaling_and_equality_flagged() {
        assert_eq!(
            findings("fn f(n: u64, put_cost: f64) -> f64 { n as f64 * put_cost }").len(),
            1
        );
        assert_eq!(findings("fn f(cost: f64) -> bool { cost == 1.0 }").len(), 1);
        assert_eq!(findings("fn f(mut d: f64, c: f64) { d += c; }").len(), 0);
        assert_eq!(
            findings("fn f(mut dollars: f64, c: f64) { dollars += c; }").len(),
            1
        );
    }

    #[test]
    fn cost_plus_cost_allowed() {
        assert!(findings("fn f(a_cost: f64, b_cost: f64) -> f64 { a_cost + b_cost }").is_empty());
        assert!(findings("fn f(&self) -> f64 { self.max_cost - self.min_cost }").is_empty());
        assert!(findings(
            "fn f(&self) -> f64 { self.vm_cost + self.store_cost + self.shuffle_cost }"
        )
        .is_empty());
    }

    #[test]
    fn cost_plus_noncost_flagged() {
        let f = findings("fn f(total_cost: f64, x: f64) -> f64 { total_cost + x }");
        assert_eq!(f.len(), 1, "{f:?}");
        let f2 = findings("fn f(total_cost: f64) -> f64 { total_cost + rate() }");
        assert_eq!(f2.len(), 1, "{f2:?}");
    }

    #[test]
    fn charge_args_with_rate_formula_flagged() {
        let f =
            findings("fn f(&self, led: &Ledger) { led.charge(cat, self.rate_per_hour() * h); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("computes a price"));
    }

    #[test]
    fn charge_with_precomputed_amount_clean() {
        assert!(
            findings("fn f(led: &Ledger, amount: f64) { led.charge(cat, amount); }").is_empty()
        );
        // `-` in charge args is movement, not minting.
        assert!(findings(
            "fn f(led: &Ledger, total: u64, n: u64) { led.charge_requests(cat, total - n, unit); }"
        )
        .is_empty());
        // A nested call may multiply internally — that callee is linted
        // at its own definition site.
        assert!(findings("fn f(led: &Ledger) { led.charge(cat, p.vm_cost(cat, d)); }").is_empty());
    }
}
