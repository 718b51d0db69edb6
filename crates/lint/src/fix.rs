//! The machine-applicable fix engine: byte-span edits, conflict
//! detection, application, and unified-diff rendering for `--dry-run`.
//!
//! Rules attach [`Edit`]s to findings when the rewrite is mechanical
//! (L14 `Vec::with_capacity`, L15 cast widening). Spans are byte offsets
//! into the *original* source — the lexer records them per token — so
//! edits compose only if they do not overlap. The engine sorts, rejects overlapping spans as a
//! conflict (never silently picks a winner), and applies back-to-front
//! so earlier offsets stay valid.
//!
//! Idempotence is structural, not tracked: an applied fix removes the
//! finding that produced it, so a second `cackle-lint fix` run sees no
//! fixable findings and produces an empty diff. ci.sh verifies exactly
//! that.

use std::fmt;

/// One byte-span rewrite: replace `source[start..end)` with `text`.
/// `start == end` is a pure insertion.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edit {
    /// Byte offset of the first replaced byte.
    pub start: usize,
    /// Byte offset one past the last replaced byte (`>= start`).
    pub end: usize,
    /// Replacement text.
    pub text: String,
}

impl Edit {
    /// Replace the span `[start, end)` with `text`.
    pub fn replace(start: usize, end: usize, text: impl Into<String>) -> Edit {
        Edit {
            start,
            end,
            text: text.into(),
        }
    }

    /// Insert `text` at byte offset `at`.
    pub fn insert(at: usize, text: impl Into<String>) -> Edit {
        Edit::replace(at, at, text)
    }
}

/// Why a set of edits could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixError {
    /// Two edits claim overlapping byte ranges. Applying either would
    /// invalidate the other's span, so neither is applied.
    Overlap { first: Edit, second: Edit },
    /// An edit's span exceeds the source length or splits a UTF-8
    /// character — it was built against different text.
    OutOfBounds(Edit),
}

impl fmt::Display for FixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixError::Overlap { first, second } => write!(
                f,
                "conflicting fixes: [{}, {}) overlaps [{}, {})",
                first.start, first.end, second.start, second.end
            ),
            FixError::OutOfBounds(e) => write!(
                f,
                "fix span [{}, {}) is outside the source (or splits a UTF-8 char)",
                e.start, e.end
            ),
        }
    }
}

/// Apply `edits` to `source`, returning the rewritten text.
///
/// Edits are sorted by `(start, end, text)` first, so the result is
/// independent of input order; overlapping spans are a [`FixError`],
/// not a silent last-writer-wins. Touching spans (`a.end == b.start`,
/// including equal-offset insertions) are fine and compose in sorted
/// order.
pub fn apply(source: &str, edits: &[Edit]) -> Result<String, FixError> {
    let mut sorted: Vec<&Edit> = edits.iter().collect();
    sorted.sort();
    sorted.dedup();
    for e in &sorted {
        let ok = e.start <= e.end
            && e.end <= source.len()
            && source.is_char_boundary(e.start)
            && source.is_char_boundary(e.end);
        if !ok {
            return Err(FixError::OutOfBounds((*e).clone()));
        }
    }
    for pair in sorted.windows(2) {
        if pair[0].end > pair[1].start {
            return Err(FixError::Overlap {
                first: pair[0].clone(),
                second: pair[1].clone(),
            });
        }
    }
    let mut out = source.to_string();
    for e in sorted.iter().rev() {
        out.replace_range(e.start..e.end, &e.text);
    }
    Ok(out)
}

/// Render a unified diff between `before` and `after` for one file:
/// `--- a/path` / `+++ b/path` headers plus a single hunk covering the
/// changed region with up to 3 lines of context. Returns the empty
/// string when the texts are identical — the dry-run idempotence check
/// compares exactly this output.
pub fn unified_diff(path: &str, before: &str, after: &str) -> String {
    if before == after {
        return String::new();
    }
    let a: Vec<&str> = before.lines().collect();
    let b: Vec<&str> = after.lines().collect();
    let mut prefix = 0;
    while prefix < a.len() && prefix < b.len() && a[prefix] == b[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < a.len().saturating_sub(prefix)
        && suffix < b.len().saturating_sub(prefix)
        && a[a.len() - 1 - suffix] == b[b.len() - 1 - suffix]
    {
        suffix += 1;
    }
    const CTX: usize = 3;
    let ctx_start = prefix.saturating_sub(CTX);
    let ctx_end_a = (a.len() - suffix + CTX).min(a.len());
    let ctx_end_b = (b.len() - suffix + CTX).min(b.len());
    let a_count = ctx_end_a - ctx_start;
    let b_count = ctx_end_b - ctx_start;

    let mut out = String::new();
    out.push_str(&format!("--- a/{path}\n+++ b/{path}\n"));
    out.push_str(&format!(
        "@@ -{},{} +{},{} @@\n",
        ctx_start + 1,
        a_count,
        ctx_start + 1,
        b_count
    ));
    for line in &a[ctx_start..prefix] {
        out.push_str(&format!(" {line}\n"));
    }
    for line in &a[prefix..a.len() - suffix] {
        out.push_str(&format!("-{line}\n"));
    }
    for line in &b[prefix..b.len() - suffix] {
        out.push_str(&format!("+{line}\n"));
    }
    for line in &a[a.len() - suffix..ctx_end_a] {
        out.push_str(&format!(" {line}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_is_order_independent_and_back_to_front() {
        let src = "let n = faults.store_attempts(op);";
        let e1 = Edit::replace(15, 29, "store_attempts_keyed".to_string());
        let e2 = Edit::insert(32, ", key".to_string());
        let forward = apply(src, &[e1.clone(), e2.clone()]).unwrap();
        let backward = apply(src, &[e2, e1]).unwrap();
        assert_eq!(forward, "let n = faults.store_attempts_keyed(op, key);");
        assert_eq!(forward, backward);
    }

    #[test]
    fn overlapping_spans_are_a_conflict_not_a_winner() {
        let src = "abcdef";
        let e1 = Edit::replace(1, 4, "X".to_string());
        let e2 = Edit::replace(3, 5, "Y".to_string());
        let err = apply(src, &[e1.clone(), e2.clone()]).unwrap_err();
        match err {
            FixError::Overlap { first, second } => {
                assert_eq!(first, e1);
                assert_eq!(second, e2);
            }
            other => panic!("expected overlap, got {other:?}"),
        }
        // Touching spans compose.
        let ok = apply(
            src,
            &[
                Edit::replace(1, 3, "X".to_string()),
                Edit::replace(3, 5, "Y".to_string()),
            ],
        )
        .unwrap();
        assert_eq!(ok, "aXYf");
    }

    #[test]
    fn duplicate_edits_collapse_and_bounds_are_checked() {
        let src = "ab";
        let e = Edit::insert(1, "X".to_string());
        assert_eq!(apply(src, &[e.clone(), e]).unwrap(), "aXb");
        let oob = Edit::replace(1, 9, String::new());
        assert!(matches!(
            apply(src, &[oob]).unwrap_err(),
            FixError::OutOfBounds(_)
        ));
        // A span that splits a UTF-8 char is out of bounds too.
        let multi = "é";
        let split = Edit::replace(1, 2, String::new());
        assert!(matches!(
            apply(multi, &[split]).unwrap_err(),
            FixError::OutOfBounds(_)
        ));
    }

    #[test]
    fn unified_diff_shape_and_empty_on_identical() {
        let before = "a\nb\nc\nd\ne\nf\ng\nh\n";
        let after = "a\nb\nc\nd\nE\nf\ng\nh\n";
        let d = unified_diff("x/y.rs", before, after);
        assert_eq!(
            d,
            "--- a/x/y.rs\n+++ b/x/y.rs\n@@ -2,7 +2,7 @@\n b\n c\n d\n-e\n+E\n f\n g\n h\n"
        );
        assert_eq!(unified_diff("x/y.rs", before, before), "");
    }

    #[test]
    fn unified_diff_handles_edits_at_file_edges() {
        let d = unified_diff("p.rs", "a\nb\n", "X\nb\n");
        assert_eq!(d, "--- a/p.rs\n+++ b/p.rs\n@@ -1,2 +1,2 @@\n-a\n+X\n b\n");
        let tail = unified_diff("p.rs", "a\nb\n", "a\nb\nc\n");
        assert_eq!(
            tail,
            "--- a/p.rs\n+++ b/p.rs\n@@ -1,2 +1,3 @@\n a\n b\n+c\n"
        );
    }
}
