//! Brace-matched parse layer on top of the lexer.
//!
//! L11 needs to know *where* it is: what a call's argument list spans,
//! where a statement starts (so an own-line allow covers it), which
//! tokens sit in test items. This module recovers exactly that much
//! structure — delimiter matching, statement starts, call-site argument
//! spans, `#[test]` / `#[cfg(test)]` extents — and nothing more. It is
//! deliberately not a Rust parser: expressions stay flat token runs.
//! Failing to recognize a construct can only cost a finding, never
//! fabricate one.

use crate::lexer::{lex, Token};

/// A lexed + structurally annotated source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// The token stream (strings preserved as `Str` tokens).
    pub toks: Vec<Token>,
    /// Per-token: covered by a `#[test]` / `#[cfg(test)]` item.
    pub test_excluded: Vec<bool>,
    /// For each `{`/`(`/`[` token index, the index of its match.
    /// Unbalanced delimiters are absent.
    close_of: Vec<Option<usize>>,
}

const OPEN: [&str; 3] = ["{", "(", "["];
const CLOSE: [&str; 3] = ["}", ")", "]"];

impl ParsedFile {
    /// Lex and annotate `source`.
    pub fn parse(source: &str) -> ParsedFile {
        let toks = lex(source);
        let test_excluded = test_excluded(&toks);
        let close_of = match_delims(&toks);
        ParsedFile {
            toks,
            test_excluded,
            close_of,
        }
    }

    /// The matching close delimiter for the open delimiter at `i`.
    pub fn close_of(&self, i: usize) -> Option<usize> {
        self.close_of.get(i).copied().flatten()
    }

    /// First token of the statement containing `i` (the token after the
    /// previous `;`, `{`, or `}` at the same delimiter depth). Used to
    /// attach own-line suppression comments to every line of the
    /// statement below them, however the formatter wraps it.
    pub fn statement_start(&self, i: usize) -> usize {
        let mut j = i.min(self.toks.len().saturating_sub(1));
        while j > 0 {
            let p = self.toks[j - 1].punct();
            if p == ";" || p == "{" || p == "}" {
                return j;
            }
            if p == ")" || p == "]" {
                // Skip a nested group wholesale.
                match (0..j - 1).rev().find(|&k| self.close_of(k) == Some(j - 1)) {
                    Some(open) => j = open,
                    None => return j,
                }
                continue;
            }
            j -= 1;
        }
        0
    }

    /// If token `i` begins a call's argument list (`i` is `(`), return
    /// the spans of its top-level comma-separated arguments (each span
    /// inclusive, empty args skipped).
    pub fn call_args(&self, open: usize) -> Option<Vec<(usize, usize)>> {
        if self.toks.get(open)?.punct() != "(" {
            return None;
        }
        let close = self.close_of(open)?;
        let mut args = Vec::new();
        let mut start = open + 1;
        let mut j = open + 1;
        while j < close {
            let p = self.toks[j].punct();
            if OPEN.contains(&p) {
                j = self.close_of(j).filter(|&c| c < close).unwrap_or(close);
            } else if p == "," {
                if j > start {
                    args.push((start, j - 1));
                }
                start = j + 1;
            }
            j += 1;
        }
        if close > start {
            args.push((start, close - 1));
        }
        Some(args)
    }
}

/// Match `{}`/`()`/`[]` pairs. A single mixed stack keeps mismatched
/// delimiters (never produced by rustc-accepted code) from derailing the
/// rest of the file: a close that doesn't match the top of stack pops
/// until it does or is dropped.
fn match_delims(toks: &[Token]) -> Vec<Option<usize>> {
    let mut close_of = vec![None; toks.len()];
    let mut stack: Vec<usize> = Vec::new(); // indices of open delimiters
    for (i, tok) in toks.iter().enumerate() {
        let p = tok.punct();
        if OPEN.contains(&p) {
            stack.push(i);
        } else if let Some(k) = CLOSE.iter().position(|&c| c == p) {
            let want = OPEN[k];
            // Mismatch: drop stray opens until the matching one.
            while let Some(top) = stack.pop() {
                if toks[top].punct() == want {
                    close_of[top] = Some(i);
                    break;
                }
            }
        }
    }
    close_of
}

/// Marks token indices covered by `#[test]` / `#[cfg(test)]` items
/// (the attribute, the item header, and its `{ ... }` body or trailing
/// `;`). `#[cfg(not(test))]` is conservatively treated the same — that
/// only risks a missed finding, never a false positive.
pub fn test_excluded(toks: &[Token]) -> Vec<bool> {
    let mut excluded = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].punct() != "#" {
            i += 1;
            continue;
        }
        // Parse the attribute `#[ ... ]` and look for a `test` ident
        // (kind-checked: `#[doc = "test"]` must not count).
        let attr_start = i;
        let mut j = i + 1;
        if j >= toks.len() || toks[j].punct() != "[" {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut is_test_attr = false;
        while j < toks.len() {
            match toks[j].punct() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if toks[j].ident() == "test" {
                        is_test_attr = true;
                    }
                }
            }
            j += 1;
        }
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then cover the item to its end:
        // the matching close of its first `{`, or a `;` that comes first.
        let mut k = j + 1;
        while k + 1 < toks.len() && toks[k].punct() == "#" && toks[k + 1].punct() == "[" {
            let mut d = 0usize;
            while k < toks.len() {
                match toks[k].punct() {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut end = k;
        let mut brace = 0usize;
        while end < toks.len() {
            match toks[end].punct() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                ";" if brace == 0 => break,
                _ => {}
            }
            end += 1;
        }
        for slot in excluded
            .iter_mut()
            .take((end + 1).min(toks.len()))
            .skip(attr_start)
        {
            *slot = true;
        }
        i = end + 1;
    }
    excluded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::TokKind;

    #[test]
    fn statement_start_walks_back_over_wrapped_chains() {
        // `counter_add` sits mid-statement; the statement began at `s`
        // right after the previous `;`, past the nested `(x)` group.
        let p = ParsedFile::parse("fn f() { let _y = g(x); s.telemetry.counter_add(n, 1); }");
        let call = p.toks.iter().position(|t| t.text == "counter_add").unwrap();
        let start = p.statement_start(call);
        assert_eq!(p.toks[start].text, "s");
        // A token at the start of its own statement is its own start.
        assert_eq!(p.statement_start(start), start);
    }

    #[test]
    fn call_args_split_at_top_level_commas_only() {
        let p = ParsedFile::parse("fn f() { g(a, h(b, c), \"x.y\") }");
        let open = p
            .toks
            .iter()
            .position(|t| t.text == "g")
            .map(|i| i + 1)
            .unwrap();
        let args = p.call_args(open).unwrap();
        assert_eq!(args.len(), 3);
        // Second arg spans the whole nested call.
        let (lo, hi) = args[1];
        assert_eq!(p.toks[lo].text, "h");
        assert_eq!(p.toks[hi].text, ")");
        // Third arg is the string literal.
        let (slo, shi) = args[2];
        assert_eq!(slo, shi);
        assert_eq!(p.toks[slo].kind, TokKind::Str);
    }

    #[test]
    fn doc_string_test_does_not_trigger_test_exclusion() {
        let p = ParsedFile::parse("#[doc = \"test\"]\nfn f() { x.unwrap(); }");
        let unwrap = p.toks.iter().position(|t| t.text == "unwrap").unwrap();
        assert!(!p.test_excluded[unwrap]);
        let p2 = ParsedFile::parse("#[test]\nfn f() { x.unwrap(); }");
        let unwrap2 = p2.toks.iter().position(|t| t.text == "unwrap").unwrap();
        assert!(p2.test_excluded[unwrap2]);
    }
}
