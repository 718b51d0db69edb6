//! Brace-matched, item/block-aware parse layer on top of the lexer.
//!
//! The rules need to know *where* they are: which function body a token
//! belongs to, what a call's argument list spans, where a statement
//! starts and ends. This module recovers exactly that much structure —
//! items (`fn` / `impl` / `mod`), delimiter matching, statement and
//! block extents, call-site argument spans — and nothing more. It is
//! deliberately not a Rust parser: expressions stay flat token runs,
//! types are skipped by delimiter matching, and anything unrecognized
//! is simply not an item. Failing to recognize a construct can only
//! cost a finding, never fabricate one.

use crate::lexer::{lex, TokKind, Token};

/// An `fn` item: name, qualification, and the token extent of its body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (`read`).
    pub name: String,
    /// Name qualified by enclosing `impl` type / `mod` path
    /// (`MemoryShuffle::read`, `inner::helper`).
    pub qualified: String,
    /// Index of the `fn` keyword token.
    pub kw: usize,
    /// Token range of the `{ ... }` body, inclusive of both braces.
    /// `None` for bodyless signatures (trait methods, extern).
    pub body: Option<(usize, usize)>,
}

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
    /// For each token, the index of the innermost enclosing `{` (if any).
    enclosing_brace: Vec<Option<usize>>,
    /// All `fn` items, in source order (nested fns included).
    pub fns: Vec<FnItem>,
}

const OPEN: [&str; 3] = ["{", "(", "["];
const CLOSE: [&str; 3] = ["}", ")", "]"];

impl ParsedFile {
    /// Lex and annotate `source`.
    pub fn parse(source: &str) -> ParsedFile {
        let toks = lex(source);
        let test_excluded = test_excluded(&toks);
        let (close_of, enclosing_brace) = match_delims(&toks);
        let fns = collect_fns(&toks, &close_of);
        ParsedFile {
            toks,
            test_excluded,
            close_of,
            enclosing_brace,
            fns,
        }
    }

    /// The matching close delimiter for the open delimiter at `i`.
    pub fn close_of(&self, i: usize) -> Option<usize> {
        self.close_of.get(i).copied().flatten()
    }

    /// Index of the close brace of the innermost block containing `i`
    /// (the end of `i`'s lexical scope), or the last token if at top
    /// level / unbalanced.
    pub fn scope_end(&self, i: usize) -> usize {
        self.enclosing_brace
            .get(i)
            .copied()
            .flatten()
            .and_then(|open| self.close_of(open))
            .unwrap_or(self.toks.len().saturating_sub(1))
    }

    /// Index of the `;` ending the statement containing `i` (scanning
    /// forward at the same delimiter depth), or the enclosing block's
    /// close brace if none.
    pub fn statement_end(&self, i: usize) -> usize {
        let limit = self.scope_end(i);
        let mut j = i;
        while j < limit {
            let t = self.toks[j].punct();
            if t == ";" {
                return j;
            }
            if OPEN.contains(&t) {
                match self.close_of(j) {
                    Some(c) if c <= limit => j = c,
                    _ => return limit,
                }
            }
            j += 1;
        }
        limit
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

    /// Call sites within `range`: `(callee name, index of the name
    /// token, index of the opening paren)`. Both free calls `name(...)`
    /// and method calls `.name(...)` are reported, turbofish included
    /// (`name::<T>(...)`); macro invocations (`name!(...)`, the `(`
    /// follows `!`) and definitions (`fn name(...)`) are not.
    pub fn calls_in(&self, range: (usize, usize)) -> Vec<(String, usize, usize)> {
        let mut out = Vec::new();
        let hi = range.1.min(self.toks.len().saturating_sub(1));
        for i in range.0..=hi {
            if self.toks[i].kind != TokKind::Ident {
                continue;
            }
            let next = self.toks.get(i + 1).map(|t| t.punct()).unwrap_or("");
            let open = if next == "(" {
                i + 1
            } else if next == "::" && self.toks.get(i + 2).map(|t| t.punct()) == Some("<") {
                // Turbofish: the paren follows the `<...>` group, which
                // is depth-counted (angles are not delimiter-matched —
                // they are ambiguous with comparisons elsewhere, but
                // after `::` they are always generics).
                let after = skip_angles(&self.toks, i + 2);
                if after > i + 2 && self.toks.get(after).map(|t| t.punct()) == Some("(") {
                    after
                } else {
                    continue;
                }
            } else {
                continue;
            };
            if i > 0 && self.toks[i - 1].ident() == "fn" {
                continue;
            }
            out.push((self.toks[i].text.clone(), i, open));
        }
        out
    }
}

/// Match `{}`/`()`/`[]` pairs and record each token's innermost
/// enclosing brace. A single mixed stack keeps mismatched delimiters
/// (never produced by rustc-accepted code) from derailing the rest of
/// the file: a close that doesn't match the top of stack pops until it
/// does or is dropped.
fn match_delims(toks: &[Token]) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
    let mut close_of = vec![None; toks.len()];
    let mut enclosing = vec![None; toks.len()];
    let mut stack: Vec<usize> = Vec::new(); // indices of open delimiters
    let mut brace_stack: Vec<usize> = Vec::new();
    for i in 0..toks.len() {
        enclosing[i] = brace_stack.last().copied();
        let p = toks[i].punct();
        if OPEN.contains(&p) {
            stack.push(i);
            if p == "{" {
                brace_stack.push(i);
            }
        } else if let Some(k) = CLOSE.iter().position(|&c| c == p) {
            let want = OPEN[k];
            while let Some(&top) = stack.last() {
                if toks[top].punct() == want {
                    stack.pop();
                    close_of[top] = Some(i);
                    if want == "{" {
                        brace_stack.pop();
                    }
                    break;
                }
                // Mismatch: drop the stray open and keep looking.
                let stray = stack.pop().unwrap_or(top);
                if toks[stray].punct() == "{" {
                    brace_stack.pop();
                }
            }
        }
    }
    (close_of, enclosing)
}

/// Collect `fn` items with impl/mod qualification. A linear scan with a
/// qualifier stack: entering `impl Type {` or `mod name {` pushes a
/// qualifier until its close brace.
fn collect_fns(toks: &[Token], close_of: &[Option<usize>]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    // (close brace index, qualifier segment)
    let mut quals: Vec<(usize, String)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        while quals.last().is_some_and(|&(end, _)| i > end) {
            quals.pop();
        }
        let t = &toks[i];
        match t.ident() {
            "impl" | "mod" | "trait" => {
                let kw = t.ident().to_string();
                // Find the block start; the qualifier is the last plain
                // identifier before `{` / `for` (covers `impl<T> Ty`,
                // `impl Trait for Ty`, `mod name`).
                let mut name = String::new();
                let mut j = i + 1;
                let mut body_open = None;
                while let Some(nt) = toks.get(j) {
                    let p = nt.punct();
                    if p == "{" {
                        body_open = Some(j);
                        break;
                    }
                    if p == ";" {
                        break; // `mod name;` — no body here
                    }
                    if p == "<" {
                        // Angle brackets are not delimiter-matched (they
                        // are ambiguous with less-than in expression
                        // position); in an item header they are always
                        // generics, so skip by local depth counting.
                        j = skip_angles(toks, j);
                    } else if p == "(" || p == "[" {
                        j = close_of.get(j).copied().flatten().map_or(j + 1, |c| c + 1);
                    } else if nt.kind == TokKind::Ident
                        && !matches!(nt.text.as_str(), "for" | "dyn" | "where" | "unsafe" | "pub")
                    {
                        if kw == "impl" {
                            // `impl Trait for Type`: the type after `for`
                            // wins; assignment below keeps the last name.
                            name = nt.text.clone();
                        } else if name.is_empty() {
                            name = nt.text.clone();
                        }
                        j += 1;
                    } else {
                        j += 1;
                    }
                }
                if let Some(open) = body_open {
                    if let Some(close) = close_of.get(open).copied().flatten() {
                        if !name.is_empty() {
                            quals.push((close, name));
                        }
                        i = open + 1;
                        continue;
                    }
                }
                i = j + 1;
            }
            "fn" => {
                let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    i += 1;
                    continue;
                };
                let name = name_tok.text.clone();
                // Scan to the body `{` or a `;` (trait signature),
                // skipping generic/paren/where groups.
                let mut j = i + 2;
                let mut body = None;
                while let Some(nt) = toks.get(j) {
                    let p = nt.punct();
                    if p == "{" {
                        body = close_of.get(j).copied().flatten().map(|c| (j, c));
                        break;
                    }
                    if p == ";" {
                        break;
                    }
                    if p == "<" {
                        j = skip_angles(toks, j);
                        continue;
                    }
                    if p == "(" || p == "[" {
                        j = close_of.get(j).copied().flatten().unwrap_or(j);
                    }
                    j += 1;
                }
                let qualified = if quals.is_empty() {
                    name.clone()
                } else {
                    format!(
                        "{}::{}",
                        quals
                            .iter()
                            .map(|(_, q)| q.as_str())
                            .collect::<Vec<_>>()
                            .join("::"),
                        name
                    )
                };
                fns.push(FnItem {
                    name,
                    qualified,
                    kw: i,
                    body,
                });
                // Continue *inside* the body: nested fns and closures
                // still get collected; qualification intentionally does
                // not include the enclosing fn.
                i += 2;
            }
            _ => i += 1,
        }
    }
    fns
}

/// Skip a generic-argument list starting at the `<` at `open`,
/// returning the index just past the matching `>`. Depth-counted over
/// `<`/`>` (the lexer never merges `>>`, and `->`/`=>` are single
/// tokens, so plain counting is exact); bails at `{` or `;` so a
/// malformed header cannot swallow an item body.
fn skip_angles(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].punct() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            "{" | ";" => return j,
            _ => {}
        }
        j += 1;
    }
    j
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

    #[test]
    fn fn_items_with_impl_and_mod_qualification() {
        let p = ParsedFile::parse(
            "fn free() {}\n\
             impl Catalog { fn read(&self) -> u32 { 1 } }\n\
             mod inner { fn helper() {} }\n\
             impl Tr for MemoryShuffle { fn write(&self) {} }",
        );
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qualified.as_str()).collect();
        assert_eq!(
            quals,
            [
                "free",
                "Catalog::read",
                "inner::helper",
                "MemoryShuffle::write"
            ]
        );
        assert!(p.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn bodyless_trait_fns_and_nested_fns() {
        let p = ParsedFile::parse(
            "trait T { fn sig(&self); }\n\
             fn outer() { fn nested() {} }",
        );
        let names: Vec<(&str, bool)> = p
            .fns
            .iter()
            .map(|f| (f.qualified.as_str(), f.body.is_some()))
            .collect();
        assert_eq!(
            names,
            [("T::sig", false), ("outer", true), ("nested", true)]
        );
    }

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
    fn statement_and_scope_extents() {
        let p = ParsedFile::parse("fn f() { let g = a.lock(); touch(); } fn h() {}");
        // Find the `lock` token.
        let lock = p.toks.iter().position(|t| t.text == "lock").unwrap();
        let stmt_end = p.statement_end(lock);
        assert_eq!(p.toks[stmt_end].text, ";");
        // Scope end is f's closing brace (before `fn h`).
        let scope = p.scope_end(lock);
        assert_eq!(p.toks[scope].text, "}");
        let touch = p.toks.iter().position(|t| t.text == "touch").unwrap();
        assert!(scope > touch);
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
    fn calls_in_reports_calls_not_defs_or_macros() {
        let p = ParsedFile::parse("fn f() { g(); x.h(); panic!(\"no\"); }");
        let body = p.fns[0].body.unwrap();
        let names: Vec<String> = p.calls_in(body).into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, ["g", "h"]);
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
