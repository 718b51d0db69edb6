//! Intra-procedural value flow with interprocedural summaries — the
//! analysis layer under L13, L14 and L19.
//!
//! Per function, the statement/scope extents from [`crate::parser`] are
//! lifted into an *assignment graph*: parameters, `let` bindings and
//! re-assignments with their right-hand-side token ranges, loop body
//! extents (L14's "inside a loop"), and return-expression ranges. On
//! top of that:
//!
//! * a transitive **source closure** maps each local to the set of
//!   identifiers (and `call:` callee names) its value was derived from
//!   — the taint machinery behind L13's seed provenance and L19's
//!   draw-key clause;
//! * a per-function **summary** (`seed_derived`) is iterated to
//!   fixpoint over the call graph so taint crosses function boundaries
//!   by bare callee name (the same honest over-approximation the call
//!   graph itself makes, with the same stoplist).
//!
//! Everything here is conservative in the lint direction: failing to
//! model a construct loses information (a source set is smaller), which
//! can only cost a finding — except for L13, whose *unproven* verdict
//! is deliberately loud and carries its own allow escape hatch.

use crate::index::Workspace;
use crate::lexer::TokKind;
use crate::parser::{FnItem, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// Keywords that never name a value.
const KEYWORDS: [&str; 24] = [
    "let", "mut", "if", "else", "match", "return", "as", "in", "for", "while", "loop", "move",
    "ref", "fn", "impl", "mod", "use", "pub", "break", "continue", "where", "struct", "enum",
    "self",
];

/// One assignment: `target = <rhs tokens>`.
#[derive(Debug, Clone)]
pub struct Assign {
    /// Bound name (terminal identifier for field chains like
    /// `self.total = ...`).
    pub target: String,
    /// Inclusive token range of the right-hand side.
    pub rhs: (usize, usize),
}

/// The per-function value-flow facts.
#[derive(Debug, Default)]
pub struct FnFlow {
    /// Each signature parameter's name.
    pub params: Vec<String>,
    /// `let` bindings and re-assignments, source order.
    pub assigns: Vec<Assign>,
    /// Inclusive `{`..`}` token ranges of `for`/`while`/`loop` bodies.
    pub loops: Vec<(usize, usize)>,
    /// Inclusive token ranges of `return <expr>` expressions and the
    /// trailing tail expression (when present).
    pub returns: Vec<(usize, usize)>,
}

impl FnFlow {
    /// Build the flow facts for one fn item.
    pub fn build(p: &ParsedFile, item: &FnItem) -> FnFlow {
        let mut flow = FnFlow::default();
        flow.collect_params(p, item);
        let Some(body) = item.body else {
            return flow;
        };
        flow.collect_assigns(p, body);
        flow.collect_loops(p, body);
        flow.collect_returns(p, body);
        flow
    }

    /// Is token `i` inside one of this fn's loop bodies?
    pub fn in_loop(&self, i: usize) -> bool {
        self.loops.iter().any(|&(lo, hi)| i > lo && i < hi)
    }

    fn collect_params(&mut self, p: &ParsedFile, item: &FnItem) {
        let toks = &p.toks;
        // Signature: `fn name [<generics>] ( params )`.
        let mut j = item.kw + 2;
        if toks.get(j).map(|t| t.punct()) == Some("<") {
            j = skip_angles(toks, j);
        }
        if toks.get(j).map(|t| t.punct()) != Some("(") {
            return;
        }
        let Some(close) = p.close_of(j) else {
            return;
        };
        let mut k = j + 1;
        while k < close {
            let t = &toks[k];
            let pt = t.punct();
            if matches!(pt, "(" | "[" | "{") {
                // Pattern or type group: skip wholesale.
                k = p.close_of(k).filter(|&c| c < close).unwrap_or(close);
            } else if t.kind == TokKind::Ident
                && t.text != "self"
                && t.text != "mut"
                && toks.get(k + 1).map(|t| t.punct()) == Some(":")
            {
                self.params.push(t.text.clone());
                // Skip the type up to the next top-level comma.
                let mut d = k + 2;
                while d < close {
                    let dp = toks[d].punct();
                    if dp == "," {
                        break;
                    }
                    if matches!(dp, "(" | "[" | "{") {
                        d = p.close_of(d).filter(|&c| c < close).unwrap_or(close);
                    } else if dp == "<" {
                        d = skip_angles(toks, d);
                        continue;
                    }
                    d += 1;
                }
                k = d;
            }
            k += 1;
        }
    }

    fn collect_assigns(&mut self, p: &ParsedFile, body: (usize, usize)) {
        let toks = &p.toks;
        let mut i = body.0 + 1;
        while i < body.1 {
            // `let [mut] name [: Ty] = rhs ;` — patterns (`let (a, b)`,
            // `if let Some(x)`) are skipped: destructured halves simply
            // have no recorded source, which only loses information.
            if toks[i].ident() == "let" {
                let mut j = i + 1;
                if toks.get(j).map(|t| t.ident()) == Some("mut") {
                    j += 1;
                }
                if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                    let after = toks.get(j + 1).map(|t| t.punct()).unwrap_or("");
                    if after == "=" || after == ":" {
                        let end = p.statement_end(i);
                        // Find the `=` at statement depth (skipping any
                        // type annotation's groups; `==`/`=>`/`..=` are
                        // single tokens, so a bare `=` is unambiguous).
                        let mut e = j + 1;
                        let mut eq = None;
                        while e < end {
                            let ep = toks[e].punct();
                            if ep == "=" {
                                eq = Some(e);
                                break;
                            }
                            if matches!(ep, "(" | "[" | "{") {
                                e = p.close_of(e).filter(|&c| c < end).unwrap_or(end);
                            }
                            e += 1;
                        }
                        if let Some(eq) = eq {
                            if eq + 1 < end {
                                self.assigns.push(Assign {
                                    target: name.text.clone(),
                                    rhs: (eq + 1, end - 1),
                                });
                            }
                        }
                        i = j + 1;
                        continue;
                    }
                }
            }
            // Re-assignment / compound assignment at statement start:
            // `name = rhs;`, `x.field += rhs;` (target = terminal ident).
            if toks[i].kind == TokKind::Ident
                && !KEYWORDS.contains(&toks[i].text.as_str())
                && p.statement_start(i) == i
            {
                // Walk a field chain `a.b.c`.
                let mut t = i;
                while toks.get(t + 1).map(|x| x.punct()) == Some(".")
                    && toks.get(t + 2).map(|x| x.kind) == Some(TokKind::Ident)
                {
                    t += 2;
                }
                let op = toks.get(t + 1).map(|x| x.punct()).unwrap_or("");
                if matches!(op, "=" | "+=" | "-=" | "*=" | "/=") {
                    let end = p.statement_end(i);
                    if t + 2 < end {
                        self.assigns.push(Assign {
                            target: toks[t].text.clone(),
                            rhs: (t + 2, end - 1),
                        });
                    }
                    i = end;
                    continue;
                }
            }
            i += 1;
        }
    }

    fn collect_loops(&mut self, p: &ParsedFile, body: (usize, usize)) {
        let toks = &p.toks;
        for i in body.0..=body.1 {
            let kw = toks[i].ident();
            if !matches!(kw, "for" | "while" | "loop") {
                continue;
            }
            // Find the loop body `{`, skipping header groups (iterator
            // expressions, closure arguments). Headers cannot contain a
            // bare `{` (rustc forbids struct literals there).
            let mut j = i + 1;
            let open = loop {
                match toks.get(j).map(|t| t.punct()) {
                    Some("{") => break Some(j),
                    Some("(") | Some("[") => {
                        j = match p.close_of(j) {
                            Some(c) if c < body.1 => c + 1,
                            _ => break None,
                        };
                    }
                    Some(";") | Some("}") | None => break None,
                    _ => j += 1,
                }
            };
            if let Some(open) = open {
                if let Some(close) = p.close_of(open) {
                    self.loops.push((open, close));
                }
            }
        }
    }

    fn collect_returns(&mut self, p: &ParsedFile, body: (usize, usize)) {
        let toks = &p.toks;
        for i in body.0 + 1..body.1 {
            if toks[i].ident() == "return" {
                let end = p.statement_end(i);
                if end > i + 1 {
                    self.returns.push((i + 1, end - 1));
                }
            }
        }
        // Tail expression: the final statement when it has no `;`.
        if body.1 > body.0 + 1 {
            let last = body.1 - 1;
            if toks[last].punct() != ";" {
                let mut start = stmt_start_deep(p, last);
                // stmt_start_deep walks back over `}`-closed groups so a
                // tail `match x { ... }` is captured wholesale — but that
                // also drags in a *preceding* block statement (`for b in
                // bytes { ... } h`). Such a block is not part of the tail
                // expression: hop past every leading block construct whose
                // close lands strictly before `last`.
                while let Some(after) = skip_leading_block(p, start, last) {
                    start = after;
                }
                if start > body.0 && start <= last && toks[start].ident() != "return" {
                    self.returns.push((start, last));
                }
            }
        }
    }
}

/// First top-level `{` at or after `j` (skipping `(...)`/`[...]`
/// header groups), or `None` if a `;` or `last` intervenes.
fn block_open(p: &ParsedFile, mut j: usize, last: usize) -> Option<usize> {
    while j <= last {
        match p.toks[j].punct() {
            "{" => return Some(j),
            "(" | "[" => j = p.close_of(j)? + 1,
            ";" => return None,
            _ => j += 1,
        }
    }
    None
}

/// When the range `start..=last` begins with a block construct
/// (`for`/`while`/`loop`/`if`/`match`/`unsafe` or a bare `{ ... }`
/// block) used as a *statement* — i.e. its block (including any
/// `else` chain) closes strictly before `last` — return the index just
/// past it. Returns `None` when the construct is itself the tail.
fn skip_leading_block(p: &ParsedFile, start: usize, last: usize) -> Option<usize> {
    let toks = &p.toks;
    let kw = toks[start].ident();
    let open = if toks[start].punct() == "{" {
        start
    } else if matches!(kw, "for" | "while" | "loop" | "if" | "match" | "unsafe") {
        block_open(p, start + 1, last)?
    } else {
        return None;
    };
    let mut close = p.close_of(open)?;
    // `if ... {} else if ... {} else {}` chains are one construct.
    while kw == "if" && toks.get(close + 1).map(|t| t.ident()) == Some("else") {
        let open = block_open(p, close + 2, last)?;
        close = p.close_of(open)?;
    }
    if close < last {
        Some(close + 1)
    } else {
        None
    }
}

/// Like [`ParsedFile::statement_start`], but also skips `}`-closed
/// groups (so a tail `match x { ... }` is captured wholesale).
fn stmt_start_deep(p: &ParsedFile, i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let prev = p.toks[j - 1].punct();
        if prev == ";" {
            return j;
        }
        if prev == ")" || prev == "]" || prev == "}" {
            match (0..j - 1).rev().find(|&k| p.close_of(k) == Some(j - 1)) {
                Some(open) => j = open,
                None => return j,
            }
            continue;
        }
        if prev == "{" {
            return j;
        }
        j -= 1;
    }
    0
}

/// Skip a `<...>` generic group by depth counting (same contract as the
/// parser's private helper: bails at `{` / `;`).
fn skip_angles(toks: &[crate::lexer::Token], open: usize) -> usize {
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

/// The value-source identifiers of a token range: plain identifiers
/// (path prefixes, macro names, struct-literal field labels and
/// post-`as` type names excluded) plus `call:<name>` entries for call
/// sites, so callers can consult interprocedural summaries.
pub fn sources_in(p: &ParsedFile, range: (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let toks = &p.toks;
    let hi = range.1.min(toks.len().saturating_sub(1));
    for i in range.0..=hi {
        if toks[i].kind != TokKind::Ident || KEYWORDS.contains(&toks[i].text.as_str()) {
            continue;
        }
        let next = toks.get(i + 1).map(|t| t.punct()).unwrap_or("");
        if next == "!" {
            continue; // macro name
        }
        if i > 0 && toks[i - 1].ident() == "as" {
            continue; // cast target type
        }
        if next == "(" || (next == "::" && toks.get(i + 2).map(|t| t.punct()) == Some("<")) {
            out.insert(format!("call:{}", toks[i].text));
            continue;
        }
        if next == "::" {
            continue; // path prefix (`Pcg32::`, `faults::`)
        }
        if next == ":" {
            continue; // struct-literal field label / type ascription
        }
        out.insert(toks[i].text.clone());
    }
    out
}

/// Transitive closure of each assigned name's sources within one fn:
/// `target -> every ident / call its value derives from`, following
/// chains of local assignments to fixpoint (cycles are fine — the sets
/// only grow).
pub fn source_closure(p: &ParsedFile, flow: &FnFlow) -> BTreeMap<String, BTreeSet<String>> {
    let mut map: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for a in &flow.assigns {
        map.entry(a.target.clone())
            .or_default()
            .extend(sources_in(p, a.rhs));
    }
    loop {
        let mut changed = false;
        let snapshot = map.clone();
        for set in map.values_mut() {
            let expand: Vec<&BTreeSet<String>> =
                set.iter().filter_map(|s| snapshot.get(s)).collect();
            let before = set.len();
            for e in expand {
                set.extend(e.iter().cloned());
            }
            changed |= set.len() > before;
        }
        if !changed {
            return map;
        }
    }
}

/// The workspace-wide dataflow results: one [`FnFlow`] + source closure
/// per indexed fn, and the seed-taint summaries.
#[derive(Debug)]
pub struct Flows {
    /// Per fn id (parallel to `ws.index.fns`).
    pub flows: Vec<FnFlow>,
    /// Per fn id: transitive source sets of its locals.
    pub closures: Vec<BTreeMap<String, BTreeSet<String>>>,
    /// Per fn id: summary — does the return value derive from a
    /// seed/salt-named source?
    pub seed_derived: Vec<bool>,
}

impl Flows {
    /// Build flows, source closures, and seed-taint summaries for the
    /// workspace.
    pub fn build(ws: &Workspace) -> Flows {
        let n = ws.index.fns.len();
        let mut flows = Vec::with_capacity(n);
        let mut closures = Vec::with_capacity(n);
        for id in 0..n {
            let f = &ws.index.fns[id];
            let p = &ws.files[f.file].parsed;
            let flow = FnFlow::build(p, ws.fn_item(id));
            closures.push(source_closure(p, &flow));
            flows.push(flow);
        }

        let mut fl = Flows {
            flows,
            closures,
            seed_derived: vec![false; n],
        };

        // Seed-taint summaries to fixpoint (monotone: flags only set).
        loop {
            let mut changed = false;
            for id in 0..n {
                if fl.seed_derived[id] {
                    continue;
                }
                let f = &ws.index.fns[id];
                let p = &ws.files[f.file].parsed;
                let derived = fl.flows[id].returns.iter().any(|&r| {
                    fl.expr_sources(p, id, r)
                        .iter()
                        .any(|s| fl.source_is_seed_derived(ws, s))
                });
                if derived {
                    fl.seed_derived[id] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        fl
    }

    /// Transitive sources of an expression range in fn `id`: direct
    /// sources plus the closure of any local among them.
    pub fn expr_sources(
        &self,
        p: &ParsedFile,
        id: usize,
        range: (usize, usize),
    ) -> BTreeSet<String> {
        let mut out = sources_in(p, range);
        let expand: Vec<BTreeSet<String>> = out
            .iter()
            .filter_map(|s| self.closures[id].get(s).cloned())
            .collect();
        for e in expand {
            out.extend(e);
        }
        out
    }

    /// Is a source entry seed-derived? Plain identifiers by naming
    /// convention (`seed`, `*_salt`, `op_key`-style keys); `call:`
    /// entries by callee summary.
    pub fn source_is_seed_derived(&self, ws: &Workspace, source: &str) -> bool {
        if let Some(callee) = source.strip_prefix("call:") {
            if !Workspace::edge_name_kept(callee) {
                return false;
            }
            return ws
                .index
                .by_name
                .get(callee)
                .is_some_and(|ids| ids.iter().any(|&c| self.seed_derived[c]));
        }
        is_seed_named(source)
    }
}

/// Does this identifier name a seed, salt, or derivation key?
pub fn is_seed_named(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("seed") || lower.contains("salt") || lower == "key" || lower.ends_with("_key")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        )
    }

    fn one(src: &str) -> (Workspace, Flows) {
        let w = ws(&[("crates/core/src/x.rs", src)]);
        let f = Flows::build(&w);
        (w, f)
    }

    #[test]
    fn params_assigns_and_loops_collected() {
        let (w, f) = one("fn f(seed: u64, mut total_cost: f64) -> u64 {\n\
                 let mut s = seed ^ 1;\n\
                 for i in 0..4 { s += i; }\n\
                 while s > 0 { s /= 2; }\n\
                 total_cost = 0.0;\n\
                 s\n\
             }");
        let flow = &f.flows[0];
        let names: Vec<&str> = flow.params.iter().map(String::as_str).collect();
        assert_eq!(names, ["seed", "total_cost"]);
        // `let s`, `s +=`, `s /=`, `total_cost =`.
        assert_eq!(flow.assigns.len(), 4, "{:?}", flow.assigns);
        assert_eq!(flow.loops.len(), 2);
        // Tail expression return.
        assert_eq!(flow.returns.len(), 1);
        let p = &w.files[0].parsed;
        let (lo, hi) = flow.returns[0];
        assert_eq!(lo, hi);
        assert_eq!(p.toks[lo].text, "s");
    }

    #[test]
    fn tail_expression_excludes_preceding_block_statements() {
        // The fnv1a shape: a fold over a byte buffer, tail `h`. The
        // loop header's `bytes` ident must not leak into the return
        // range, or the return inherits the header's sources.
        let (w, f) = one("fn fnv1a(bytes: &[u8]) -> u64 {\n\
                 let mut h: u64 = 1;\n\
                 for &b in bytes {\n\
                     h ^= b as u64;\n\
                 }\n\
                 h\n\
             }");
        let flow = &f.flows[0];
        assert_eq!(flow.returns.len(), 1, "{:?}", flow.returns);
        let (lo, hi) = flow.returns[0];
        assert_eq!(lo, hi);
        assert_eq!(w.files[0].parsed.toks[lo].text, "h");

        // An `if/else if/else` chain *used as the tail* keeps its
        // (shallow) capture — the range still starts inside the final
        // block, exactly as before the hop-over fix.
        let (w, f) = one("fn pick(total_bytes: u64) -> u64 {\n\
                 let x = total_bytes;\n\
                 if x > 1 { x } else if x > 0 { 1 } else { 0 }\n\
             }");
        let (lo, _) = f.flows[0].returns[0];
        assert_eq!(w.files[0].parsed.toks[lo].text, "0");

        // ... but the same chain used as a statement before the tail is
        // hopped over.
        let (w, f) = one("fn g(total_bytes: u64) -> u64 {\n\
                 let mut n = 0;\n\
                 if total_bytes > 1 { n += 1 } else { n += 2 }\n\
                 n\n\
             }");
        let (lo, hi) = f.flows[0].returns[0];
        assert_eq!(lo, hi);
        assert_eq!(w.files[0].parsed.toks[lo].text, "n");
    }

    #[test]
    fn source_closure_is_transitive() {
        let (_, f) = one("fn f(seed: u64, salt: u64) -> u64 {\n\
                 let mut s = seed ^ salt;\n\
                 let point = splitmix64(&mut s);\n\
                 let k = point ^ 7;\n\
                 k\n\
             }");
        let k = &f.closures[0]["k"];
        assert!(k.contains("seed"), "{k:?}");
        assert!(k.contains("salt"));
        assert!(k.contains("call:splitmix64"));
    }

    #[test]
    fn seed_taint_summary_through_helpers() {
        let w = ws(&[(
            "crates/faults/src/lib.rs",
            "fn expand(seed: u64, salt: u64) -> u64 {\n\
                 let mut s = seed ^ salt;\n\
                 splitmix64(&mut s)\n\
             }\n\
             fn splitmix64(state: &mut u64) -> u64 { *state }\n\
             fn opaque() -> u64 { 4 }",
        )]);
        let f = Flows::build(&w);
        let expand = w.index.by_name["expand"][0];
        let opaque = w.index.by_name["opaque"][0];
        assert!(f.seed_derived[expand]);
        assert!(!f.seed_derived[opaque]);
    }
}
