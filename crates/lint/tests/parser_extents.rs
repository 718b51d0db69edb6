//! Exact-extent tests for the parse layer over the checked-in
//! `tests/fixtures/parser/` files: turbofish calls, where-clauses, and
//! braced match arms. Each test pins the *indices* the parser recovers
//! — fn body spans, call argument lists, statement boundaries — so a
//! lexer or parser regression shows up as a shifted extent, not as a
//! silently missed finding three rules downstream.

use cackle_lint::parser::ParsedFile;
use std::path::Path;

fn parse(name: &str) -> ParsedFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/parser")
        .join(name);
    ParsedFile::parse(&std::fs::read_to_string(path).unwrap())
}

/// Index of the `n`-th token whose text is `what` (0-based occurrence).
fn nth(p: &ParsedFile, what: &str, n: usize) -> usize {
    p.toks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.text == what)
        .map(|(i, _)| i)
        .nth(n)
        .unwrap_or_else(|| panic!("token `{what}` #{n} not found"))
}

/// The source text of an inclusive token range, space-joined.
fn text_of(p: &ParsedFile, lo: usize, hi: usize) -> String {
    p.toks[lo..=hi]
        .iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn turbofish_calls_resolve_past_the_type_arguments() {
    let p = parse("turbofish.rs");
    assert_eq!(p.fns.len(), 1);
    assert_eq!(p.fns[0].name, "drain");

    // `collect::<Vec<u64>>()` is one call with an *empty* argument list
    // sitting after the closed angle group.
    let body = p.fns[0].body.unwrap();
    let calls = p.calls_in(body);
    let (_, name_tok, open) = calls
        .iter()
        .find(|(n, _, _)| n == "collect")
        .cloned()
        .unwrap();
    assert_eq!(p.toks[open].punct(), "(");
    assert!(open > name_tok + 1, "turbofish paren sits past `::<...>`");
    assert_eq!(text_of(&p, name_tok, open), "collect :: < Vec < u64 > > (");
    assert_eq!(p.call_args(open), Some(vec![]));

    // `parse::<u64>(&doubled)` is a free call with exactly one argument
    // spanning `& doubled`.
    let (_, name_tok, open) = calls
        .iter()
        .find(|(n, _, _)| n == "parse")
        .cloned()
        .unwrap();
    let args = p.call_args(open).unwrap();
    assert_eq!(args.len(), 1);
    assert_eq!(text_of(&p, args[0].0, args[0].1), "& doubled");
    // The whole turbofish call is one statement.
    assert_eq!(p.toks[p.statement_end(name_tok)].punct(), ";");

    // `Vec::<u64>::new()` still registers `new` as the callee.
    assert!(calls.iter().any(|(n, _, _)| n == "new"));
    // The turbofish `let` is one statement from `let` to `;`.
    let collect_tok = nth(&p, "collect", 0);
    assert_eq!(p.toks[p.statement_start(collect_tok)].text, "let");
    assert_eq!(p.toks[p.statement_end(collect_tok)].punct(), ";");
}

#[test]
fn where_clause_does_not_shift_the_body_extent() {
    let p = parse("where_clause.rs");
    assert_eq!(p.fns.len(), 1);
    let f = &p.fns[0];
    assert_eq!(f.name, "reduce");

    // The body starts at the brace *after* the bounds: its first inner
    // token is `let`, and the token before the open brace is the
    // trailing `,` of `T: Into<u64> + Copy,`.
    let (lo, hi) = f.body.unwrap();
    assert_eq!(p.toks[lo].punct(), "{");
    assert_eq!(p.close_of(lo), Some(hi));
    assert_eq!(p.toks[lo + 1].ident(), "let");
    assert_eq!(p.toks[lo - 1].punct(), ",");
    // The body's last expression is the bare `acc` tail.
    assert_eq!(p.toks[hi - 1].text, "acc");
    // The `where` keyword sits between the return type and the body.
    let where_tok = nth(&p, "where", 0);
    assert!(f.kw < where_tok && where_tok < lo);
}

#[test]
fn braced_match_arms_bound_statement_extents() {
    let p = parse("match_arms.rs");
    assert_eq!(p.fns.len(), 1);
    assert_eq!(p.fns[0].name, "classify");

    // Inside the braced arm, `let width = rows + 1;` is one statement:
    // start at `let`, end at `;`, fully inside the arm's braces.
    let width_tok = nth(&p, "width", 0);
    let start = p.statement_start(width_tok);
    let end = p.statement_end(width_tok);
    assert_eq!(text_of(&p, start, end), "let width = rows + 1 ;");
    let arm_open = nth(&p, "{", 3); // fn {, match {, `Scan { rows }`, arm {
    let arm_close = p.close_of(arm_open).unwrap();
    assert!(arm_open < start && end < arm_close);
    // The arm's scope is the arm, not the match: `width`'s scope ends
    // at the arm's close brace.
    assert_eq!(p.scope_end(width_tok), arm_close);

    // The expression arm after the braced arm starts its statement at
    // its own pattern (`Op`), right after the previous arm's `}`.
    let two_tok = nth(&p, "2", 0);
    let start = p.statement_start(two_tok);
    assert_eq!(p.toks[start].text, "Op");
    assert_eq!(p.toks[start - 1].punct(), "}");
    assert_eq!(start - 1, arm_close);
}
