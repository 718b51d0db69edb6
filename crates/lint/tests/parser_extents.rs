//! Exact-extent tests for the parse layer over the checked-in
//! `tests/fixtures/parser/` files: turbofish calls, where-clauses, and
//! braced match arms. Each test pins the *indices* the parser recovers
//! — delimiter matches, call argument lists, statement starts — so a
//! lexer or parser regression shows up as a shifted extent, not as a
//! silently missed finding downstream.

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

/// Index of the first `(` after token `i`: the paren of the call named
/// at `i`, past any turbofish.
fn paren_after(p: &ParsedFile, i: usize) -> usize {
    (i..p.toks.len())
        .find(|&j| p.toks[j].punct() == "(")
        .unwrap()
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

    // `collect::<Vec<u64>>()` is one call with an *empty* argument list
    // sitting after the closed angle group.
    let name_tok = nth(&p, "collect", 0);
    let open = paren_after(&p, name_tok);
    assert_eq!(p.toks[open].punct(), "(");
    assert!(open > name_tok + 1, "turbofish paren sits past `::<...>`");
    assert_eq!(text_of(&p, name_tok, open), "collect :: < Vec < u64 > > (");
    assert_eq!(p.call_args(open), Some(vec![]));

    // `parse::<u64>(&doubled)` is a free call with exactly one argument
    // spanning `& doubled`.
    let open = paren_after(&p, nth(&p, "parse", 0));
    let args = p.call_args(open).unwrap();
    assert_eq!(args.len(), 1);
    assert_eq!(text_of(&p, args[0].0, args[0].1), "& doubled");

    // The turbofish `let` is one statement starting at `let`.
    assert_eq!(p.toks[p.statement_start(name_tok)].text, "let");
}

#[test]
fn where_clause_does_not_shift_the_body_extent() {
    let p = parse("where_clause.rs");

    // The body starts at the brace *after* the bounds: its first inner
    // token is `let`, and the token before the open brace is the
    // trailing `,` of `T: Into<u64> + Copy,`.
    let lo = nth(&p, "{", 0);
    let hi = p.close_of(lo).unwrap();
    assert_eq!(hi, p.toks.len() - 1);
    assert_eq!(p.toks[lo + 1].ident(), "let");
    assert_eq!(p.toks[lo - 1].punct(), ",");
    // The body's last expression is the bare `acc` tail.
    assert_eq!(p.toks[hi - 1].text, "acc");
    // The `where` keyword sits between the return type and the body.
    let where_tok = nth(&p, "where", 0);
    assert!(where_tok < lo);
}

#[test]
fn braced_match_arms_bound_statement_extents() {
    let p = parse("match_arms.rs");

    // Inside the braced arm, `let width = rows + 1;` is one statement
    // starting at `let`, inside the arm's braces.
    let width_tok = nth(&p, "width", 0);
    let start = p.statement_start(width_tok);
    assert_eq!(p.toks[start].text, "let");
    let arm_open = nth(&p, "{", 3); // fn {, match {, `Scan { rows }`, arm {
    let arm_close = p.close_of(arm_open).unwrap();
    assert!(arm_open < start && width_tok < arm_close);

    // The expression arm after the braced arm starts its statement at
    // its own pattern (`Op`), right after the previous arm's `}`.
    let two_tok = nth(&p, "2", 0);
    let start = p.statement_start(two_tok);
    assert_eq!(p.toks[start].text, "Op");
    assert_eq!(p.toks[start - 1].punct(), "}");
    assert_eq!(start - 1, arm_close);
}
