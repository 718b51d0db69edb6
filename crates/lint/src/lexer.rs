//! A minimal Rust lexer for the lint analyzer.
//!
//! Produces identifier / number / punctuation / string tokens with
//! 1-based line numbers. Comments (line and nested block) and char
//! literals are stripped entirely — they can never produce a token,
//! which is what makes the rules immune to matches inside documentation
//! or message text. String literals (plain, raw, byte, raw-byte) are
//! preserved as [`TokKind::Str`] tokens whose `text` is the literal's
//! *content* (no quotes, no `r#` decoration, escapes left as written),
//! so a rule can read a literal's text without mistaking it for code.
//! Rules that compare token text therefore must check `kind` — a string
//! containing `"+"` is not the `+` operator. Lifetimes (`'a`) are
//! distinguished from char literals and dropped.
//!
//! This is deliberately NOT a full Rust lexer: anything the rules don't
//! need (float-suffix edge cases, shebangs, frontmatter) is treated as
//! opaque punctuation. The requirements are that identifier boundaries
//! are exact, comment content is invisible, and string content is
//! visible only as an atomic `Str` token.

/// Token categories the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (value not interpreted).
    Number,
    /// Punctuation; multi-char operators (`::`, `==`, `->`, `+=`, ...)
    /// arrive as a single token.
    Punct,
    /// String literal (plain, raw, byte, or raw-byte); `text` holds the
    /// content between the quotes, escapes unprocessed.
    Str,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token text (for `Str`, the literal's content).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
    /// Category.
    pub kind: TokKind,
}

impl Token {
    /// `text` if this token is an identifier, else `""`.
    pub fn ident(&self) -> &str {
        if self.kind == TokKind::Ident {
            &self.text
        } else {
            ""
        }
    }

    /// `text` if this token is punctuation, else `""`.
    pub fn punct(&self) -> &str {
        if self.kind == TokKind::Punct {
            &self.text
        } else {
            ""
        }
    }
}

/// Multi-character operators merged into one token, longest first.
const MULTI_OPS: [&str; 18] = [
    "..=", "<<=", ">>=", "::", "==", "!=", "<=", ">=", "->", "=>", "+=", "-=", "*=", "/=", "%=",
    "&&", "||", "..",
];

/// Lex `source` into tokens, stripping comments and chars, keeping
/// string literals as atomic [`TokKind::Str`] tokens.
pub fn lex(source: &str) -> Vec<Token> {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let n = chars.len();

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            // Line comment (also doc comments `///`, `//!`).
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            // Nested block comment.
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            // Byte-char literal `b'x'` / `b'\n'` — without this, the `b`
            // would leak as a fabricated identifier token.
            'b' if i + 1 < n && chars[i + 1] == '\'' => {
                let start_line = line;
                i = skip_char_literal(&chars, i + 1, &mut line);
                let _ = start_line;
            }
            // Raw / byte / raw-byte / plain strings starting at r, b, br.
            'r' | 'b' if starts_string(&chars, i) => {
                let start_line = line;
                let (end, content) = take_string(&chars, i, &mut line);
                toks.push(Token {
                    text: content,
                    line: start_line,
                    kind: TokKind::Str,
                });
                i = end;
            }
            '"' => {
                let start_line = line;
                let end = skip_quoted_body(&chars, i + 1, &mut line, '"');
                // Drop the closing quote if the literal terminated.
                let content_end = if end > i + 1 && end <= n && chars[end - 1] == '"' {
                    end - 1
                } else {
                    end.min(n)
                };
                toks.push(Token {
                    text: chars[i + 1..content_end].iter().collect(),
                    line: start_line,
                    kind: TokKind::Str,
                });
                i = end;
            }
            // Char literal vs lifetime.
            '\'' => {
                if is_char_literal(&chars, i) {
                    i = skip_char_literal(&chars, i, &mut line);
                } else {
                    // Lifetime: skip the quote and the identifier.
                    i += 1;
                    while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                        i += 1;
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Token {
                    text: chars[start..i].iter().collect(),
                    line,
                    kind: TokKind::Ident,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.') {
                    // `1..10` — don't swallow a range operator.
                    if chars[i] == '.' && i + 1 < n && chars[i + 1] == '.' {
                        break;
                    }
                    i += 1;
                    // Exponent sign: `1e-3`, `2.5E+7`.
                    if i < n
                        && (chars[i] == '+' || chars[i] == '-')
                        && matches!(chars[i - 1], 'e' | 'E')
                    {
                        i += 1;
                    }
                }
                toks.push(Token {
                    text: chars[start..i].iter().collect(),
                    line,
                    kind: TokKind::Number,
                });
            }
            _ => {
                // Punctuation: try multi-char operators longest-first.
                let mut matched = false;
                for op in MULTI_OPS {
                    let len = op.len();
                    if i + len <= n && chars[i..i + len].iter().collect::<String>() == op {
                        toks.push(Token {
                            text: op.to_string(),
                            line,
                            kind: TokKind::Punct,
                        });
                        i += len;
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    toks.push(Token {
                        text: c.to_string(),
                        line,
                        kind: TokKind::Punct,
                    });
                    i += 1;
                }
            }
        }
    }
    toks
}

/// Does a string literal start at `i` (which holds `r` or `b`)?
/// Covers `r"`, `r#"`, `b"`, `br"`, `br#"`. (`rb` is not valid Rust;
/// `r#ident` raw identifiers fail the final quote check.)
fn starts_string(chars: &[char], i: usize) -> bool {
    let n = chars.len();
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if j < n && chars[j] == '"' {
            return true; // b"..."
        }
    }
    if j < n && chars[j] == 'r' {
        j += 1;
        while j < n && chars[j] == '#' {
            j += 1;
        }
        return j < n && chars[j] == '"';
    }
    false
}

/// Consume the string literal starting at `i` (`r`, `b`, or `br` form),
/// returning `(index just past it, content between the quotes)`.
fn take_string(chars: &[char], i: usize, line: &mut usize) -> (usize, String) {
    let n = chars.len();
    let mut j = i;
    let mut raw = false;
    if j < n && chars[j] == 'b' {
        j += 1;
    }
    if j < n && chars[j] == 'r' {
        raw = true;
        j += 1;
    }
    let mut hashes = 0;
    while j < n && chars[j] == '#' {
        hashes += 1;
        j += 1;
    }
    debug_assert!(j < n && chars[j] == '"');
    j += 1; // past the opening quote
    let body_start = j;
    if raw {
        // Ends at `"` followed by exactly `hashes` hash marks. The
        // terminator must be fully present: `r##"x"#` at end of input is
        // unterminated, not closed by a short hash run.
        while j < n {
            if chars[j] == '\n' {
                *line += 1;
                j += 1;
            } else if chars[j] == '"'
                && j + hashes < n
                && chars[j + 1..=j + hashes].iter().all(|&c| c == '#')
            {
                let content = chars[body_start..j].iter().collect();
                return (j + 1 + hashes, content);
            } else {
                j += 1;
            }
        }
        (j, chars[body_start..j.min(n)].iter().collect())
    } else {
        let end = skip_quoted_body(chars, j, line, '"');
        let content_end = if end > body_start && end <= n && chars[end - 1] == '"' {
            end - 1
        } else {
            end.min(n)
        };
        (end, chars[body_start..content_end].iter().collect())
    }
}

/// Skip past the body of an escaped literal, returning the index just
/// past the closing `quote`. Escaped newlines (`\` at end of line) keep
/// the line counter accurate.
fn skip_quoted_body(chars: &[char], mut j: usize, line: &mut usize, quote: char) -> usize {
    let n = chars.len();
    while j < n {
        match chars[j] {
            '\\' => {
                if j + 1 < n && chars[j + 1] == '\n' {
                    *line += 1;
                }
                j += 2;
            }
            '\n' => {
                *line += 1;
                j += 1;
            }
            c if c == quote => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Distinguish `'a'` / `'\n'` (char literal) from `'a` (a lifetime). A
/// char literal has a closing quote after one (possibly escaped)
/// character.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    let n = chars.len();
    if i + 1 >= n {
        return false;
    }
    if chars[i + 1] == '\\' {
        return true; // `'\...` is always a char escape
    }
    // `'X'` — exactly one char then a quote.
    i + 2 < n && chars[i + 2] == '\''
}

fn skip_char_literal(chars: &[char], i: usize, line: &mut usize) -> usize {
    skip_quoted_body(chars, i + 1, line, '\'')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != TokKind::Str)
            .map(|t| t.text)
            .collect()
    }

    fn strings(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn identifiers_and_puncts() {
        assert_eq!(
            texts("let x = a::b(1);"),
            ["let", "x", "=", "a", "::", "b", "(", "1", ")", ";"]
        );
    }

    #[test]
    fn comments_invisible() {
        assert_eq!(
            texts("a // Instant::now\nb /* thread_rng /* nested */ */ c"),
            ["a", "b", "c"]
        );
    }

    #[test]
    fn nested_block_comments_to_arbitrary_depth() {
        assert_eq!(texts("a /* 1 /* 2 /* 3 */ 2 */ 1 */ b"), ["a", "b"]);
        // An unterminated nested comment swallows the rest of the file.
        assert_eq!(texts("a /* /* */ still-in-comment"), ["a"]);
        // `*/` sequences inside the nesting arithmetic close one level.
        assert_eq!(texts("x /*/* inner */*/ y"), ["x", "y"]);
    }

    #[test]
    fn strings_are_atomic_tokens_not_identifier_soup() {
        let src = r#"f("Instant::now", 'x', "esc\"aped")"#;
        assert_eq!(texts(src), ["f", "(", ",", ",", ")"]);
        assert_eq!(strings(src), ["Instant::now", "esc\\\"aped"]);
    }

    #[test]
    fn raw_strings_capture_content_and_terminate_exactly() {
        assert_eq!(texts(r##"g(r#"raw "quoted" panic!"#)"##), ["g", "(", ")"]);
        assert_eq!(
            strings(r##"g(r#"raw "quoted" panic!"#)"##),
            [r#"raw "quoted" panic!"#]
        );
        // A quote followed by too few hashes does not terminate.
        assert_eq!(strings(r###"h(r##"a"#b"##)"###), [r##"a"#b"##]);
        // Unterminated raw string at EOF must not panic or loop.
        assert_eq!(texts("r##\"dangling\"#"), Vec::<String>::new());
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let byte_and_raw = "h(b\"bytes\", br#\"raw\"#)";
        assert_eq!(texts(byte_and_raw), ["h", "(", ",", ")"]);
        assert_eq!(strings(byte_and_raw), ["bytes", "raw"]);
        // `b'x'` is a byte-char literal, not a `b` identifier + char:
        // the `b` must not leak as a fabricated identifier token.
        assert_eq!(texts("m(b'x', b'\\n')"), ["m", "(", ",", ")"]);
    }

    #[test]
    fn lifetimes_not_chars() {
        assert_eq!(
            texts("fn f<'a>(x: &'a str) -> char { 'x' }"),
            ["fn", "f", "<", ">", "(", "x", ":", "&", "str", ")", "->", "char", "{", "}"]
        );
    }

    #[test]
    fn escaped_char_literals() {
        assert_eq!(
            texts(r"let c = '\n'; let q = '\''; let u = '\u{1F600}';"),
            ["let", "c", "=", ";", "let", "q", "=", ";", "let", "u", "=", ";"]
        );
    }

    #[test]
    fn multi_char_ops_single_tokens() {
        assert_eq!(
            texts("a += b; c == d; e -> f; 0..=9"),
            ["a", "+=", "b", ";", "c", "==", "d", ";", "e", "->", "f", ";", "0", "..=", "9"]
        );
    }

    #[test]
    fn numbers_with_exponents() {
        assert_eq!(
            texts("1.5e-3 + 2E+7 - 0xff_u32"),
            ["1.5e-3", "+", "2E+7", "-", "0xff_u32"]
        );
    }

    #[test]
    fn string_content_never_matches_as_punct_or_ident() {
        // `"+"` is a Str token: rules comparing neighbours by kind must
        // not see it as the `+` operator next to `cost`.
        let toks = lex(r#"record(cost, "+")"#);
        let plus = toks.iter().find(|t| t.text == "+").unwrap();
        assert_eq!(plus.kind, TokKind::Str);
        assert_eq!(plus.punct(), "");
        assert_eq!(plus.ident(), "");
    }

    #[test]
    fn line_numbers_tracked_through_multiline_constructs() {
        let toks = lex("a\n/* c\nc */ b\n\"s\ns\" d");
        let lines: Vec<(String, usize)> = toks
            .into_iter()
            .filter(|t| t.kind != TokKind::Str)
            .map(|t| (t.text, t.line))
            .collect();
        assert_eq!(lines, [("a".into(), 1), ("b".into(), 3), ("d".into(), 5)]);
        // Escaped newline inside a string still advances the counter.
        let toks = lex("\"a\\\nb\" z");
        let z = toks.iter().find(|t| t.text == "z").unwrap();
        assert_eq!(z.line, 2);
        // Raw strings spanning lines advance it too.
        let toks = lex("r#\"x\ny\"# w");
        let w = toks.iter().find(|t| t.text == "w").unwrap();
        assert_eq!(w.line, 2);
    }
}
