//! A minimal Rust lexer: just enough token structure to tell code from
//! comments and strings, which is what every lint rule needs to avoid
//! false positives on words like `unsafe` inside a doc example or
//! `.unwrap()` inside a string literal.
//!
//! The lexer is deliberately lossless and forgiving: it never rejects
//! input, it only classifies byte ranges. Unterminated constructs extend
//! to end of file. It handles the constructs that actually occur in this
//! tree (and the fixture corpus): line and nested block comments, string
//! literals with escapes, raw strings with any hash depth, byte strings,
//! char literals vs. lifetimes, raw identifiers, and numeric literals.

/// Classification of one lexed byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `_` and raw `r#ident`).
    Ident,
    /// A single punctuation byte.
    Punct,
    /// Numeric literal (integer or float, any base).
    Num,
    /// String, raw string, byte string, or C string literal.
    Str,
    /// Character or byte-character literal.
    Char,
    /// A lifetime such as `'a` (or the label form `'outer:`).
    Lifetime,
    /// `// ...` comment, including `///` and `//!` doc comments.
    LineComment,
    /// `/* ... */` comment (nesting respected), including `/** */`.
    BlockComment,
}

/// One token: a classified byte range of the source.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// What the range is.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub lo: usize,
    /// Byte offset one past the last byte.
    pub hi: usize,
}

impl Token {
    /// The token's text within `src`.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.lo..self.hi]
    }

    /// True for comment tokens (line or block).
    pub(crate) fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Scan a quoted string starting at the opening `"` (offset `i`); returns
/// the offset one past the closing quote.
fn scan_string(b: &[u8], mut i: usize) -> usize {
    debug_assert_eq!(b[i], b'"');
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i = (i + 2).min(b.len()),
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Scan a raw string whose hashes start at `i` (just past the `r`);
/// returns the offset one past the final hash (or quote).
fn scan_raw_string(b: &[u8], mut i: usize) -> usize {
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= b.len() || b[i] != b'"' {
        return i; // not actually a raw string; caller re-lexes as ident
    }
    i += 1;
    while i < b.len() {
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < b.len() && b[j] == b'#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

/// Lex `src` into a lossless token stream (whitespace omitted).
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let lo = i;
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            toks.push(Token {
                kind: TokKind::LineComment,
                lo,
                hi: i,
            });
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            toks.push(Token {
                kind: TokKind::BlockComment,
                lo,
                hi: i,
            });
            continue;
        }
        if c == b'"' {
            i = scan_string(b, i);
            toks.push(Token {
                kind: TokKind::Str,
                lo,
                hi: i,
            });
            continue;
        }
        if c == b'\'' {
            // Lifetime if an identifier follows and is NOT closed by a
            // quote (`'a` vs `'a'`); otherwise a char literal.
            let mut j = i + 1;
            if j < b.len() && is_ident_start(b[j]) && b[j] != b'\\' {
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                if j >= b.len() || b[j] != b'\'' {
                    toks.push(Token {
                        kind: TokKind::Lifetime,
                        lo,
                        hi: j,
                    });
                    i = j;
                    continue;
                }
            }
            // Char literal: consume escapes until the closing quote.
            i += 1;
            while i < b.len() {
                match b[i] {
                    b'\\' => i = (i + 2).min(b.len()),
                    b'\'' => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            toks.push(Token {
                kind: TokKind::Char,
                lo,
                hi: i,
            });
            continue;
        }
        if is_ident_start(c) {
            // String-literal prefixes: r"", r#""#, b"", br"", b''.
            if c == b'r' && i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') {
                let end = scan_raw_string(b, i + 1);
                if end > i + 1 && b.get(end.wrapping_sub(1)).is_some() {
                    // Only a raw string if a quote was actually found.
                    if src[i..end].contains('"') {
                        toks.push(Token {
                            kind: TokKind::Str,
                            lo,
                            hi: end,
                        });
                        i = end;
                        continue;
                    }
                }
            }
            if c == b'b' && i + 1 < b.len() {
                match b[i + 1] {
                    b'"' => {
                        i = scan_string(b, i + 1);
                        toks.push(Token {
                            kind: TokKind::Str,
                            lo,
                            hi: i,
                        });
                        continue;
                    }
                    b'\'' => {
                        i += 2;
                        while i < b.len() {
                            match b[i] {
                                b'\\' => i = (i + 2).min(b.len()),
                                b'\'' => {
                                    i += 1;
                                    break;
                                }
                                _ => i += 1,
                            }
                        }
                        toks.push(Token {
                            kind: TokKind::Char,
                            lo,
                            hi: i,
                        });
                        continue;
                    }
                    b'r' if i + 2 < b.len() && (b[i + 2] == b'"' || b[i + 2] == b'#') => {
                        let end = scan_raw_string(b, i + 2);
                        if src[i..end].contains('"') {
                            toks.push(Token {
                                kind: TokKind::Str,
                                lo,
                                hi: end,
                            });
                            i = end;
                            continue;
                        }
                    }
                    _ => {}
                }
            }
            // Raw identifier `r#ident`.
            if c == b'r'
                && i + 1 < b.len()
                && b[i + 1] == b'#'
                && b.get(i + 2).copied().is_some_and(is_ident_start)
            {
                i += 2;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                toks.push(Token {
                    kind: TokKind::Ident,
                    lo,
                    hi: i,
                });
                continue;
            }
            while i < b.len() && is_ident_continue(b[i]) {
                i += 1;
            }
            toks.push(Token {
                kind: TokKind::Ident,
                lo,
                hi: i,
            });
            continue;
        }
        if c.is_ascii_digit() {
            // Good enough for classification: digits, alphanumerics,
            // underscores, and a decimal point. Exponent signs lex as
            // separate punct tokens, which no rule cares about.
            i += 1;
            while i < b.len() && (is_ident_continue(b[i]) || b[i] == b'.') {
                // `0..10` must not swallow the range operator.
                if b[i] == b'.' && i + 1 < b.len() && b[i + 1] == b'.' {
                    break;
                }
                i += 1;
            }
            toks.push(Token {
                kind: TokKind::Num,
                lo,
                hi: i,
            });
            continue;
        }
        i += 1;
        toks.push(Token {
            kind: TokKind::Punct,
            lo,
            hi: i,
        });
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn comments_strings_and_code_are_distinguished() {
        let src = r#"
// unsafe in a comment
let s = "unsafe { }"; /* unsafe /* nested */ still comment */
unsafe { x.unwrap() }
"#;
        let ks = kinds(src);
        let unsafe_code: Vec<_> = ks
            .iter()
            .filter(|(k, t)| *k == TokKind::Ident && t == "unsafe")
            .collect();
        assert_eq!(unsafe_code.len(), 1, "only the real keyword counts");
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokKind::LineComment && t.contains("unsafe in a comment")));
        assert!(ks
            .iter()
            .any(|(k, t)| *k == TokKind::BlockComment && t.contains("nested")));
    }

    #[test]
    fn lifetimes_and_chars() {
        let ks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            ks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn raw_and_byte_strings() {
        let ks = kinds(r###"let a = r#"has "quotes" and .unwrap()"#; let b = b"bytes";"###);
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
        assert!(
            !ks.iter()
                .any(|(k, t)| *k == TokKind::Ident && t == "unwrap"),
            "unwrap inside a raw string is not code"
        );
    }

    #[test]
    fn numbers_do_not_eat_range_operators() {
        let ks = kinds("for i in 0..10 { let f = 1.5e3; }");
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Num && t == "0"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Num && t == "10"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Num && t == "1.5e3"));
    }
}
