//! A lightweight hand-rolled Rust lexer.
//!
//! The analyzer needs exactly enough lexical structure to reason about code
//! *soundly at the token level*: comments and string literals must never be
//! mistaken for code (a doc comment mentioning `unwrap()` is not a finding),
//! and every token must carry its source line for reporting.  A full parser
//! (`syn`) is unavailable — the build container has no crates.io access — and
//! unnecessary: every rule in [`crate::rules`] is defined over token patterns
//! plus brace structure, in the tradition of the dnamaca scanner.
//!
//! Handled: identifiers and keywords, lifetimes vs. char literals, integer and
//! float literals (hex/octal/binary, underscores, exponents, suffixes), plain
//! strings with escapes, raw strings `r"…"`/`r#"…"#` with any number of
//! hashes, byte and raw byte strings, line comments, and **nested** block
//! comments.  Comments are dropped; everything else becomes a [`Token`].

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `unwrap`, `HashMap`, …).
    Ident,
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// An integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// A float literal (`1.0`, `2e-3`, `3f64`).
    Float,
    /// A string literal of any flavour (plain, raw, byte); `text` is the raw
    /// source including quotes and hashes.
    Str,
    /// A char literal such as `'x'` or `'\n'`.
    Char,
    /// A single punctuation character (`{`, `.`, `!`, …).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's kind.
    pub kind: TokenKind,
    /// The token's source text.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Token {
    /// True for an identifier token with exactly this text.
    pub(crate) fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True for a punctuation token with exactly this text.
    pub(crate) fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// Lexes Rust source into tokens, skipping whitespace and comments.
///
/// The lexer is infallible by design: any byte it does not recognise becomes a
/// one-character [`TokenKind::Punct`] token, so analysis degrades gracefully
/// instead of aborting on exotic input.
pub(crate) fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl Lexer {
    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'r' if self.raw_string_ahead(1) => self.raw_string(1),
                'b' if self.peek(1) == Some('"') => {
                    self.pos += 1; // consume `b`, then lex the string body
                    self.string();
                }
                'b' if self.peek(1) == Some('r') && self.raw_string_ahead(2) => self.raw_string(2),
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c == '_' || c.is_alphabetic() => self.ident(),
                other => {
                    self.push(TokenKind::Punct, other.to_string());
                    self.pos += 1;
                }
            }
        }
        self.tokens
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, text: String) {
        self.tokens.push(Token {
            kind,
            text,
            line: self.line,
        });
    }

    fn line_comment(&mut self) {
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break; // the newline itself is handled by `run`
            }
            self.pos += 1;
        }
    }

    /// Rust block comments nest: `/* outer /* inner */ still comment */`.
    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.pos += 2;
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.pos += 2;
                if depth == 0 {
                    return;
                }
            } else {
                if c == '\n' {
                    self.line += 1;
                }
                self.pos += 1;
            }
        }
        // Unterminated comment: consumed to end of input, nothing to emit.
    }

    /// True when the characters starting at `self.pos + offset` begin a raw
    /// string body: zero or more `#` then `"`.
    fn raw_string_ahead(&self, offset: usize) -> bool {
        let mut i = offset;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    /// Lexes `r"…"`, `r#"…"#`, `br##"…"##`… starting with the `r` (or `b`)
    /// `prefix_len` characters before the hashes.
    fn raw_string(&mut self, prefix_len: usize) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += prefix_len;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        loop {
            match self.peek(0) {
                None => break, // unterminated; tolerate
                Some('"') => {
                    // Check for `"` followed by exactly `hashes` hashes.
                    let mut all = true;
                    for i in 0..hashes {
                        if self.peek(1 + i) != Some('#') {
                            all = false;
                            break;
                        }
                    }
                    if all {
                        self.pos += 1 + hashes;
                        break;
                    }
                    self.pos += 1;
                }
                Some(c) => {
                    if c == '\n' {
                        self.line += 1;
                    }
                    self.pos += 1;
                }
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.tokens.push(Token {
            kind: TokenKind::Str,
            text,
            line: start_line,
        });
    }

    fn string(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += 1; // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    // Any escape, including \" and \\ — and the line
                    // continuation \<newline>, whose newline still counts.
                    if self.peek(1) == Some('\n') {
                        self.line += 1;
                    }
                    self.pos += 2;
                }
                '"' => {
                    self.pos += 1;
                    break;
                }
                _ => {
                    if c == '\n' {
                        self.line += 1;
                    }
                    self.pos += 1;
                }
            }
        }
        let text: String = self.chars[start..self.pos.min(self.chars.len())]
            .iter()
            .collect();
        self.tokens.push(Token {
            kind: TokenKind::Str,
            text,
            line: start_line,
        });
    }

    /// Disambiguates `'a` (lifetime) from `'x'`/`'\n'` (char literal): a
    /// lifetime is `'` + ident with **no** closing quote right after.
    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        if let Some(c) = self.peek(1) {
            if (c == '_' || c.is_alphabetic()) && self.peek(2) != Some('\'') {
                // Lifetime: consume ' plus the identifier.
                self.pos += 2;
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let text: String = self.chars[start..self.pos].iter().collect();
                self.push(TokenKind::Lifetime, text);
                return;
            }
        }
        // Char literal: ' then either an escape or one char, then '.
        self.pos += 1;
        if self.peek(0) == Some('\\') {
            self.pos += 2;
            // \u{…} escapes run until the closing brace.
            while let Some(c) = self.peek(0) {
                if c == '\'' {
                    break;
                }
                self.pos += 1;
            }
        } else if self.peek(0).is_some() {
            self.pos += 1;
        }
        if self.peek(0) == Some('\'') {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::Char, text);
    }

    fn number(&mut self) {
        let start = self.pos;
        let mut is_float = false;
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            self.pos += 2;
            while let Some(c) = self.peek(0) {
                if c.is_ascii_hexdigit() || c == '_' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        } else {
            self.digits();
            // A fractional part only if `.` is followed by a digit — leaves
            // ranges (`0..n`), tuple indexing (`t.0`) and method calls on
            // literals (`1.max(2)`) alone.
            if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                self.pos += 1;
                self.digits();
            }
            // Exponent: e/E [+-] digits.
            if matches!(self.peek(0), Some('e' | 'E')) {
                let mut i = 1;
                if matches!(self.peek(1), Some('+' | '-')) {
                    i = 2;
                }
                if self.peek(i).is_some_and(|c| c.is_ascii_digit()) {
                    is_float = true;
                    self.pos += i;
                    self.digits();
                }
            }
        }
        // Type suffix (f64, u32, usize, …) — consumed into the token.
        let suffix_start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let suffix: String = self.chars[suffix_start..self.pos].iter().collect();
        if suffix.starts_with('f') {
            is_float = true;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(
            if is_float {
                TokenKind::Float
            } else {
                TokenKind::Int
            },
            text,
        );
    }

    fn digits(&mut self) {
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn ident(&mut self) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        self.push(TokenKind::Ident, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("fn main() {}");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "fn".to_string()),
                (TokenKind::Ident, "main".to_string()),
                (TokenKind::Punct, "(".to_string()),
                (TokenKind::Punct, ")".to_string()),
                (TokenKind::Punct, "{".to_string()),
                (TokenKind::Punct, "}".to_string()),
            ]
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn line_comments_are_skipped() {
        let toks = kinds("a // unwrap() HashMap \"str\nb");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "a".to_string()),
                (TokenKind::Ident, "b".to_string()),
            ]
        );
    }

    #[test]
    fn nested_block_comments() {
        // The inner /* */ must not terminate the outer comment.
        let toks = kinds("a /* outer /* inner */ still a comment */ b");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "a".to_string()),
                (TokenKind::Ident, "b".to_string()),
            ]
        );
        // Newlines inside comments still advance the line counter.
        let toks = lex("/* one\ntwo /* three\n*/ four\n*/ x");
        assert_eq!(toks[0].text, "x");
        assert_eq!(toks[0].line, 4);
    }

    #[test]
    fn plain_strings_with_escapes() {
        let toks = lex(r#"let s = "a \"quoted\" \\ thing";"#);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(s.text, r#""a \"quoted\" \\ thing""#);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex(r###"let s = r#"contains "quotes" and \ no escapes"#;"###);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(s.text, r###"r#"contains "quotes" and \ no escapes"#"###);
        // Zero-hash raw string.
        let toks = lex(r#"r"plain raw""#);
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[0].text, r#"r"plain raw""#);
        // Two-hash raw string containing a one-hash terminator-lookalike.
        let toks = lex(r####"r##"inner "# not the end"##"####);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokenKind::Str);
    }

    #[test]
    fn raw_string_contents_are_not_code() {
        // `unwrap()` inside a raw string must not produce an Ident token.
        let toks = lex(r##"let s = r#"x.unwrap() /* HashMap "#;"##);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = lex(r##"b"bytes" br#"raw bytes"# x"##);
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[1].kind, TokenKind::Str);
        assert!(toks[2].is_ident("x"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "'a"));
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Char).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].text, "'x'");
        assert_eq!(chars[1].text, "'\\n'");
    }

    #[test]
    fn numeric_literals() {
        let toks = kinds("1 1.5 1e3 2E-4 0xff_u32 1_000 3f64 7usize 1.0f32");
        let kinds_only: Vec<TokenKind> = toks.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds_only,
            vec![
                TokenKind::Int,
                TokenKind::Float,
                TokenKind::Float,
                TokenKind::Float,
                TokenKind::Int,
                TokenKind::Int,
                TokenKind::Float,
                TokenKind::Int,
                TokenKind::Float,
            ]
        );
    }

    #[test]
    fn ranges_and_tuple_access_are_not_floats() {
        let toks = kinds("0..n 1..=2 t.0 1.max(2)");
        assert!(toks.iter().all(|(k, _)| *k != TokenKind::Float));
    }

    #[test]
    fn string_line_continuation_counts_its_newline() {
        // `\` at end of line inside a string elides the newline from the
        // *value*, but the source line counter must still advance.
        let toks = lex("let s = \"one \\\n    two\";\nafter");
        let after = toks.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 3);
    }

    #[test]
    fn unrecognised_bytes_degrade_to_punct() {
        let toks = kinds("a § b");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].0, TokenKind::Punct);
    }
}
