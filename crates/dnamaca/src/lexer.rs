//! Tokeniser for the DNAmaca-style model language.

use std::fmt;

/// A lexical token together with its source position (1-based line / column).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// The token's kind and payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub column: usize,
}

/// The kinds of token the language uses.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// A backslash keyword such as `\transition` (stored without the backslash).
    Keyword(String),
    /// An identifier: place name, constant name, distribution function, `next`, `s`.
    Ident(String),
    /// A numeric literal (integers are represented as floats).
    Number(f64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `=`
    Assign,
    /// `->`
    Arrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `>`
    Greater,
    /// `<`
    Less,
    /// `>=`
    GreaterEq,
    /// `<=`
    LessEq,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "\\{k}"),
            TokenKind::Ident(i) => write!(f, "{i}"),
            TokenKind::Number(n) => write!(f, "{n}"),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Assign => write!(f, "="),
            TokenKind::Arrow => write!(f, "->"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Greater => write!(f, ">"),
            TokenKind::Less => write!(f, "<"),
            TokenKind::GreaterEq => write!(f, ">="),
            TokenKind::LessEq => write!(f, "<="),
            TokenKind::EqEq => write!(f, "=="),
            TokenKind::NotEq => write!(f, "!="),
            TokenKind::AndAnd => write!(f, "&&"),
            TokenKind::OrOr => write!(f, "||"),
            TokenKind::Not => write!(f, "!"),
        }
    }
}

/// A lexical error with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Description of the problem.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub column: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lexical error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenises a model source text.
pub(crate) fn tokenize(source: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    let mut line = 1usize;
    let mut column = 1usize;

    let advance = |i: &mut usize, line: &mut usize, column: &mut usize| {
        if chars[*i] == '\n' {
            *line += 1;
            *column = 1;
        } else {
            *column += 1;
        }
        *i += 1;
    };

    while i < chars.len() {
        let c = chars[i];
        let (tok_line, tok_col) = (line, column);
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                advance(&mut i, &mut line, &mut column);
            }
            '%' => {
                // Comment to end of line.
                while i < chars.len() && chars[i] != '\n' {
                    advance(&mut i, &mut line, &mut column);
                }
            }
            '\\' => {
                advance(&mut i, &mut line, &mut column);
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    advance(&mut i, &mut line, &mut column);
                }
                if start == i {
                    return Err(LexError {
                        message: "expected keyword after '\\'".into(),
                        line: tok_line,
                        column: tok_col,
                    });
                }
                let word: String = chars[start..i].iter().collect();
                tokens.push(Token {
                    kind: TokenKind::Keyword(word),
                    line: tok_line,
                    column: tok_col,
                });
            }
            c if c.is_ascii_digit()
                || (c == '.' && i + 1 < chars.len() && chars[i + 1].is_ascii_digit()) =>
            {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || chars[i] == 'E'
                        || ((chars[i] == '+' || chars[i] == '-')
                            && i > start
                            && (chars[i - 1] == 'e' || chars[i - 1] == 'E')))
                {
                    advance(&mut i, &mut line, &mut column);
                }
                let text: String = chars[start..i].iter().collect();
                let value: f64 = text.parse().map_err(|_| LexError {
                    message: format!("invalid numeric literal '{text}'"),
                    line: tok_line,
                    column: tok_col,
                })?;
                tokens.push(Token {
                    kind: TokenKind::Number(value),
                    line: tok_line,
                    column: tok_col,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    advance(&mut i, &mut line, &mut column);
                }
                let word: String = chars[start..i].iter().collect();
                tokens.push(Token {
                    kind: TokenKind::Ident(word),
                    line: tok_line,
                    column: tok_col,
                });
            }
            _ => {
                // Punctuation and operators, longest match first.
                let two: String = chars[i..chars.len().min(i + 2)].iter().collect();
                let (kind, len) = match two.as_str() {
                    "->" => (TokenKind::Arrow, 2),
                    ">=" => (TokenKind::GreaterEq, 2),
                    "<=" => (TokenKind::LessEq, 2),
                    "==" => (TokenKind::EqEq, 2),
                    "!=" => (TokenKind::NotEq, 2),
                    "&&" => (TokenKind::AndAnd, 2),
                    "||" => (TokenKind::OrOr, 2),
                    _ => {
                        let kind = match c {
                            '{' => TokenKind::LBrace,
                            '}' => TokenKind::RBrace,
                            '(' => TokenKind::LParen,
                            ')' => TokenKind::RParen,
                            ',' => TokenKind::Comma,
                            ';' => TokenKind::Semicolon,
                            '=' => TokenKind::Assign,
                            '+' => TokenKind::Plus,
                            '-' => TokenKind::Minus,
                            '*' => TokenKind::Star,
                            '/' => TokenKind::Slash,
                            '>' => TokenKind::Greater,
                            '<' => TokenKind::Less,
                            '!' => TokenKind::Not,
                            other => {
                                return Err(LexError {
                                    message: format!("unexpected character '{other}'"),
                                    line: tok_line,
                                    column: tok_col,
                                })
                            }
                        };
                        (kind, 1)
                    }
                };
                for _ in 0..len {
                    advance(&mut i, &mut line, &mut column);
                }
                tokens.push(Token {
                    kind,
                    line: tok_line,
                    column: tok_col,
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("\\place{p1}{18}"),
            vec![
                TokenKind::Keyword("place".into()),
                TokenKind::LBrace,
                TokenKind::Ident("p1".into()),
                TokenKind::RBrace,
                TokenKind::LBrace,
                TokenKind::Number(18.0),
                TokenKind::RBrace,
            ]
        );
    }

    #[test]
    fn numbers_including_scientific() {
        assert_eq!(
            kinds("0.001 5 1e-3 2.5E2"),
            vec![
                TokenKind::Number(0.001),
                TokenKind::Number(5.0),
                TokenKind::Number(0.001),
                TokenKind::Number(250.0),
            ]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            kinds("a -> b >= 1 && c != 2 || !d"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Arrow,
                TokenKind::Ident("b".into()),
                TokenKind::GreaterEq,
                TokenKind::Number(1.0),
                TokenKind::AndAnd,
                TokenKind::Ident("c".into()),
                TokenKind::NotEq,
                TokenKind::Number(2.0),
                TokenKind::OrOr,
                TokenKind::Not,
                TokenKind::Ident("d".into()),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("p1 % the waiting voters\n + 1"),
            vec![
                TokenKind::Ident("p1".into()),
                TokenKind::Plus,
                TokenKind::Number(1.0)
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = tokenize("ab\n  cd").unwrap();
        assert_eq!((toks[0].line, toks[0].column), (1, 1));
        assert_eq!((toks[1].line, toks[1].column), (2, 3));
    }

    #[test]
    fn paper_fig3_excerpt_tokenises() {
        let src = r#"
            \transition{t5}{
                \condition{p7 > MM-1}
                \action{
                    next->p3 = p3 + MM;
                    next->p7 = p7 - MM;
                }
                \weight{1.0}
                \priority{2}
                \sojourntimeLT{
                    return (0.8 * uniformLT(1.5,10,s)
                          + 0.2 * erlangLT(0.001,5,s));
                }
            }
        "#;
        let toks = tokenize(src).unwrap();
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Keyword("sojourntimeLT".into())));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident("erlangLT".into())));
    }

    #[test]
    fn bad_character_reports_position() {
        let err = tokenize("p1 @ 2").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.column, 4);
        assert!(err.to_string().contains("unexpected character"));
    }

    #[test]
    fn lone_backslash_is_an_error() {
        assert!(tokenize("\\ {").is_err());
    }
}
