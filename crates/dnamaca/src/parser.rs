//! Recursive-descent parser for the model language.

use crate::ast::{Assignment, BinOp, DistExpr, Expr, ModelAst, TransitionAst};
use crate::lexer::{tokenize, LexError, Token, TokenKind};
use std::fmt;

/// Errors produced while parsing a model.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A lexical error.
    Lex(LexError),
    /// A grammatical error with a position and description.
    Syntax {
        /// Description of what went wrong / what was expected.
        message: String,
        /// 1-based source line.
        line: usize,
        /// 1-based source column.
        column: usize,
    },
    /// The source ended unexpectedly.
    UnexpectedEof {
        /// What the parser was expecting.
        expected: String,
    },
    /// A structurally valid model that is semantically wrong (unknown place,
    /// unknown distribution constructor, scalar sojourn expression, ...).
    Semantic(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Syntax {
                message,
                line,
                column,
            } => write!(f, "syntax error at line {line}, column {column}: {message}"),
            ParseError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input (line ?): expected {expected}")
            }
            ParseError::Semantic(msg) => write!(f, "semantic error: {msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Distribution constructor names recognised inside `\sojourntimeLT{...}`.
pub(crate) const DIST_FUNCTIONS: &[&str] = &[
    "uniformLT",
    "erlangLT",
    "expLT",
    "exponentialLT",
    "detLT",
    "deterministicLT",
    "weibullLT",
    "immediateLT",
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn position(&self) -> (usize, usize) {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| (t.line, t.column))
            .unwrap_or((0, 0))
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        if self.pos >= self.tokens.len() {
            return ParseError::UnexpectedEof {
                expected: message.into(),
            };
        }
        let (line, column) = self.position();
        ParseError::Syntax {
            message: message.into(),
            line,
            column,
        }
    }

    fn next(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        match self.peek() {
            Some(k) if k == kind => {
                self.pos += 1;
                Ok(())
            }
            Some(k) => Err(self.error(format!("expected '{kind}', found '{k}'"))),
            None => Err(ParseError::UnexpectedEof {
                expected: kind.to_string(),
            }),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().cloned() {
            Some(TokenKind::Ident(name)) => {
                self.pos += 1;
                Ok(name)
            }
            Some(k) => Err(self.error(format!("expected an identifier, found '{k}'"))),
            None => Err(ParseError::UnexpectedEof {
                expected: "identifier".into(),
            }),
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    // ---- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat(&TokenKind::OrOr) {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_comparison()?;
        while self.eat(&TokenKind::AndAnd) {
            let rhs = self.parse_comparison()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_additive()?;
        let op = match self.peek() {
            Some(TokenKind::Greater) => Some(BinOp::Greater),
            Some(TokenKind::Less) => Some(BinOp::Less),
            Some(TokenKind::GreaterEq) => Some(BinOp::GreaterEq),
            Some(TokenKind::LessEq) => Some(BinOp::LessEq),
            Some(TokenKind::EqEq) => Some(BinOp::Eq),
            Some(TokenKind::NotEq) => Some(BinOp::NotEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.parse_additive()?;
            return Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&TokenKind::Minus) {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        if self.eat(&TokenKind::Not) {
            return Ok(Expr::Not(Box::new(self.parse_unary()?)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(TokenKind::Number(n)) => {
                self.pos += 1;
                Ok(Expr::Number(n))
            }
            Some(TokenKind::Ident(name)) => {
                self.pos += 1;
                if self.peek() == Some(&TokenKind::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    return Ok(Expr::Call { name, args });
                }
                Ok(Expr::Ident(name))
            }
            Some(TokenKind::LParen) => {
                self.pos += 1;
                let inner = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            Some(other) => Err(self.error(format!("expected an expression, found '{other}'"))),
            None => Err(ParseError::UnexpectedEof {
                expected: "expression".into(),
            }),
        }
    }

    // ---- blocks ----------------------------------------------------------

    /// Parses `{ expr }`.
    fn parse_braced_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let e = self.parse_expr()?;
        self.expect(&TokenKind::RBrace)?;
        Ok(e)
    }

    /// Parses `{ (next->place = expr ;)* }`.
    fn parse_action_block(&mut self) -> Result<Vec<Assignment>, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let mut assignments = Vec::new();
        while self.peek() != Some(&TokenKind::RBrace) {
            let keyword = self.expect_ident()?;
            if keyword != "next" {
                return Err(self.error(format!(
                    "action statements must start with 'next->', found '{keyword}'"
                )));
            }
            self.expect(&TokenKind::Arrow)?;
            let place = self.expect_ident()?;
            self.expect(&TokenKind::Assign)?;
            let value = self.parse_expr()?;
            self.expect(&TokenKind::Semicolon)?;
            assignments.push(Assignment { place, value });
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(assignments)
    }

    /// Parses `{ [return] dist-expr [;] }`.
    fn parse_sojourn_block(&mut self) -> Result<DistExpr, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        // Optional `return` keyword, as in the paper's Fig. 3.
        if let Some(TokenKind::Ident(word)) = self.peek() {
            if word == "return" {
                self.pos += 1;
            }
        }
        let expr = self.parse_expr()?;
        let _ = self.eat(&TokenKind::Semicolon);
        self.expect(&TokenKind::RBrace)?;
        dist_from_expr(&expr).map_err(ParseError::Semantic)
    }

    fn parse_transition(&mut self) -> Result<TransitionAst, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let name = self.expect_ident()?;
        self.expect(&TokenKind::RBrace)?;
        self.expect(&TokenKind::LBrace)?;
        let mut transition = TransitionAst {
            name,
            condition: None,
            action: Vec::new(),
            weight: None,
            priority: None,
            sojourn: None,
        };
        while self.peek() != Some(&TokenKind::RBrace) {
            match self.next() {
                Some(TokenKind::Keyword(kw)) => match kw.as_str() {
                    "condition" => transition.condition = Some(self.parse_braced_expr()?),
                    "action" => transition.action = self.parse_action_block()?,
                    "weight" => transition.weight = Some(self.parse_braced_expr()?),
                    "priority" => transition.priority = Some(self.parse_braced_expr()?),
                    "sojourntimeLT" => transition.sojourn = Some(self.parse_sojourn_block()?),
                    other => {
                        self.pos -= 1;
                        return Err(self.error(format!("unknown transition attribute '\\{other}'")));
                    }
                },
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.error("expected a '\\attribute' inside the transition block"));
                }
            }
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(transition)
    }
}

/// Intermediate result while converting an arithmetic expression tree into a
/// distribution expression.
enum Converted {
    Scalar(Expr),
    Dist { weight: Expr, dist: DistExpr },
}

fn mul_exprs(a: Expr, b: Expr) -> Expr {
    // Constant-fold the common cases so that weights like `0.8 × 1` stay as the
    // literal `0.8` (this keeps the AST readable and lets `dist_from_expr` detect
    // unit weights).
    match (&a, &b) {
        (Expr::Number(x), _) if *x == 1.0 => b,
        (_, Expr::Number(y)) if *y == 1.0 => a,
        (Expr::Number(x), Expr::Number(y)) => Expr::Number(x * y),
        _ => Expr::Binary {
            op: BinOp::Mul,
            lhs: Box::new(a),
            rhs: Box::new(b),
        },
    }
}

fn convert(expr: &Expr) -> Result<Converted, String> {
    match expr {
        Expr::Number(_) | Expr::Ident(_) | Expr::Neg(_) | Expr::Not(_) => {
            Ok(Converted::Scalar(expr.clone()))
        }
        Expr::Call { name, args } => {
            if DIST_FUNCTIONS.contains(&name.as_str()) {
                // Drop a trailing bare `s` argument (the Laplace variable in the
                // DNAmaca syntax).
                let mut args = args.clone();
                if let Some(Expr::Ident(last)) = args.last() {
                    if last == "s" {
                        args.pop();
                    }
                }
                Ok(Converted::Dist {
                    weight: Expr::Number(1.0),
                    dist: DistExpr::Call {
                        name: name.clone(),
                        args,
                    },
                })
            } else {
                Err(format!(
                    "unknown distribution constructor '{name}' (expected one of {DIST_FUNCTIONS:?})"
                ))
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = convert(lhs)?;
            let r = convert(rhs)?;
            match op {
                BinOp::Add => {
                    let mut branches = Vec::new();
                    for part in [l, r] {
                        match part {
                            Converted::Dist { weight, dist } => match dist {
                                DistExpr::Sum(inner) => {
                                    // Distribute the outer weight over an inner sum.
                                    for (w, d) in inner {
                                        branches.push((mul_exprs(weight.clone(), w), d));
                                    }
                                }
                                other => branches.push((weight, other)),
                            },
                            Converted::Scalar(_) => {
                                return Err(
                                    "cannot add a bare number to a distribution in \\sojourntimeLT"
                                        .into(),
                                )
                            }
                        }
                    }
                    Ok(Converted::Dist {
                        weight: Expr::Number(1.0),
                        dist: DistExpr::Sum(branches),
                    })
                }
                BinOp::Mul => match (l, r) {
                    (Converted::Scalar(a), Converted::Scalar(b)) => {
                        Ok(Converted::Scalar(mul_exprs(a, b)))
                    }
                    (Converted::Scalar(a), Converted::Dist { weight, dist })
                    | (Converted::Dist { weight, dist }, Converted::Scalar(a)) => {
                        Ok(Converted::Dist {
                            weight: mul_exprs(a, weight),
                            dist,
                        })
                    }
                    (
                        Converted::Dist {
                            weight: w1,
                            dist: d1,
                        },
                        Converted::Dist {
                            weight: w2,
                            dist: d2,
                        },
                    ) => Ok(Converted::Dist {
                        weight: mul_exprs(w1, w2),
                        dist: DistExpr::Product(vec![d1, d2]),
                    }),
                },
                _ => {
                    // Any other operator only makes sense between scalars.
                    match (l, r) {
                        (Converted::Scalar(_), Converted::Scalar(_)) => {
                            Ok(Converted::Scalar(expr.clone()))
                        }
                        _ => Err(format!(
                            "operator '{op:?}' cannot be applied to distributions in \\sojourntimeLT"
                        )),
                    }
                }
            }
        }
    }
}

/// Converts a parsed arithmetic expression into a distribution expression,
/// interpreting `+` as probabilistic mixture and `*` as scaling / convolution.
pub(crate) fn dist_from_expr(expr: &Expr) -> Result<DistExpr, String> {
    match convert(expr)? {
        Converted::Dist { weight, dist } => {
            if weight == Expr::Number(1.0) {
                Ok(dist)
            } else {
                Ok(DistExpr::Sum(vec![(weight, dist)]))
            }
        }
        Converted::Scalar(_) => {
            Err("\\sojourntimeLT must contain at least one distribution call".into())
        }
    }
}

/// Parses a complete model source text into its AST.
pub fn parse(source: &str) -> Result<ModelAst, ParseError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut model = ModelAst::default();
    while let Some(kind) = parser.peek().cloned() {
        match kind {
            TokenKind::Keyword(kw) => {
                parser.pos += 1;
                match kw.as_str() {
                    "constant" => {
                        parser.expect(&TokenKind::LBrace)?;
                        let name = parser.expect_ident()?;
                        parser.expect(&TokenKind::RBrace)?;
                        let value = parser.parse_braced_expr()?;
                        model.constants.push((name, value));
                    }
                    "place" => {
                        parser.expect(&TokenKind::LBrace)?;
                        let name = parser.expect_ident()?;
                        parser.expect(&TokenKind::RBrace)?;
                        let value = parser.parse_braced_expr()?;
                        model.places.push((name, value));
                    }
                    "transition" => {
                        let t = parser.parse_transition()?;
                        model.transitions.push(t);
                    }
                    other => {
                        parser.pos -= 1;
                        return Err(parser.error(format!("unknown top-level keyword '\\{other}'")));
                    }
                }
            }
            other => {
                return Err(
                    parser.error(format!("expected a top-level '\\keyword', found '{other}'"))
                )
            }
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_constants_and_places() {
        let model = parse("\\constant{MM}{6} \\constant{RATE}{0.5} \\place{p3}{MM} \\place{p7}{0}")
            .unwrap();
        assert_eq!(model.constants.len(), 2);
        assert_eq!(model.places.len(), 2);
        assert_eq!(model.places[0].0, "p3");
        assert_eq!(model.places[0].1, Expr::Ident("MM".into()));
    }

    #[test]
    fn parses_paper_fig3_transition() {
        let src = r#"
            \constant{MM}{6}
            \place{p3}{0}
            \place{p7}{MM}
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
        let model = parse(src).unwrap();
        assert_eq!(model.transitions.len(), 1);
        let t = &model.transitions[0];
        assert_eq!(t.name, "t5");
        assert!(t.condition.is_some());
        assert_eq!(t.action.len(), 2);
        assert_eq!(t.action[0].place, "p3");
        assert_eq!(t.weight, Some(Expr::Number(1.0)));
        assert_eq!(t.priority, Some(Expr::Number(2.0)));
        match t.sojourn.as_ref().unwrap() {
            DistExpr::Sum(branches) => {
                assert_eq!(branches.len(), 2);
                assert_eq!(branches[0].0, Expr::Number(0.8));
                match &branches[0].1 {
                    DistExpr::Call { name, args } => {
                        assert_eq!(name, "uniformLT");
                        // The trailing `s` argument is dropped.
                        assert_eq!(args.len(), 2);
                    }
                    other => panic!("expected a call, got {other:?}"),
                }
            }
            other => panic!("expected a mixture, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence_in_conditions() {
        let model = parse(
            "\\place{p}{1} \\transition{t}{ \\condition{p + 1 * 2 > 3 && p < 5} \\sojourntimeLT{expLT(1,s)} }",
        )
        .unwrap();
        let cond = model.transitions[0].condition.clone().unwrap();
        // (p + (1*2)) > 3) && (p < 5)
        match cond {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                ..
            } => match *lhs {
                Expr::Binary {
                    op: BinOp::Greater,
                    lhs,
                    ..
                } => match *lhs {
                    Expr::Binary {
                        op: BinOp::Add,
                        rhs,
                        ..
                    } => {
                        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
                    }
                    other => panic!("expected addition, got {other:?}"),
                },
                other => panic!("expected comparison, got {other:?}"),
            },
            other => panic!("expected conjunction, got {other:?}"),
        }
    }

    #[test]
    fn convolution_via_product() {
        let model =
            parse("\\place{p}{1} \\transition{t}{ \\sojourntimeLT{ expLT(1,s) * detLT(2,s) } }")
                .unwrap();
        match model.transitions[0].sojourn.as_ref().unwrap() {
            DistExpr::Product(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected a product, got {other:?}"),
        }
    }

    #[test]
    fn scalar_sojourn_rejected() {
        let err = parse("\\place{p}{1} \\transition{t}{ \\sojourntimeLT{ 3.0 } }").unwrap_err();
        assert!(matches!(err, ParseError::Semantic(_)));
        assert!(err.to_string().contains("distribution"));
    }

    #[test]
    fn unknown_distribution_rejected() {
        let err = parse("\\place{p}{1} \\transition{t}{ \\sojourntimeLT{ paretoLT(1, 2, s) } }")
            .unwrap_err();
        assert!(err.to_string().contains("paretoLT"));
    }

    #[test]
    fn unknown_keyword_rejected() {
        let err = parse("\\jellyfish{x}{1}").unwrap_err();
        assert!(err.to_string().contains("jellyfish"));
    }

    #[test]
    fn unknown_transition_attribute_rejected() {
        let err = parse("\\transition{t}{ \\speed{3} }").unwrap_err();
        assert!(err.to_string().contains("speed"));
    }

    #[test]
    fn action_requires_next_arrow() {
        let err = parse("\\transition{t}{ \\action{ p = 1; } }").unwrap_err();
        assert!(err.to_string().contains("next"));
    }

    #[test]
    fn truncated_input_reports_eof() {
        let err = parse("\\transition{t}{ \\condition{p > ").unwrap_err();
        assert!(
            matches!(err, ParseError::UnexpectedEof { .. }) || err.to_string().contains("expected")
        );
    }

    #[test]
    fn marking_dependent_distribution_arguments() {
        let model =
            parse("\\place{q}{4} \\transition{serve}{ \\sojourntimeLT{ erlangLT(2.0, q, s) } }")
                .unwrap();
        match model.transitions[0].sojourn.as_ref().unwrap() {
            DistExpr::Call { name, args } => {
                assert_eq!(name, "erlangLT");
                assert_eq!(args[1], Expr::Ident("q".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
