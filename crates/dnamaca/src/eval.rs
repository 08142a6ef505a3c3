//! Resolution and evaluation of parsed expressions.
//!
//! Conditions, actions, weights, priorities, initial markings, constants and
//! distribution parameters are all arithmetic expressions over numbers, named
//! constants and place identifiers (which evaluate to the place's current token
//! count).  Booleans are represented as 0.0 / 1.0, matching the permissive style
//! of the original DNAmaca language.
//!
//! A [`Scope`] resolves each expression once, when the net is built: every
//! identifier becomes a constant's value or a place index (a constant shadows a
//! place of the same name), and every unknown name, misused function or
//! distribution constructor of the wrong arity is reported then.  The
//! [`Resolved`] tree is the only evaluator.  Nothing is folded: an evaluation
//! performs the same float operations in the same order as the source text, so
//! every value keeps its bits; it hashes no name and allocates nothing.

use crate::ast::{BinOp, DistExpr, Expr};
use smp_distributions::Dist;
use std::collections::HashMap;

/// The names an expression may use: constant values and the place-name →
/// index map.  Lookup only.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope {
    constants: HashMap<String, f64>,
    places: HashMap<String, usize>,
}

/// An arithmetic expression with every identifier resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum Resolved {
    /// A literal or a named constant's value.
    Const(f64),
    /// The token count of the place at this marking index.
    Place(usize),
    /// `-e`
    Neg(Box<Resolved>),
    /// `!e`
    Not(Box<Resolved>),
    /// `min(a, …)`: at least one argument, reduced left to right.
    Min(Vec<Resolved>),
    /// `max(a, …)`: at least one argument, reduced left to right.
    Max(Vec<Resolved>),
    /// A binary operation; both operands are always evaluated, left first.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Resolved>,
        /// Right operand.
        rhs: Box<Resolved>,
    },
}

/// A distribution expression with every parameter resolved.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ResolvedDist {
    /// A primitive constructor whose name and arity were checked.
    Call {
        /// Constructor name (`uniformLT`, `erlangLT`, `expLT`, …).
        name: String,
        /// At most two parameter expressions.
        args: Vec<Resolved>,
    },
    /// Weighted sum: a probabilistic mixture.
    Sum(Vec<(Resolved, ResolvedDist)>),
    /// Product: a convolution of independent delays.
    Product(Vec<ResolvedDist>),
}

impl Scope {
    /// Creates an empty scope.
    pub fn new() -> Self {
        Scope::default()
    }

    /// Defines (or redefines) a constant.
    pub(crate) fn define_constant(&mut self, name: impl Into<String>, value: f64) {
        self.constants.insert(name.into(), value);
    }

    /// Registers a place name at the given marking index.
    pub(crate) fn define_place(&mut self, name: impl Into<String>, index: usize) {
        self.places.insert(name.into(), index);
    }

    /// Looks up a place index by name.
    pub fn place_index(&self, name: &str) -> Option<usize> {
        self.places.get(name).copied()
    }

    /// Resolves an expression evaluated against a marking.
    pub fn resolve(&self, expr: &Expr) -> Result<Resolved, String> {
        self.resolve_in(expr, true)
    }

    /// Resolves an expression of a marking-free context (a constant
    /// definition or an initial marking), where naming a place is an error.
    pub(crate) fn resolve_constant(&self, expr: &Expr) -> Result<Resolved, String> {
        self.resolve_in(expr, false)
    }

    fn resolve_in(&self, expr: &Expr, marking: bool) -> Result<Resolved, String> {
        let sub = |e: &Expr| self.resolve_in(e, marking).map(Box::new);
        Ok(match expr {
            Expr::Number(n) => Resolved::Const(*n),
            Expr::Ident(name) => {
                if let Some(&value) = self.constants.get(name) {
                    Resolved::Const(value)
                } else if let Some(&index) = self.places.get(name) {
                    if !marking {
                        return Err(format!(
                            "place '{name}' referenced in a context without a marking"
                        ));
                    }
                    Resolved::Place(index)
                } else {
                    return Err(format!("unknown identifier '{name}'"));
                }
            }
            Expr::Neg(inner) => Resolved::Neg(sub(inner)?),
            Expr::Not(inner) => Resolved::Not(sub(inner)?),
            Expr::Call { name, args } => {
                let all = || {
                    args.iter()
                        .map(|a| self.resolve_in(a, marking))
                        .collect::<Result<Vec<_>, _>>()
                };
                match name.as_str() {
                    "min" | "max" if args.is_empty() => {
                        return Err(format!("{name}() needs at least one argument"))
                    }
                    "min" => Resolved::Min(all()?),
                    "max" => Resolved::Max(all()?),
                    other => {
                        return Err(format!(
                            "function '{other}' is not available in arithmetic expressions"
                        ))
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => Resolved::Binary {
                op: *op,
                lhs: sub(lhs)?,
                rhs: sub(rhs)?,
            },
        })
    }

    /// Resolves a distribution expression evaluated against a marking.
    pub(crate) fn resolve_dist(&self, expr: &DistExpr) -> Result<ResolvedDist, String> {
        Ok(match expr {
            DistExpr::Call { name, args } => {
                let arity = primitive_arity(name)
                    .ok_or_else(|| format!("unknown distribution constructor '{name}'"))?;
                if args.len() != arity {
                    return Err(format!(
                        "{name} expects {arity} argument(s), got {}",
                        args.len()
                    ));
                }
                ResolvedDist::Call {
                    name: name.clone(),
                    args: args
                        .iter()
                        .map(|a| self.resolve(a))
                        .collect::<Result<_, _>>()?,
                }
            }
            DistExpr::Sum(branches) => ResolvedDist::Sum(
                branches
                    .iter()
                    .map(|(w, d)| Ok((self.resolve(w)?, self.resolve_dist(d)?)))
                    .collect::<Result<_, String>>()?,
            ),
            DistExpr::Product(factors) => ResolvedDist::Product(
                factors
                    .iter()
                    .map(|f| self.resolve_dist(f))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }
}

impl Resolved {
    /// Evaluates against a marking's token counts (empty in a marking-free
    /// context, where no `Place` was resolved).
    pub(crate) fn eval(&self, tokens: &[u32]) -> Result<f64, String> {
        Ok(match self {
            Resolved::Const(value) => *value,
            Resolved::Place(index) => f64::from(tokens[*index]),
            Resolved::Neg(inner) => -inner.eval(tokens)?,
            Resolved::Not(inner) => bool_to_f64(inner.eval(tokens)? == 0.0),
            Resolved::Min(args) => fold(args, tokens, f64::min)?,
            Resolved::Max(args) => fold(args, tokens, f64::max)?,
            Resolved::Binary { op, lhs, rhs } => {
                let l = lhs.eval(tokens)?;
                let r = rhs.eval(tokens)?;
                match op {
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => {
                        if r == 0.0 {
                            return Err("division by zero".into());
                        }
                        l / r
                    }
                    BinOp::Greater => bool_to_f64(l > r),
                    BinOp::Less => bool_to_f64(l < r),
                    BinOp::GreaterEq => bool_to_f64(l >= r),
                    BinOp::LessEq => bool_to_f64(l <= r),
                    BinOp::Eq => bool_to_f64(l == r),
                    BinOp::NotEq => bool_to_f64(l != r),
                    BinOp::And => bool_to_f64(l != 0.0 && r != 0.0),
                    BinOp::Or => bool_to_f64(l != 0.0 || r != 0.0),
                }
            }
        })
    }

    /// Evaluates as a boolean (non-zero is true).
    pub(crate) fn eval_bool(&self, tokens: &[u32]) -> Result<bool, String> {
        Ok(self.eval(tokens)? != 0.0)
    }

    fn reads_marking(&self) -> bool {
        match self {
            Resolved::Const(_) => false,
            Resolved::Place(_) => true,
            Resolved::Neg(inner) | Resolved::Not(inner) => inner.reads_marking(),
            Resolved::Min(args) | Resolved::Max(args) => args.iter().any(Resolved::reads_marking),
            Resolved::Binary { lhs, rhs, .. } => lhs.reads_marking() || rhs.reads_marking(),
        }
    }
}

/// `args[0] ⊕ args[1] ⊕ …`, left to right (`args` is never empty).
fn fold(args: &[Resolved], tokens: &[u32], op: fn(f64, f64) -> f64) -> Result<f64, String> {
    let mut acc = args[0].eval(tokens)?;
    for a in &args[1..] {
        acc = op(acc, a.eval(tokens)?);
    }
    Ok(acc)
}

impl ResolvedDist {
    /// True when some parameter or mixture weight reads the marking;
    /// otherwise this is one distribution in every marking.
    pub(crate) fn reads_marking(&self) -> bool {
        match self {
            ResolvedDist::Call { args, .. } => args.iter().any(Resolved::reads_marking),
            ResolvedDist::Sum(branches) => branches
                .iter()
                .any(|(w, d)| w.reads_marking() || d.reads_marking()),
            ResolvedDist::Product(factors) => factors.iter().any(ResolvedDist::reads_marking),
        }
    }

    /// Builds the concrete distribution in a marking (token counts; empty
    /// when the expression reads no marking).
    pub(crate) fn eval(&self, tokens: &[u32]) -> Result<Dist, String> {
        match self {
            ResolvedDist::Call { name, args } => {
                let mut values = [0.0; 2];
                for (value, a) in values.iter_mut().zip(args) {
                    *value = a.eval(tokens)?;
                }
                build_primitive(name, &values[..args.len()])
            }
            ResolvedDist::Sum(branches) => {
                let mut parts = Vec::with_capacity(branches.len());
                for (weight, dist) in branches {
                    let w = weight.eval(tokens)?;
                    parts.push((w, dist.eval(tokens)?));
                }
                Dist::Mixture(parts).checked()
            }
            ResolvedDist::Product(factors) => {
                let mut parts = Vec::with_capacity(factors.len());
                for f in factors {
                    parts.push(f.eval(tokens)?);
                }
                Dist::Convolution(parts).checked()
            }
        }
    }
}

fn bool_to_f64(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// The parameter count of a primitive constructor, `None` for an unknown name.
fn primitive_arity(name: &str) -> Option<usize> {
    match name {
        "immediateLT" => Some(0),
        "expLT" | "exponentialLT" | "detLT" | "deterministicLT" => Some(1),
        "uniformLT" | "erlangLT" | "weibullLT" => Some(2),
        _ => None,
    }
}

/// Builds a primitive distribution from a constructor name and evaluated arguments.
fn build_primitive(name: &str, args: &[f64]) -> Result<Dist, String> {
    let check = |n: usize| -> Result<(), String> {
        if args.len() == n {
            Ok(())
        } else {
            Err(format!(
                "{name} expects {n} argument(s), got {}",
                args.len()
            ))
        }
    };
    let dist = match name {
        "uniformLT" => {
            check(2)?;
            Dist::Uniform {
                lower: args[0],
                upper: args[1],
            }
        }
        "erlangLT" => {
            check(2)?;
            let phases = args[1];
            if phases.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&phases) {
                return Err(format!(
                    "erlangLT phase count must be a whole number, got {phases}"
                ));
            }
            Dist::Erlang {
                rate: args[0],
                phases: phases as u32,
            }
        }
        "expLT" | "exponentialLT" => {
            check(1)?;
            Dist::Exponential { rate: args[0] }
        }
        "detLT" | "deterministicLT" => {
            check(1)?;
            Dist::Deterministic { value: args[0] }
        }
        "weibullLT" => {
            check(2)?;
            Dist::Weibull {
                shape: args[0],
                scale: args[1],
            }
        }
        "immediateLT" => {
            check(0)?;
            Dist::immediate()
        }
        other => return Err(format!("unknown distribution constructor '{other}'")),
    };
    dist.checked().map_err(|e| format!("{name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn scope() -> Scope {
        let mut e = Scope::new();
        e.define_constant("MM", 6.0);
        e.define_place("p3", 0);
        e.define_place("p7", 1);
        e
    }

    fn expr_of(src: &str) -> Expr {
        // Wrap in a condition so the full parser can be reused.
        let model = parse(&format!("\\transition{{t}}{{ \\condition{{{src}}} }}")).unwrap();
        model.transitions[0].condition.clone().unwrap()
    }

    fn eval(src: &str, tokens: &[u32]) -> Result<f64, String> {
        scope().resolve(&expr_of(src))?.eval(tokens)
    }

    fn sojourn_of(src: &str) -> DistExpr {
        let model = parse(&format!(
            "\\transition{{t}}{{ \\sojourntimeLT{{ {src} }} }}"
        ))
        .unwrap();
        model.transitions[0].sojourn.clone().unwrap()
    }

    #[test]
    fn arithmetic_and_identifiers() {
        let m = [2, 5];
        assert_eq!(eval("p3 + p7 * 2", &m), Ok(12.0));
        assert_eq!(eval("MM - 1", &m), Ok(5.0));
        assert_eq!(eval("(p7 - p3) / 3", &m), Ok(1.0));
        assert_eq!(eval("-p3", &m), Ok(-2.0));
        assert_eq!(eval("min(p3, p7, 1)", &m), Ok(1.0));
        assert_eq!(eval("max(p3, p7)", &m), Ok(5.0));
    }

    #[test]
    fn comparisons_and_logic() {
        let m = [2, 6];
        let holds = |src: &str| scope().resolve(&expr_of(src)).unwrap().eval_bool(&m);
        assert_eq!(holds("p7 > MM - 1"), Ok(true));
        assert_eq!(holds("p7 < MM"), Ok(false));
        assert_eq!(holds("p3 == 2 && p7 >= 6"), Ok(true));
        assert_eq!(holds("p3 == 0 || p7 != 0"), Ok(true));
        assert_eq!(holds("!(p3 == 0)"), Ok(true));
    }

    #[test]
    fn errors_for_unknowns_and_missing_marking() {
        let e = scope();
        // Caught once, when the net is built.
        assert!(e.resolve(&expr_of("nonexistent")).is_err());
        assert!(e.resolve_constant(&expr_of("p3")).is_err());
        assert!(e.resolve(&expr_of("sqrt(2)")).is_err());
        assert!(e.resolve(&expr_of("min()")).is_err());
        let mystery = DistExpr::Call {
            name: "mystery".into(),
            args: vec![Expr::Number(1.0)],
        };
        assert!(e.resolve_dist(&mystery).is_err());
        assert!(e.resolve_dist(&sojourn_of("expLT(1, 2, s)")).is_err());
        // Caught per marking.
        assert_eq!(eval("1 / p3", &[0, 0]), Err("division by zero".into()));
        assert_eq!(eval("1 / p3", &[4, 0]), Ok(0.25));
    }

    #[test]
    fn a_constant_shadows_a_place_of_the_same_name() {
        let mut e = scope();
        e.define_place("MM", 2);
        assert_eq!(e.resolve(&expr_of("MM")), Ok(Resolved::Const(6.0)));
        assert_eq!(e.resolve(&expr_of("p7")), Ok(Resolved::Place(1)));
    }

    #[test]
    fn dist_expression_builds_paper_mixture() {
        let sojourn = sojourn_of("return (0.8 * uniformLT(1.5,10,s) + 0.2 * erlangLT(0.001,5,s));");
        let resolved = scope().resolve_dist(&sojourn).unwrap();
        assert!(!resolved.reads_marking());
        let expect = Dist::mixture(vec![
            (0.8, Dist::uniform(1.5, 10.0)),
            (0.2, Dist::erlang(0.001, 5)),
        ]);
        assert_eq!(resolved.eval(&[]), Ok(expect));
    }

    #[test]
    fn marking_dependent_distribution_parameters() {
        let sojourn = scope()
            .resolve_dist(&sojourn_of("erlangLT(2.0, p7, s)"))
            .unwrap();
        assert!(sojourn.reads_marking());
        assert_eq!(sojourn.eval(&[0, 3]), Ok(Dist::erlang(2.0, 3)));
        assert_eq!(sojourn.eval(&[0, 1]), Ok(Dist::erlang(2.0, 1)));
        // A zero phase count makes no distribution.
        assert!(sojourn.eval(&[0, 0]).is_err());
    }

    #[test]
    fn convolution_distribution() {
        let sojourn = scope()
            .resolve_dist(&sojourn_of("expLT(1.0,s) * detLT(2.0,s)"))
            .unwrap();
        assert_eq!(
            sojourn.eval(&[]),
            Ok(Dist::convolution(vec![
                Dist::exponential(1.0),
                Dist::deterministic(2.0)
            ]))
        );
    }

    #[test]
    fn degenerate_sojourn_texts_are_errors_not_panics() {
        for sojourn in [
            "return 0 * expLT(2.0, s);",
            "return expLT(1e400 - 1e400, s);",
            "return erlangLT(1e400 - 1e400, 2, s);",
            "return uniformLT(0, 1e400, s);",
        ] {
            let resolved = scope().resolve_dist(&sojourn_of(sojourn)).unwrap();
            let built = resolved.eval(&[]);
            assert!(built.is_err(), "{sojourn} built {built:?}");
        }
    }

    #[test]
    fn primitive_argument_validation() {
        assert!(build_primitive("uniformLT", &[5.0, 1.0]).is_err());
        assert!(build_primitive("erlangLT", &[1.0, 2.5]).is_err());
        assert!(build_primitive("expLT", &[-1.0]).is_err());
        assert!(build_primitive("detLT", &[-0.1]).is_err());
        assert!(build_primitive("weibullLT", &[0.0, 1.0]).is_err());
        assert!(build_primitive("expLT", &[1.0, 2.0]).is_err());
        assert!(build_primitive("mystery", &[1.0]).is_err());
        assert_eq!(
            build_primitive("immediateLT", &[]).unwrap(),
            Dist::immediate()
        );
        assert_eq!(
            build_primitive("exponentialLT", &[2.0]).unwrap(),
            Dist::exponential(2.0)
        );
        assert_eq!(
            build_primitive("deterministicLT", &[1.5]).unwrap(),
            Dist::deterministic(1.5)
        );
        assert_eq!(
            build_primitive("weibullLT", &[2.0, 3.0]).unwrap(),
            Dist::weibull(2.0, 3.0)
        );
    }
}
