//! Evaluation of parsed expressions against a marking.
//!
//! Conditions, weights, priorities, initial markings and distribution parameters are
//! all arithmetic expressions over numbers, named constants and place identifiers
//! (which evaluate to the place's current token count).  Booleans are represented as
//! 0.0 / 1.0, matching the permissive style of the original DNAmaca language.

use crate::ast::{BinOp, DistExpr, Expr};
use smp_distributions::Dist;
use smp_smspn::Marking;
use std::collections::HashMap;

/// The evaluation environment: constant values and the place-name → index map.
#[derive(Debug, Clone, Default)]
pub struct Environment {
    constants: HashMap<String, f64>,
    places: HashMap<String, usize>,
}

impl Environment {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Environment::default()
    }

    /// Defines (or redefines) a constant.
    pub fn define_constant(&mut self, name: impl Into<String>, value: f64) {
        self.constants.insert(name.into(), value);
    }

    /// Registers a place name at the given marking index.
    pub fn define_place(&mut self, name: impl Into<String>, index: usize) {
        self.places.insert(name.into(), index);
    }

    /// Looks up a place index by name.
    pub fn place_index(&self, name: &str) -> Option<usize> {
        self.places.get(name).copied()
    }

    /// Number of registered places.
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Evaluates an expression against a marking.
    ///
    /// `marking` may be `None` in marking-free contexts (constant definitions and
    /// initial-marking expressions); referencing a place there is an error.
    pub fn eval(&self, expr: &Expr, marking: Option<&Marking>) -> Result<f64, String> {
        match expr {
            Expr::Number(n) => Ok(*n),
            Expr::Ident(name) => {
                if let Some(value) = self.constants.get(name) {
                    return Ok(*value);
                }
                if let Some(&index) = self.places.get(name) {
                    return match marking {
                        Some(m) => Ok(m.get(index) as f64),
                        None => Err(format!(
                            "place '{name}' referenced in a context without a marking"
                        )),
                    };
                }
                Err(format!("unknown identifier '{name}'"))
            }
            Expr::Neg(inner) => Ok(-self.eval(inner, marking)?),
            Expr::Not(inner) => Ok(if self.eval(inner, marking)? != 0.0 {
                0.0
            } else {
                1.0
            }),
            Expr::Call { name, args } => match name.as_str() {
                "min" | "max" => {
                    if args.is_empty() {
                        return Err(format!("{name}() needs at least one argument"));
                    }
                    let mut values = Vec::with_capacity(args.len());
                    for a in args {
                        values.push(self.eval(a, marking)?);
                    }
                    Ok(values
                        .into_iter()
                        .reduce(|a, b| if name == "min" { a.min(b) } else { a.max(b) })
                        .expect("non-empty"))
                }
                other => Err(format!(
                    "function '{other}' is not available in arithmetic expressions"
                )),
            },
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, marking)?;
                let r = self.eval(rhs, marking)?;
                Ok(match op {
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
                })
            }
        }
    }

    /// True when the value of `expr` depends on the marking: it names a place
    /// that no constant shadows.
    fn reads_marking(&self, expr: &Expr) -> bool {
        match expr {
            Expr::Number(_) => false,
            Expr::Ident(name) => {
                !self.constants.contains_key(name) && self.places.contains_key(name)
            }
            Expr::Neg(inner) | Expr::Not(inner) => self.reads_marking(inner),
            Expr::Call { args, .. } => args.iter().any(|a| self.reads_marking(a)),
            Expr::Binary { lhs, rhs, .. } => self.reads_marking(lhs) || self.reads_marking(rhs),
        }
    }

    /// True when some parameter or mixture weight of `expr` depends on the
    /// marking; otherwise `expr` is one distribution in every marking.
    pub(crate) fn dist_reads_marking(&self, expr: &DistExpr) -> bool {
        match expr {
            DistExpr::Call { args, .. } => args.iter().any(|a| self.reads_marking(a)),
            DistExpr::Sum(branches) => branches
                .iter()
                .any(|(w, d)| self.reads_marking(w) || self.dist_reads_marking(d)),
            DistExpr::Product(factors) => factors.iter().any(|f| self.dist_reads_marking(f)),
        }
    }

    /// Evaluates an expression as a boolean.
    pub fn eval_bool(&self, expr: &Expr, marking: Option<&Marking>) -> Result<bool, String> {
        Ok(self.eval(expr, marking)? != 0.0)
    }

    /// Builds a concrete distribution from a distribution expression, evaluating
    /// every parameter against the marking (so distributions can be
    /// marking-dependent).
    pub fn eval_dist(&self, expr: &DistExpr, marking: Option<&Marking>) -> Result<Dist, String> {
        match expr {
            DistExpr::Call { name, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, marking)?);
                }
                build_primitive(name, &values)
            }
            DistExpr::Sum(branches) => {
                let mut parts = Vec::with_capacity(branches.len());
                for (weight_expr, dist_expr) in branches {
                    let w = self.eval(weight_expr, marking)?;
                    parts.push((w, self.eval_dist(dist_expr, marking)?));
                }
                Dist::Mixture(parts).checked()
            }
            DistExpr::Product(factors) => {
                let mut parts = Vec::with_capacity(factors.len());
                for f in factors {
                    parts.push(self.eval_dist(f, marking)?);
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

    fn env() -> Environment {
        let mut e = Environment::new();
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

    #[test]
    fn arithmetic_and_identifiers() {
        let e = env();
        let m = Marking::new(vec![2, 5]);
        assert_eq!(e.eval(&expr_of("p3 + p7 * 2"), Some(&m)).unwrap(), 12.0);
        assert_eq!(e.eval(&expr_of("MM - 1"), Some(&m)).unwrap(), 5.0);
        assert_eq!(e.eval(&expr_of("(p7 - p3) / 3"), Some(&m)).unwrap(), 1.0);
        assert_eq!(e.eval(&expr_of("-p3"), Some(&m)).unwrap(), -2.0);
        assert_eq!(e.eval(&expr_of("min(p3, p7, 1)"), Some(&m)).unwrap(), 1.0);
        assert_eq!(e.eval(&expr_of("max(p3, p7)"), Some(&m)).unwrap(), 5.0);
    }

    #[test]
    fn comparisons_and_logic() {
        let e = env();
        let m = Marking::new(vec![2, 6]);
        assert!(e.eval_bool(&expr_of("p7 > MM - 1"), Some(&m)).unwrap());
        assert!(!e.eval_bool(&expr_of("p7 < MM"), Some(&m)).unwrap());
        assert!(e
            .eval_bool(&expr_of("p3 == 2 && p7 >= 6"), Some(&m))
            .unwrap());
        assert!(e
            .eval_bool(&expr_of("p3 == 0 || p7 != 0"), Some(&m))
            .unwrap());
        assert!(e.eval_bool(&expr_of("!(p3 == 0)"), Some(&m)).unwrap());
    }

    #[test]
    fn errors_for_unknowns_and_missing_marking() {
        let e = env();
        let m = Marking::new(vec![0, 0]);
        assert!(e.eval(&expr_of("nonexistent"), Some(&m)).is_err());
        assert!(e.eval(&expr_of("p3"), None).is_err());
        assert!(e.eval(&expr_of("1 / 0"), Some(&m)).is_err());
        assert!(e.eval(&expr_of("sqrt(2)"), Some(&m)).is_err());
    }

    #[test]
    fn dist_expression_builds_paper_mixture() {
        let e = env();
        let model = parse(
            "\\transition{t5}{ \\sojourntimeLT{ return (0.8 * uniformLT(1.5,10,s) + 0.2 * erlangLT(0.001,5,s)); } }",
        )
        .unwrap();
        let dist = e
            .eval_dist(model.transitions[0].sojourn.as_ref().unwrap(), None)
            .unwrap();
        let expect = Dist::mixture(vec![
            (0.8, Dist::uniform(1.5, 10.0)),
            (0.2, Dist::erlang(0.001, 5)),
        ]);
        assert_eq!(dist, expect);
    }

    #[test]
    fn marking_dependent_distribution_parameters() {
        let e = env();
        let model = parse("\\transition{t}{ \\sojourntimeLT{ erlangLT(2.0, p7, s) } }").unwrap();
        let sojourn = model.transitions[0].sojourn.as_ref().unwrap();
        let m3 = Marking::new(vec![0, 3]);
        let m1 = Marking::new(vec![0, 1]);
        assert_eq!(
            e.eval_dist(sojourn, Some(&m3)).unwrap(),
            Dist::erlang(2.0, 3)
        );
        assert_eq!(
            e.eval_dist(sojourn, Some(&m1)).unwrap(),
            Dist::erlang(2.0, 1)
        );
        // A non-integer phase count is a semantic error.
        let bad = Marking::new(vec![0, 0]);
        assert!(e.eval_dist(sojourn, Some(&bad)).is_err());
    }

    #[test]
    fn convolution_distribution() {
        let e = env();
        let model =
            parse("\\transition{t}{ \\sojourntimeLT{ expLT(1.0,s) * detLT(2.0,s) } }").unwrap();
        let dist = e
            .eval_dist(model.transitions[0].sojourn.as_ref().unwrap(), None)
            .unwrap();
        assert_eq!(
            dist,
            Dist::convolution(vec![Dist::exponential(1.0), Dist::deterministic(2.0)])
        );
    }

    #[test]
    fn degenerate_sojourn_texts_are_errors_not_panics() {
        let e = env();
        for sojourn in [
            "return 0 * expLT(2.0, s);",
            "return expLT(1e400 - 1e400, s);",
            "return erlangLT(1e400 - 1e400, 2, s);",
            "return uniformLT(0, 1e400, s);",
        ] {
            let model = parse(&format!(
                "\\transition{{t}}{{ \\sojourntimeLT{{ {sojourn} }} }}"
            ))
            .unwrap();
            let sojourn_expr = model.transitions[0].sojourn.as_ref().unwrap();
            let built = e.eval_dist(sojourn_expr, None);
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
