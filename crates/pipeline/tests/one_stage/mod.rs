//! The one-stage net: the smallest model whose passage transform is one
//! holding time's.  A token moves `a → b` on transition `ab` and back on
//! `ba` (an `expLT(1.0, s)` sojourn); the passage from the initial marking
//! into `b>=1` is one firing of `ab`, so its transform is the LST of `ab`'s
//! sojourn.
//!
//! The crate's unit tests and its integration tests include this file as a
//! module whose parent names `ModelSpec`, `TargetSpec` and `TransformSpec`.

use super::{ModelSpec, TargetSpec, TransformSpec};

/// The one-stage net whose transition `ab` carries `ab`: its `\weight`
/// and `\sojourntimeLT` clauses.
pub fn net(ab: &str) -> ModelSpec {
    ModelSpec::Dnamaca(format!(
        r"\place{{a}}{{1}} \place{{b}}{{0}}
          \transition{{ab}}{{ \condition{{a > 0}} \action{{ next->a = a - 1; next->b = b + 1; }}
              {ab} }}
          \transition{{ba}}{{ \condition{{b > 0}} \action{{ next->b = b - 1; next->a = a + 1; }}
              \sojourntimeLT{{ return expLT(1.0, s); }} }}"
    ))
}

/// The passage into `b>=1` of the one-stage net whose `ab` sojourn has the
/// transform `lst`, a DNAmaca expression in `s` such as
/// `erlangLT(2.0, 3, s)`.
pub fn passage(lst: &str) -> TransformSpec {
    TransformSpec::passage(
        net(&format!(r"\sojourntimeLT{{ return {lst}; }}")),
        TargetSpec::parse("b>=1").unwrap(),
    )
}
