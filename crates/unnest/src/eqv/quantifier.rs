//! Equivalences 6 and 7: quantifiers to semijoin / anti-join.

use nal::expr::attrs::attr_set;
use nal::{Expr, ProjOp, Scalar, Sym};

use crate::conditions::inner_independent;
use crate::eqv::pattern::{hoisted_preds, strip_selections};

/// Eqv. 6: `σ_{∃x∈(Π_{x'}(σ_q(e2))) p}(e1) = e1 ⋉_{q ∧ p'} e2`
/// where `p'` is `p` with `x` replaced by `x'`.
pub fn eqv6(expr: &Expr) -> Option<Expr> {
    rewrite_quantifier(expr, false)
}

/// Eqv. 7: `σ_{∀x∈(Π_{x'}(σ_q(e2))) p}(e1) = e1 ▷_{q ∧ ¬p'} e2`.
pub fn eqv7(expr: &Expr) -> Option<Expr> {
    rewrite_quantifier(expr, true)
}

fn rewrite_quantifier(expr: &Expr, universal: bool) -> Option<Expr> {
    let Expr::Select { input: e1, pred } = expr else {
        return None;
    };
    let (var, range, p) = match (pred, universal) {
        (Scalar::Exists { var, range, pred }, false) => (*var, range, pred),
        (Scalar::Forall { var, range, pred }, true) => (*var, range, pred),
        _ => return None,
    };
    // The range must have the shape Π_{x'}(σ_q(e2)) or Π_{x'}(e2).
    let Expr::Project {
        input: range_in,
        op,
    } = range.as_ref()
    else {
        return None;
    };
    let x_prime = match op {
        ProjOp::Cols(cols) if cols.len() == 1 => cols[0],
        _ => return None,
    };
    // Buried selections are hoisted to the top of the range pipeline
    // (translations put later `let` maps above the correlating σ): `q`
    // is their conjunction, `e2` the range without them. Both are only
    // built once every condition that can be read off the borrowed
    // range has passed.
    let q_parts = hoisted_preds(range_in);
    // Conditions: x' ∈ A(e2); e2 itself uncorrelated; q may reference
    // A(e1) ∪ A(e2) only; p may reference {x} ∪ A(e1) ∪ A(e2).
    let a1 = attr_set(e1);
    // σ neither adds nor removes attributes: A(range) is A(e2).
    let a2 = attr_set(range_in);
    if !a2.contains(&x_prime) {
        return None;
    }
    if a1.intersection(&a2).next().is_some() {
        return None;
    }
    let in_scope = |s: &Scalar, extra: Option<Sym>| {
        s.free_attrs()
            .into_iter()
            .all(|a| a1.contains(&a) || a2.contains(&a) || Some(a) == extra)
    };
    if q_parts
        .iter()
        .any(|q| !in_scope(q, None) || q.has_nested_expr())
    {
        return None;
    }
    if !in_scope(p, Some(var)) || p.has_nested_expr() {
        return None;
    }
    let e2 = strip_selections(range_in);
    if !inner_independent(&e2, e1) {
        return None;
    }
    let q = (!q_parts.is_empty()).then(|| Scalar::conjoin(q_parts.into_iter().cloned().collect()));
    // p' = p[x := x'].
    let p_prime = p.rename_attrs(&[(x_prime, var)]);
    let p_part = if universal { p_prime.not() } else { p_prime };
    let pred = match q {
        Some(q) => match is_trivially_true(&p_part) {
            true => q,
            false => q.and(p_part),
        },
        None => p_part,
    };
    let (left, right) = (e1.clone(), Box::new(e2));
    Some(if universal {
        Expr::AntiJoin { left, right, pred }
    } else {
        Expr::SemiJoin { left, right, pred }
    })
}

fn is_trivially_true(s: &Scalar) -> bool {
    matches!(s, Scalar::Const(nal::Value::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::{CmpOp, Tuple, Value};

    fn s(n: &str) -> Sym {
        Sym::new(n)
    }

    fn lit(rows: Vec<Vec<(&str, i64)>>) -> Expr {
        Expr::Literal(
            rows.into_iter()
                .map(|r| {
                    Tuple::from_pairs(r.into_iter().map(|(n, v)| (s(n), Value::Int(v))).collect())
                })
                .collect(),
        )
    }

    fn e1() -> Expr {
        lit(vec![vec![("t1", 1)], vec![("t1", 2)]])
    }

    fn e2() -> Expr {
        lit(vec![
            vec![("t3", 1), ("y3", 1990)],
            vec![("t3", 2), ("y3", 2000)],
        ])
    }

    #[test]
    fn eqv6_builds_semijoin() {
        // σ_{∃t2∈(Π_{t3}(σ_{t1=t3}(e2))) true}(e1)  →  e1 ⋉_{t1=t3} e2
        let expr = e1().select(Scalar::Exists {
            var: s("t2"),
            range: Box::new(
                e2().select(Scalar::attr_cmp(CmpOp::Eq, "t1", "t3"))
                    .project(&["t3"]),
            ),
            pred: Box::new(Scalar::Const(Value::Bool(true))),
        });
        let rewritten = eqv6(&expr).unwrap();
        let Expr::SemiJoin { pred, .. } = &rewritten else {
            panic!("expected ⋉, got {rewritten}")
        };
        assert_eq!(*pred, Scalar::attr_cmp(CmpOp::Eq, "t1", "t3"));
    }

    #[test]
    fn eqv6_substitutes_the_quantifier_variable() {
        // satisfies x > 5  →  predicate over x'.
        let expr = e1().select(Scalar::Exists {
            var: s("x"),
            range: Box::new(
                e2().select(Scalar::attr_cmp(CmpOp::Eq, "t1", "t3"))
                    .project(&["y3"]),
            ),
            pred: Box::new(Scalar::cmp(CmpOp::Gt, Scalar::attr("x"), Scalar::int(1995))),
        });
        let rewritten = eqv6(&expr).unwrap();
        let Expr::SemiJoin { pred, .. } = &rewritten else {
            panic!()
        };
        let printed = pred.to_string();
        assert!(printed.contains("y3 > 1995"), "{printed}");
        assert!(!printed.contains("x >"), "{printed}");
    }

    #[test]
    fn eqv7_negates_the_satisfies_predicate() {
        // every y2 in (range) satisfies y2 > 1993  →  ▷ with y3 <= 1993.
        let expr = e1().select(Scalar::Forall {
            var: s("y2"),
            range: Box::new(
                e2().select(Scalar::attr_cmp(CmpOp::Eq, "t1", "t3"))
                    .project(&["y3"]),
            ),
            pred: Box::new(Scalar::cmp(
                CmpOp::Gt,
                Scalar::attr("y2"),
                Scalar::int(1993),
            )),
        });
        let rewritten = eqv7(&expr).unwrap();
        let Expr::AntiJoin { pred, .. } = &rewritten else {
            panic!("expected ▷, got {rewritten}")
        };
        let printed = pred.to_string();
        assert!(printed.contains("y3 <= 1993"), "{printed}");
    }

    #[test]
    fn declines_on_correlated_inner_or_shape_mismatch() {
        // Range that is not a single-column projection.
        let expr = e1().select(Scalar::Exists {
            var: s("x"),
            range: Box::new(e2()),
            pred: Box::new(Scalar::Const(Value::Bool(true))),
        });
        assert!(eqv6(&expr).is_none());
        // e2 referencing e1's attributes outside the extracted predicate
        // (correlated map) — must decline.
        let correlated = singleton().map("t3", Scalar::attr("t1")).project(&["t3"]);
        let expr = e1().select(Scalar::Exists {
            var: s("x"),
            range: Box::new(correlated),
            pred: Box::new(Scalar::Const(Value::Bool(true))),
        });
        assert!(eqv6(&expr).is_none());
    }
}
