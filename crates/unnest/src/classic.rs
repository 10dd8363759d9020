//! The "familiar equivalences" of §2 — classical reorderings that still
//! hold over ordered sequences. The rewriter uses one of them, the push
//! of right-only join conjuncts into the right operand (§5.5); the laws
//! themselves — selection commutation, selection pushdown through
//! ×/⋈/⋉/⟕, associativity of × and ⋈, and the non-commutativity of ×
//! and ⋈ — are property-tested against the reference evaluator in
//! `tests/classic_laws.rs`.

use nal::expr::attrs::attr_set;
use nal::{Expr, Scalar};

/// Move join-predicate conjuncts that reference only the right operand
/// into a selection on the right operand — `e1 ⋉_{q∧p} e2 = e1 ⋉_q σ_p(e2)`
/// and the ▷ analog (§5.5: "we can push the second part of the join
/// predicate into its second operand").
pub fn push_pred_into_right(expr: &Expr) -> Option<Expr> {
    type Rebuild = fn(Box<Expr>, Box<Expr>, Scalar) -> Expr;
    let (left, right, pred, rebuild): (_, _, _, Rebuild) = match expr {
        Expr::SemiJoin { left, right, pred } => (left, right, pred, |l, r, p| Expr::SemiJoin {
            left: l,
            right: r,
            pred: p,
        }),
        Expr::AntiJoin { left, right, pred } => (left, right, pred, |l, r, p| Expr::AntiJoin {
            left: l,
            right: r,
            pred: p,
        }),
        Expr::Join { left, right, pred } => (left, right, pred, |l, r, p| Expr::Join {
            left: l,
            right: r,
            pred: p,
        }),
        _ => return None,
    };
    let a_r = attr_set(right);
    // Partition by reference; nothing is copied unless the rule fires.
    let (push, keep): (Vec<&Scalar>, Vec<&Scalar>) = pred.conjuncts().into_iter().partition(|c| {
        let refs = c.free_attrs();
        !refs.is_empty() && refs.iter().all(|a| a_r.contains(a)) && !c.has_nested_expr()
    });
    if push.is_empty() || keep.is_empty() {
        return None; // nothing to push, or nothing would remain
    }
    let new_right = Expr::Select {
        input: right.clone(),
        pred: Scalar::conjoin(push.into_iter().cloned().collect()),
    };
    Some(rebuild(
        left.clone(),
        Box::new(new_right),
        Scalar::conjoin(keep.into_iter().cloned().collect()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::CmpOp;

    fn l() -> Expr {
        singleton().map("a", Scalar::int(1))
    }

    fn r() -> Expr {
        singleton().map("b", Scalar::int(2))
    }

    #[test]
    fn semijoin_right_pushdown_splits_conjuncts() {
        let pred = Scalar::attr_cmp(CmpOp::Eq, "a", "b").and(Scalar::cmp(
            CmpOp::Lt,
            Scalar::attr("b"),
            Scalar::int(10),
        ));
        let e = l().semijoin(r(), pred);
        let pushed = push_pred_into_right(&e).unwrap();
        let Expr::SemiJoin { right, pred, .. } = &pushed else {
            panic!()
        };
        assert!(matches!(**right, Expr::Select { .. }));
        assert_eq!(*pred, Scalar::attr_cmp(CmpOp::Eq, "a", "b"));
    }

    #[test]
    fn no_push_when_all_or_none_pushable() {
        // Entirely right-only predicate: pushing would leave an empty join
        // predicate — decline.
        let pred = Scalar::cmp(CmpOp::Lt, Scalar::attr("b"), Scalar::int(10));
        assert!(push_pred_into_right(&l().semijoin(r(), pred)).is_none());
        let pred = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
        assert!(push_pred_into_right(&l().semijoin(r(), pred)).is_none());
    }
}
