//! The "familiar equivalences" of §2 — classical reorderings that still
//! hold over ordered sequences — used as cleanup rules around the
//! unnesting rewrites, and property-tested in `tests/classic_laws.rs`.
//!
//! §2 lists: selection commutation, selection pushdown through ×/⋈/⋉/⟕
//! (left or right, subject to the usual `F(p) ∩ A(other) = ∅`
//! restrictions), and associativity of × and ⋈. It also notes what does
//! *not* hold in the ordered context: neither × nor ⋈ is commutative.

use nal::expr::attrs::attr_set;
use nal::{Expr, Scalar};

/// `σ_{p1}(σ_{p2}(e)) = σ_{p2}(σ_{p1}(e))` — selections commute.
pub fn commute_selections(expr: &Expr) -> Option<Expr> {
    let Expr::Select { input, pred: p1 } = expr else {
        return None;
    };
    let Expr::Select {
        input: inner,
        pred: p2,
    } = input.as_ref()
    else {
        return None;
    };
    Some(Expr::Select {
        input: Box::new(Expr::Select {
            input: inner.clone(),
            pred: p1.clone(),
        }),
        pred: p2.clone(),
    })
}

/// Push an outer selection into the matching side of a product/join:
/// `σ_p(e1 × e2) = σ_p(e1) × e2` when `F(p) ∩ A(e2) = ∅`, and the
/// analogous right-hand, join, semijoin, and outer-join cases of §2.
pub fn push_selection(expr: &Expr) -> Option<Expr> {
    let Expr::Select { input, pred } = expr else {
        return None;
    };
    if pred.has_nested_expr() {
        return None; // nested predicates are the rewriter's business
    }
    let refs = pred.free_attrs();
    match input.as_ref() {
        Expr::Cross { left, right } => {
            let (a_l, a_r) = (attr_set(left), attr_set(right));
            if refs.iter().all(|a| a_l.contains(a)) {
                Some(Expr::Cross {
                    left: Box::new(select(left, pred)),
                    right: right.clone(),
                })
            } else if refs.iter().all(|a| a_r.contains(a)) {
                Some(Expr::Cross {
                    left: left.clone(),
                    right: Box::new(select(right, pred)),
                })
            } else {
                None
            }
        }
        Expr::Join {
            left,
            right,
            pred: jp,
        } => {
            let (a_l, a_r) = (attr_set(left), attr_set(right));
            if refs.iter().all(|a| a_l.contains(a)) {
                Some(Expr::Join {
                    left: Box::new(select(left, pred)),
                    right: right.clone(),
                    pred: jp.clone(),
                })
            } else if refs.iter().all(|a| a_r.contains(a)) {
                Some(Expr::Join {
                    left: left.clone(),
                    right: Box::new(select(right, pred)),
                    pred: jp.clone(),
                })
            } else {
                None
            }
        }
        // σ_{p1}(e1 ⋉_{p2} e2) = σ_{p1}(e1) ⋉_{p2} e2 — left only.
        Expr::SemiJoin {
            left,
            right,
            pred: jp,
        } => {
            let a_l = attr_set(left);
            refs.iter()
                .all(|a| a_l.contains(a))
                .then(|| Expr::SemiJoin {
                    left: Box::new(select(left, pred)),
                    right: right.clone(),
                    pred: jp.clone(),
                })
        }
        Expr::AntiJoin {
            left,
            right,
            pred: jp,
        } => {
            let a_l = attr_set(left);
            refs.iter()
                .all(|a| a_l.contains(a))
                .then(|| Expr::AntiJoin {
                    left: Box::new(select(left, pred)),
                    right: right.clone(),
                    pred: jp.clone(),
                })
        }
        // σ_{p1}(e1 ⟕ e2) = σ_{p1}(e1) ⟕ e2 — left only (right tuples may
        // be NULL-padded).
        Expr::OuterJoin {
            left,
            right,
            pred: jp,
            g,
            default,
        } => {
            let a_l = attr_set(left);
            refs.iter()
                .all(|a| a_l.contains(a))
                .then(|| Expr::OuterJoin {
                    left: Box::new(select(left, pred)),
                    right: right.clone(),
                    pred: jp.clone(),
                    g: *g,
                    default: default.clone(),
                })
        }
        _ => None,
    }
}

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

/// `e1 × (e2 × e3) = (e1 × e2) × e3` — associativity (held in the ordered
/// context, unlike commutativity).
pub fn associate_cross(expr: &Expr) -> Option<Expr> {
    let Expr::Cross { left: e1, right } = expr else {
        return None;
    };
    let Expr::Cross {
        left: e2,
        right: e3,
    } = right.as_ref()
    else {
        return None;
    };
    Some(Expr::Cross {
        left: Box::new(Expr::Cross {
            left: e1.clone(),
            right: e2.clone(),
        }),
        right: e3.clone(),
    })
}

fn select(e: &Expr, pred: &Scalar) -> Expr {
    Expr::Select {
        input: Box::new(e.clone()),
        pred: pred.clone(),
    }
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
    fn pushes_left_and_right_through_cross() {
        let p_l = Scalar::cmp(CmpOp::Gt, Scalar::attr("a"), Scalar::int(0));
        let e = l().cross(r()).select(p_l);
        let pushed = push_selection(&e).unwrap();
        let Expr::Cross { left, .. } = &pushed else {
            panic!()
        };
        assert!(matches!(**left, Expr::Select { .. }));

        let p_r = Scalar::cmp(CmpOp::Gt, Scalar::attr("b"), Scalar::int(0));
        let e = l().cross(r()).select(p_r);
        let pushed = push_selection(&e).unwrap();
        let Expr::Cross { right, .. } = &pushed else {
            panic!()
        };
        assert!(matches!(**right, Expr::Select { .. }));
    }

    #[test]
    fn does_not_push_mixed_predicates() {
        let p = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
        let e = l().cross(r()).select(p);
        assert!(push_selection(&e).is_none());
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

    #[test]
    fn cross_associativity_shape() {
        let e = l().cross(r().cross(singleton().map("c", Scalar::int(3))));
        let assoc = associate_cross(&e).unwrap();
        let Expr::Cross { left, .. } = &assoc else {
            panic!()
        };
        assert!(matches!(**left, Expr::Cross { .. }));
    }

    #[test]
    fn selections_commute_shape() {
        let e = l()
            .select(Scalar::cmp(CmpOp::Gt, Scalar::attr("a"), Scalar::int(0)))
            .select(Scalar::cmp(CmpOp::Lt, Scalar::attr("a"), Scalar::int(9)));
        let swapped = commute_selections(&e).unwrap();
        let Expr::Select { pred, .. } = &swapped else {
            panic!()
        };
        assert_eq!(
            *pred,
            Scalar::cmp(CmpOp::Gt, Scalar::attr("a"), Scalar::int(0))
        );
    }
}
