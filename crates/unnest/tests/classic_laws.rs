//! The "familiar equivalences" of §2, property-tested.
//!
//! The paper lists nine classical laws that *still hold* over ordered
//! sequences — selection commutation, selection pushdown through ×/⋈/⋉/⟕,
//! and associativity of × and ⋈ — and warns that commutativity of × and ⋈
//! does **not** hold. Both directions are checked here on random
//! relations, each side of a law written out: the laws as equalities
//! under the reference evaluator, the non-laws with concrete
//! counterexamples. The one law the rewriter applies,
//! `classic::push_pred_into_right`, is checked through that function.

use proptest::prelude::*;

use nal::{eval_query, CmpOp, EvalCtx, Expr, Scalar, Sym, Tuple, Value};
use unnest::classic;
use xmldb::Catalog;

fn s(n: &str) -> Sym {
    Sym::new(n)
}

fn rel(a: &str, b: &str, rows: &[(i64, i64)]) -> Expr {
    Expr::Literal(
        rows.iter()
            .map(|&(x, y)| Tuple::from_pairs(vec![(s(a), Value::Int(x)), (s(b), Value::Int(y))]))
            .collect(),
    )
    .project_syms(vec![s(a), s(b)])
}

fn eval(e: &Expr) -> Vec<Tuple> {
    let cat = Catalog::new();
    let mut ctx = EvalCtx::new(&cat);
    eval_query(e, &mut ctx).expect("evaluates")
}

fn assert_law(lhs: &Expr, rhs: &Expr) {
    assert_eq!(eval(lhs), eval(rhs), "law broken:\nlhs {lhs}\nrhs {rhs}");
}

fn rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..5, 0i64..30), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // σ_{p1}(σ_{p2}(e)) = σ_{p2}(σ_{p1}(e))
    #[test]
    fn selections_commute(r in rows(), k1 in 0i64..30, k2 in 0i64..30) {
        let p1 = Scalar::cmp(CmpOp::Gt, Scalar::attr("x"), Scalar::int(k1));
        let p2 = Scalar::cmp(CmpOp::Lt, Scalar::attr("x"), Scalar::int(k2));
        let e = rel("a", "x", &r);
        assert_law(
            &e.clone().select(p1.clone()).select(p2.clone()),
            &e.select(p2).select(p1),
        );
    }

    // σ_p(e1 × e2) = σ_p(e1) × e2   (and the right-side dual)
    #[test]
    fn selection_pushes_through_cross(l in rows(), r in rows(), k in 0i64..30, right_side in prop::bool::ANY) {
        let attr = if right_side { "y" } else { "x" };
        let p = Scalar::cmp(CmpOp::Ge, Scalar::attr(attr), Scalar::int(k));
        let (l, r) = (rel("a", "x", &l), rel("b", "y", &r));
        let pushed = match right_side {
            true => l.clone().cross(r.clone().select(p.clone())),
            false => l.clone().select(p.clone()).cross(r.clone()),
        };
        assert_law(&l.cross(r).select(p), &pushed);
    }

    // σ_{p1}(e1 ⋈_{p2} e2) = σ_{p1}(e1) ⋈_{p2} e2  (left and right)
    #[test]
    fn selection_pushes_through_join(l in rows(), r in rows(), k in 0i64..30, right_side in prop::bool::ANY) {
        let attr = if right_side { "y" } else { "x" };
        let p = Scalar::cmp(CmpOp::Lt, Scalar::attr(attr), Scalar::int(k));
        let on = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
        let (l, r) = (rel("a", "x", &l), rel("b", "y", &r));
        let pushed = match right_side {
            true => l.clone().join(r.clone().select(p.clone()), on.clone()),
            false => l.clone().select(p.clone()).join(r.clone(), on.clone()),
        };
        assert_law(&l.join(r, on).select(p), &pushed);
    }

    // σ_{p1}(e1 ⋉_{p2} e2) = σ_{p1}(e1) ⋉_{p2} e2
    #[test]
    fn selection_pushes_through_semijoin(l in rows(), r in rows(), k in 0i64..30) {
        let p = Scalar::cmp(CmpOp::Gt, Scalar::attr("x"), Scalar::int(k));
        let on = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
        let (l, r) = (rel("a", "x", &l), rel("b", "y", &r));
        assert_law(
            &l.clone().semijoin(r.clone(), on.clone()).select(p.clone()),
            &l.select(p).semijoin(r, on),
        );
    }

    // σ_{p1}(e1 ⟕ e2) = σ_{p1}(e1) ⟕ e2 (left only)
    #[test]
    fn selection_pushes_through_outer_join(l in rows(), r in rows(), k in 0i64..30) {
        let grouped = rel("b", "y", &r).group_unary("g", &["b"], CmpOp::Eq, nal::GroupFn::count());
        let p = Scalar::cmp(CmpOp::Le, Scalar::attr("x"), Scalar::int(k));
        let on = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
        let l = rel("a", "x", &l);
        assert_law(
            &l.clone().outerjoin(grouped.clone(), on.clone(), "g", Value::Int(0)).select(p.clone()),
            &l.select(p).outerjoin(grouped, on, "g", Value::Int(0)),
        );
    }

    // e1 × (e2 × e3) = (e1 × e2) × e3
    #[test]
    fn cross_is_associative(
        l in prop::collection::vec((0i64..3, 0i64..9), 0..5),
        m in prop::collection::vec((0i64..3, 0i64..9), 0..5),
        r in prop::collection::vec((0i64..3, 0i64..9), 0..5),
    ) {
        let (l, m, r) = (rel("a", "x", &l), rel("b", "y", &m), rel("c", "z", &r));
        assert_law(
            &l.clone().cross(m.clone().cross(r.clone())),
            &l.cross(m).cross(r),
        );
    }

    // e1 ⋈_{p1} (e2 ⋈_{p2} e3) = (e1 ⋈_{p1} e2) ⋈_{p2} e3
    #[test]
    fn join_is_associative(
        l in prop::collection::vec((0i64..3, 0i64..9), 0..6),
        m in prop::collection::vec((0i64..3, 0i64..9), 0..6),
        r in prop::collection::vec((0i64..3, 0i64..9), 0..6),
    ) {
        let p1 = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
        let p2 = Scalar::attr_cmp(CmpOp::Eq, "b", "c");
        let lhs = rel("a", "x", &l)
            .join(rel("b", "y", &m).join(rel("c", "z", &r), p2.clone()), p1.clone());
        let rhs = rel("a", "x", &l)
            .join(rel("b", "y", &m), p1)
            .join(rel("c", "z", &r), p2);
        prop_assert_eq!(eval(&lhs), eval(&rhs));
    }

    // e1 ⋉_{q∧p}(e2) = e1 ⋉_q σ_p(e2) — the §5.5 push, as a law.
    #[test]
    fn semijoin_right_push_is_sound(l in rows(), r in rows(), k in 0i64..30) {
        let pred = Scalar::attr_cmp(CmpOp::Eq, "a", "b")
            .and(Scalar::cmp(CmpOp::Lt, Scalar::attr("y"), Scalar::int(k)));
        let e = rel("a", "x", &l).semijoin(rel("b", "y", &r), pred);
        assert_law(&e, &classic::push_pred_into_right(&e).expect("the push applies"));
    }
}

/// §2: "neither of them is commutative" — pin the counterexamples so the
/// non-law stays a non-law.
#[test]
fn cross_and_join_are_not_commutative() {
    let l = rel("a", "x", &[(1, 1), (2, 2)]);
    let r = rel("b", "y", &[(1, 10), (2, 20)]);
    let ab = eval(&l.clone().cross(r.clone()));
    let ba = eval(&r.clone().cross(l.clone()));
    assert_eq!(ab.len(), ba.len());
    assert_ne!(ab, ba, "× must not commute over ordered sequences");

    let p = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
    let flip = Scalar::attr_cmp(CmpOp::Eq, "b", "a");
    let jl = eval(&l.clone().join(r.clone(), p));
    let jr = eval(&r.join(l, flip));
    // Same tuples as sets, different order.
    let mut jls = jl.clone();
    let mut jrs = jr.clone();
    let key = |t: &Tuple| format!("{t}");
    jls.sort_by_key(key);
    jrs.sort_by_key(key);
    assert_eq!(jls, jrs, "the tuple *sets* agree");
    // With these inputs the order happens to agree for ⋈ (single matches);
    // the cross-product case above is the hard counterexample.
}
