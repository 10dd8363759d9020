//! Equivalences 1–5: unnesting `χ_{g:f(σ…(e2))}(e1)` into grouping plans.

use nal::expr::attrs::{attr_set, nested_attrs};
use nal::{CmpOp, Expr, Scalar, Sym};
use xmldb::Catalog;

use crate::conditions::{attrs_disjoint, inner_independent, is_fresh};
use crate::eqv::pattern::match_map_agg;
use crate::schema::{column_path, value_descriptor, values_match};

/// Eqv. 1: `χ_{g:f(σ_{A1θA2}(e2))}(e1) = e1 Γ_{g;A1θA2;f} e2`.
///
/// The most general rule — works for any comparison operator θ — but the
/// binary Γ still compares every pair, so the driver prefers the more
/// restrictive equivalences when their conditions hold.
pub fn eqv1(expr: &Expr) -> Option<Expr> {
    let pat = match_map_agg(expr)?;
    let (e1, g, f, corr) = (pat.e1, pat.g, pat.f, &pat.corr);
    if corr.membership.is_some() || corr.pairs.is_empty() {
        return None;
    }
    let theta = corr.uniform_theta()?;
    let e2 = pat.e2();
    check_common(e1, &e2, g)?;
    Some(Expr::GroupBinary {
        left: Box::new(e1.clone()),
        right: Box::new(e2),
        g,
        left_on: corr.outer_attrs(),
        theta,
        right_on: corr.inner_attrs(),
        f: f.clone(),
    })
}

/// Eqv. 2: for `=` correlations,
/// `χ_{g:f(σ_{A1=A2}(e2))}(e1) = Π_{Ā2}(e1 ⟕^{g:f(ε)}_{A1=A2} Γ_{g;=A2;f}(e2))`.
///
/// One grouping pass over `e2` plus an order-preserving outer join — `e2`
/// is scanned once regardless of `|e1|`.
pub fn eqv2(expr: &Expr) -> Option<Expr> {
    let pat = match_map_agg(expr)?;
    let (e1, g, f, corr) = (pat.e1, pat.g, pat.f, &pat.corr);
    if corr.membership.is_some() || corr.pairs.is_empty() {
        return None;
    }
    if corr.uniform_theta()? != CmpOp::Eq {
        return None;
    }
    let e2 = pat.e2();
    check_common(e1, &e2, g)?;
    let a1 = corr.outer_attrs();
    let a2 = corr.inner_attrs();
    let grouped = Expr::GroupUnary {
        input: Box::new(e2),
        g,
        by: a2.clone(),
        theta: CmpOp::Eq,
        f: f.clone(),
    };
    let pred = Scalar::conjoin(
        a1.iter()
            .zip(&a2)
            .map(|(l, r)| {
                Scalar::Cmp(
                    CmpOp::Eq,
                    Box::new(Scalar::Attr(*l)),
                    Box::new(Scalar::Attr(*r)),
                )
            })
            .collect(),
    );
    let joined = Expr::OuterJoin {
        left: Box::new(e1.clone()),
        right: Box::new(grouped),
        pred,
        g,
        default: f.on_empty(),
    };
    Some(Expr::Project {
        input: Box::new(joined),
        op: nal::ProjOp::Drop(a2),
    })
}

/// Eqv. 3: when `e1 = Π^D_{A1:A2}(Π_{A2}(e2))` (checked structurally or
/// via DTD provenance),
/// `χ_{g:f(σ_{A1θA2}(e2))}(e1) = Π_{A1:A2}(Γ_{g;θA2;f}(e2))`.
///
/// The cheapest plan: a single grouping scan of `e2`, no join at all.
pub fn eqv3(expr: &Expr, catalog: &Catalog) -> Option<Expr> {
    let pat = match_map_agg(expr)?;
    let (e1, g, f, corr) = (pat.e1, pat.g, pat.f, &pat.corr);
    if corr.membership.is_some() || corr.pairs.is_empty() {
        return None;
    }
    let theta = corr.uniform_theta()?;
    let a1 = corr.outer_attrs();
    let a2 = corr.inner_attrs();
    // The condition implies A1 = A(e1).
    if attr_set(e1) != a1.iter().copied().collect() {
        return None;
    }
    let e2 = pat.e2();
    check_common(e1, &e2, g)?;
    if !outer_is_distinct_inner_column(e1, &a1, &e2, &a2, catalog) {
        return None;
    }
    let grouped = Expr::GroupUnary {
        input: Box::new(e2),
        g,
        by: a2.clone(),
        theta,
        f: f.clone(),
    };
    Some(Expr::Project {
        input: Box::new(grouped),
        op: nal::ProjOp::Rename(a1.into_iter().zip(a2).collect()),
    })
}

/// Eqv. 4: membership correlation,
/// `χ_{g:f(σ_{A1∈a2}(e2))}(e1) =
///    Π_{Ā2}(e1 ⟕^{g:f(ε)}_{A1=A2} Γ_{g;=A2;f}(μ^D_{a2}(e2)))`,
/// where `A2 = A(a2)`. New in the paper for both the ordered and the
/// unordered context.
pub fn eqv4(expr: &Expr) -> Option<Expr> {
    let pat = match_map_agg(expr)?;
    let (e1, g, f, corr) = (pat.e1, pat.g, pat.f, &pat.corr);
    let (a1, a2_nested) = corr.membership?;
    if !corr.pairs.is_empty() {
        return None;
    }
    let e2 = pat.e2();
    check_common(e1, &e2, g)?;
    let inner = nested_attrs(&e2, a2_nested)?;
    // f may not depend on a2 or A(a2).
    let mut forbidden = inner.clone();
    forbidden.push(a2_nested);
    if !f.independent_of(&forbidden) {
        return None;
    }
    let unnested = Expr::Unnest {
        input: Box::new(e2),
        attr: a2_nested,
        distinct: true,
        preserve_empty: false,
    };
    let grouped = Expr::GroupUnary {
        input: Box::new(unnested),
        g,
        by: inner.clone(),
        theta: CmpOp::Eq,
        f: f.clone(),
    };
    let pred = Scalar::conjoin(
        inner
            .iter()
            .map(|r| Scalar::attr_cmp(CmpOp::Eq, a1, *r))
            .collect(),
    );
    let joined = Expr::OuterJoin {
        left: Box::new(e1.clone()),
        right: Box::new(grouped),
        pred,
        g,
        default: f.on_empty(),
    };
    Some(Expr::Project {
        input: Box::new(joined),
        op: nal::ProjOp::Drop(inner),
    })
}

/// Eqv. 5: membership correlation with the distinctness condition
/// `e1 = Π^D_{A1:A2}(Π_{A2}(μ_{a2}(e2)))`:
/// `χ_{g:f(σ_{A1∈a2}(e2))}(e1) = Π_{A1:A2}(Γ_{g;=A2;f}(μ^D_{a2}(e2)))`.
///
/// This is the counterpart of Paparizos et al.'s grouping rewrite — with
/// the missing applicability condition enforced (§5.1).
pub fn eqv5(expr: &Expr, catalog: &Catalog) -> Option<Expr> {
    let pat = match_map_agg(expr)?;
    let (e1, g, f, corr) = (pat.e1, pat.g, pat.f, &pat.corr);
    let (a1, a2_nested) = corr.membership?;
    if !corr.pairs.is_empty() {
        return None;
    }
    // The condition implies A1 = A(e1).
    if attr_set(e1) != std::iter::once(a1).collect() {
        return None;
    }
    let e2 = pat.e2();
    check_common(e1, &e2, g)?;
    let inner = nested_attrs(&e2, a2_nested)?;
    let mut forbidden = inner.clone();
    forbidden.push(a2_nested);
    if !f.independent_of(&forbidden) {
        return None;
    }
    // e1 must be the distinct values of the membership column.
    if !outer_is_distinct_inner_column(e1, &[a1], &e2, &[a2_nested], catalog) {
        return None;
    }
    let unnested = Expr::Unnest {
        input: Box::new(e2),
        attr: a2_nested,
        distinct: true,
        preserve_empty: false,
    };
    let grouped = Expr::GroupUnary {
        input: Box::new(unnested),
        g,
        by: inner.clone(),
        theta: CmpOp::Eq,
        f: f.clone(),
    };
    Some(Expr::Project {
        input: Box::new(grouped),
        op: nal::ProjOp::Rename(std::iter::once(a1).zip(inner).collect()),
    })
}

/// The conditions shared by equivalences 1–5 (§4): `F(e2) ∩ A(e1) = ∅`,
/// `A1 ∩ A2 = ∅` (attribute vocabularies disjoint), and `g` fresh.
fn check_common(e1: &Expr, e2: &Expr, g: Sym) -> Option<()> {
    (inner_independent(e2, e1) && attrs_disjoint(e1, e2) && is_fresh(g, e1, e2)).then_some(())
}

/// Discharge `e1 = Π^D_{A1:A2}(Π_{A2}(e2))`, structurally or via schema
/// provenance. `a2` may name a nested attribute (the Eqv. 5 case), whose
/// descriptor already refers to the lifted item values.
fn outer_is_distinct_inner_column(
    e1: &Expr,
    a1: &[Sym],
    e2: &Expr,
    a2: &[Sym],
    catalog: &Catalog,
) -> bool {
    // Structural check: e1 is literally Π^D_{A1:A2}(…e2…).
    if let Expr::Project {
        input,
        op: nal::ProjOp::DistinctRename(pairs),
    } = e1
    {
        let expected: Vec<(Sym, Sym)> = a1.iter().copied().zip(a2.iter().copied()).collect();
        if *pairs == expected {
            // Π^D_{A1:A2} already projects, so an explicit inner Π_{A2} is
            // optional.
            let matches_e2 = **input == *e2
                || matches!(&**input,
                    Expr::Project { input: inner2, op: nal::ProjOp::Cols(cols) }
                        if **inner2 == *e2 && cols.as_slice() == a2);
            if matches_e2 {
                return true;
            }
        }
    }
    // Provenance check via the DTD.
    if a1.len() != 1 || a2.len() != 1 {
        return false;
    }
    let (Some(d1), Some(d2)) = (value_descriptor(e1, a1[0]), column_path(e2, a2[0])) else {
        return false;
    };
    d1.value_distinct() && values_match(catalog, &d1, &d2)
}

#[cfg(test)]
mod tests {
    use super::*;

    use nal::{GroupFn, Tuple, Value};

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

    fn lhs(theta: CmpOp, f: GroupFn) -> Expr {
        let e1 = lit(vec![vec![("A1", 1)], vec![("A1", 2)]]);
        let e2 = lit(vec![vec![("A2", 1), ("B", 10)], vec![("A2", 2), ("B", 20)]]);
        e1.map(
            "g",
            Scalar::Agg {
                f,
                input: Box::new(e2.select(Scalar::attr_cmp(theta, "A1", "A2"))),
            },
        )
    }

    #[test]
    fn eqv1_builds_nest_join() {
        let rewritten = eqv1(&lhs(CmpOp::Le, GroupFn::count())).unwrap();
        let Expr::GroupBinary {
            theta,
            left_on,
            right_on,
            ..
        } = &rewritten
        else {
            panic!("expected binary Γ, got {rewritten}")
        };
        assert_eq!(*theta, CmpOp::Le);
        assert_eq!(left_on, &vec![s("A1")]);
        assert_eq!(right_on, &vec![s("A2")]);
    }

    #[test]
    fn eqv2_requires_equality() {
        assert!(eqv2(&lhs(CmpOp::Lt, GroupFn::count())).is_none());
        let rewritten = eqv2(&lhs(CmpOp::Eq, GroupFn::count())).unwrap();
        let Expr::Project {
            input,
            op: nal::ProjOp::Drop(dropped),
        } = &rewritten
        else {
            panic!("expected Π_drop, got {rewritten}")
        };
        assert_eq!(dropped, &vec![s("A2")]);
        assert!(matches!(**input, Expr::OuterJoin { .. }));
    }

    #[test]
    fn eqv3_fires_on_structural_condition() {
        // e1 := Π^D_{A1:A2}(e2) — the condition holds by construction.
        let e2 = lit(vec![
            vec![("A2", 1), ("B", 10)],
            vec![("A2", 1), ("B", 11)],
            vec![("A2", 2), ("B", 20)],
        ]);
        let e1 = e2.clone().distinct_rename(&[("A1", "A2")]);
        let expr = e1.map(
            "g",
            Scalar::Agg {
                f: GroupFn::count(),
                input: Box::new(e2.select(Scalar::attr_cmp(CmpOp::Eq, "A1", "A2"))),
            },
        );
        let cat = Catalog::new();
        let rewritten = eqv3(&expr, &cat).unwrap();
        let Expr::Project {
            input,
            op: nal::ProjOp::Rename(pairs),
        } = &rewritten
        else {
            panic!("expected rename, got {rewritten}")
        };
        assert_eq!(pairs, &vec![(s("A1"), s("A2"))]);
        assert!(matches!(**input, Expr::GroupUnary { .. }));
    }

    #[test]
    fn eqv3_declines_without_condition() {
        // e1 is an arbitrary literal — not provably the distinct A2s.
        let cat = Catalog::new();
        assert!(eqv3(&lhs(CmpOp::Eq, GroupFn::count()), &cat).is_none());
        // …but eqv2 still applies (more general).
        assert!(eqv2(&lhs(CmpOp::Eq, GroupFn::count())).is_some());
    }

    fn membership_lhs(f: GroupFn) -> Expr {
        // e2 tuples carry a nested attr a2 (lifted items) and a payload t2.
        let mk_nested = |vals: &[i64]| {
            Value::tuples(
                vals.iter()
                    .map(|&v| Tuple::singleton(s("a2x"), Value::Int(v)))
                    .collect(),
            )
        };
        let e2 = Expr::Literal(vec![
            Tuple::from_pairs(vec![
                (s("a2"), mk_nested(&[1, 2])),
                (s("t2"), Value::Int(100)),
            ]),
            Tuple::from_pairs(vec![(s("a2"), mk_nested(&[2])), (s("t2"), Value::Int(200))]),
        ]);
        let e1 = lit(vec![vec![("A1", 1)], vec![("A1", 2)], vec![("A1", 3)]]);
        e1.map(
            "g",
            Scalar::Agg {
                f,
                input: Box::new(e2.select(Scalar::is_in(Scalar::attr("A1"), Scalar::attr("a2")))),
            },
        )
    }

    #[test]
    fn eqv4_unnests_membership() {
        let rewritten = eqv4(&membership_lhs(GroupFn::project_items("t2"))).unwrap();
        // Π_drop(⟕(e1, Γ(μD(e2))))
        let Expr::Project { input, .. } = &rewritten else {
            panic!()
        };
        let Expr::OuterJoin { right, .. } = &**input else {
            panic!()
        };
        let Expr::GroupUnary { input: gin, by, .. } = &**right else {
            panic!()
        };
        assert_eq!(by, &vec![s("a2x")]);
        assert!(matches!(**gin, Expr::Unnest { distinct: true, .. }));
    }

    #[test]
    fn eqv4_rejects_dependent_f() {
        // f projects the membership column itself — forbidden.
        assert!(eqv4(&membership_lhs(GroupFn::project_items("a2x"))).is_none());
        assert!(eqv4(&membership_lhs(GroupFn::project_items("a2"))).is_none());
        assert!(eqv4(&membership_lhs(GroupFn::count())).is_some());
    }

    #[test]
    fn eqv5_needs_the_distinctness_condition() {
        let cat = Catalog::new();
        // Plain literal e1: condition not provable.
        assert!(eqv5(&membership_lhs(GroupFn::count()), &cat).is_none());
    }
}
