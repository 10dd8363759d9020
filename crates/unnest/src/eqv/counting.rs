//! Equivalences 8 and 9 — replacing a (semi/anti) join whose left side is
//! the distinct values of the right side's column by a single counting
//! scan — plus the self-semijoin variant used by §5.4's grouping plan.

use nal::expr::attrs::attr_set;
use nal::{CmpOp, Expr, GroupFn, ProjOp, Scalar, Sym};
use xmldb::Catalog;

use crate::conditions::split_correlation;
use crate::eqv::pattern::alpha_map;
use crate::schema::{column_path, value_descriptor, values_match};

/// Eqv. 8: `Π^D(e1) ⋉_{A1=A2} σ_p(e2) = Π_{-c}(σ_{c>0}(Π_{A1:A2}(Γ_{c;=A2;count∘σ_p}(e2))))`
/// if `Π^D(e1) = Π^D_{A1:A2}(Π_{A2}(e2))`.
///
/// Saves scanning the document behind `e1` entirely: everything comes
/// from one grouping pass over `e2`. (The final `Π` drops the transient
/// count attribute so both sides produce identical tuples.)
pub fn eqv8(expr: &Expr, catalog: &Catalog) -> Option<Expr> {
    let Expr::SemiJoin { left, right, pred } = expr else {
        return None;
    };
    count_scan(left, right, pred, catalog, CmpOp::Gt)
}

/// Eqv. 9: the anti-join counterpart with `c = 0`.
pub fn eqv9(expr: &Expr, catalog: &Catalog) -> Option<Expr> {
    let Expr::AntiJoin { left, right, pred } = expr else {
        return None;
    };
    count_scan(left, right, pred, catalog, CmpOp::Eq)
}

fn count_scan(
    left: &Expr,
    right: &Expr,
    pred: &Scalar,
    catalog: &Catalog,
    count_cmp: CmpOp,
) -> Option<Expr> {
    let a_left = attr_set(left);
    let a_right = attr_set(right);
    let corr = split_correlation(pred, &a_left, &a_right)?;
    if corr.membership.is_some() || corr.pairs.len() != 1 {
        return None;
    }
    let (a1, theta, a2) = corr.pairs[0];
    if theta != CmpOp::Eq {
        return None;
    }
    // The equivalence replaces e1 entirely, so e1 must carry nothing but
    // the join attribute.
    if a_left != std::iter::once(a1).collect() {
        return None;
    }
    // Π^D(e1) = Π^D_{A1:A2}(Π_{A2}(e2)): value-distinct left side equal to
    // the distinct values of the inner column.
    let d1 = value_descriptor(left, a1)?;
    let d2 = column_path(right, a2)?;
    if !d1.value_distinct() || !values_match(catalog, &d1, &d2) {
        return None;
    }
    let c = Sym::fresh(
        "c",
        &a_right.iter().copied().chain([a1]).collect::<Vec<_>>(),
    );
    let mut f = GroupFn::count();
    if let Some(local) = corr.local_pred() {
        f = f.filtered(local);
    }
    let grouped = Expr::GroupUnary {
        input: Box::new(right.clone()),
        g: c,
        by: vec![a2],
        theta: CmpOp::Eq,
        f,
    };
    let renamed = Expr::Project {
        input: Box::new(grouped),
        op: ProjOp::Rename(vec![(a1, a2)]),
    };
    let filtered = Expr::Select {
        input: Box::new(renamed),
        pred: Scalar::cmp(count_cmp, Scalar::attr(c), Scalar::int(0)),
    };
    Some(Expr::Project {
        input: Box::new(filtered),
        op: ProjOp::Drop(vec![c]),
    })
}

/// The self-semijoin variant behind §5.4's third ("grouping") plan.
///
/// When both operands of `e1 ⋉_{b1=b2 ∧ p} e2` are α-equivalent scans of
/// the same document, the whole semijoin is computable in **one** scan:
/// group `e1` by the join attribute, count the tuples satisfying `p`
/// (translated into `e1`'s vocabulary), keep groups with a positive
/// count, and unnest back:
///
/// ```text
/// μ_g(Π_{-c}(σ_{c>0}(χ_{c:count∘σ_{p̃}(rel(g))}(Γ_{g;=b1;id}(e1)))))
/// ```
pub fn eqv8_self(expr: &Expr) -> Option<Expr> {
    let Expr::SemiJoin { left, right, pred } = expr else {
        return None;
    };
    // Pruning may have narrowed the left operand with a projection; the
    // rewrite works on the unprojected scan and re-applies the projection
    // at the end (Π keeps every tuple, so this is order-exact).
    let (left_core, final_cols): (&Expr, Option<Vec<Sym>>) = match left.as_ref() {
        Expr::Project {
            input,
            op: ProjOp::Cols(cols),
        } => (input, Some(cols.clone())),
        other => (other, None),
    };
    let left = left_core;
    let a_left = attr_set(left);
    let a_right = attr_set(right);
    let corr = split_correlation(pred, &a_left, &a_right)?;
    if corr.membership.is_some() || corr.pairs.len() != 1 {
        return None;
    }
    let (b1, theta, b2) = corr.pairs[0];
    if theta != CmpOp::Eq {
        return None;
    }
    // α-equivalence gives the attribute bijection left↔right.
    let map = alpha_map(left, right)?;
    // The correlation must identify corresponding attributes.
    if !map.contains(&(b1, b2)) {
        return None;
    }
    // Translate the residual predicate into the left vocabulary.
    let rename: Vec<(Sym, Sym)> = map.iter().map(|&(l, r)| (l, r)).collect();
    let p_left = Scalar::conjoin(corr.local.iter().map(|c| c.rename_attrs(&rename)).collect());
    let used: Vec<Sym> = a_left.iter().copied().collect();
    let g = Sym::fresh("grp", &used);
    let c = Sym::fresh("c", &used);
    let grouped = Expr::GroupUnary {
        input: Box::new(left.clone()),
        g,
        by: vec![b1],
        theta: CmpOp::Eq,
        f: GroupFn::id(),
    };
    let counted = Expr::Map {
        input: Box::new(grouped),
        attr: c,
        value: Scalar::Agg {
            f: GroupFn::count().filtered(p_left),
            input: Box::new(Expr::AttrRel(g)),
        },
    };
    let filtered = Expr::Select {
        input: Box::new(counted),
        pred: Scalar::cmp(CmpOp::Gt, Scalar::attr(c), Scalar::int(0)),
    };
    let dropped = Expr::Project {
        input: Box::new(filtered),
        op: ProjOp::Drop(vec![c]),
    };
    let unnested = Expr::Unnest {
        input: Box::new(dropped),
        attr: g,
        distinct: false,
        preserve_empty: false,
    };
    Some(match final_cols {
        Some(cols) => Expr::Project {
            input: Box::new(unnested),
            op: ProjOp::Cols(cols),
        },
        None => unnested,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use xmldb::gen::{gen_bib, BibConfig};
    use xpath::parse_path;

    fn p(s: &str) -> xpath::Path {
        parse_path(s).unwrap()
    }

    fn bib_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(gen_bib(&BibConfig {
            books: 5,
            ..BibConfig::default()
        }));
        cat
    }

    /// e1 of §5.5: distinct authors, projected to the join attribute.
    fn distinct_authors() -> Expr {
        doc_scan("d1", "bib.xml")
            .unnest_map("a1", Scalar::attr("d1").path(p("//author")).distinct())
            .project(&["a1"])
    }

    /// e3 of §5.5: (book, year, author) tuples.
    fn books_years_authors() -> Expr {
        doc_scan("d3", "bib.xml")
            .unnest_map("b3", Scalar::attr("d3").path(p("//book")))
            .map("y3", Scalar::attr("b3").path(p("@year")))
            .unnest_map("a3", Scalar::attr("b3").path(p("/author")))
    }

    #[test]
    fn eqv9_rewrites_the_universal_plan() {
        // e1 ▷_{a1=a3 ∧ y3<=1993} e3  →  σ_{c=0}(Γ_{c;=a3;count∘σ_{y3<=1993}}(e3))
        let pred = Scalar::attr_cmp(CmpOp::Eq, "a1", "a3").and(Scalar::cmp(
            CmpOp::Le,
            Scalar::attr("y3"),
            Scalar::int(1993),
        ));
        let expr = distinct_authors().antijoin(books_years_authors(), pred);
        let cat = bib_catalog();
        let rewritten = eqv9(&expr, &cat).unwrap();
        let printed = rewritten.to_string();
        assert!(printed.contains("Γ[c"), "{printed}");
        assert!(printed.contains("count∘σ[y3 <= 1993]"), "{printed}");
        assert!(printed.contains("c = 0"), "{printed}");
    }

    #[test]
    fn eqv8_requires_the_value_set_condition() {
        let cat = bib_catalog();
        // Left side carries an extra attribute → decline.
        let bad_left = doc_scan("d1", "bib.xml")
            .unnest_map("a1", Scalar::attr("d1").path(p("//author")).distinct());
        let expr = bad_left.semijoin(
            books_years_authors(),
            Scalar::attr_cmp(CmpOp::Eq, "a1", "a3"),
        );
        assert!(eqv8(&expr, &cat).is_none());
        // Node-valued (non-distinct) left side → decline (values may repeat).
        let nodes_left = doc_scan("d1", "bib.xml")
            .unnest_map("a1", Scalar::attr("d1").path(p("//author")))
            .project(&["a1"]);
        let expr = nodes_left.semijoin(
            books_years_authors(),
            Scalar::attr_cmp(CmpOp::Eq, "a1", "a3"),
        );
        assert!(eqv8(&expr, &cat).is_none());
        // The good shape fires.
        let expr = distinct_authors().semijoin(
            books_years_authors(),
            Scalar::attr_cmp(CmpOp::Eq, "a1", "a3"),
        );
        assert!(eqv8(&expr, &cat).is_some());
    }

    #[test]
    fn eqv8_self_detects_alpha_equivalent_scans() {
        // §5.4: (book, author) pairs semijoined with an α-equivalent scan.
        let l = doc_scan("d1", "bib.xml")
            .unnest_map("b1", Scalar::attr("d1").path(p("//book")))
            .unnest_map("a1", Scalar::attr("b1").path(p("/author")));
        let r = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("a2", Scalar::attr("b2").path(p("/author")));
        let pred = Scalar::attr_cmp(CmpOp::Eq, "b1", "b2").and(Scalar::Call(
            nal::Func::Contains,
            vec![Scalar::attr("a2"), Scalar::string("Suciu")],
        ));
        let expr = l.semijoin(r, pred);
        let rewritten = eqv8_self(&expr).unwrap();
        let printed = rewritten.to_string();
        // One scan: group by b1, count with the predicate translated to a1.
        assert!(printed.contains("Γ[grp"), "{printed}");
        assert!(printed.contains("contains(a1"), "{printed}");
        assert!(printed.starts_with("μ[grp]"), "{printed}");
    }

    #[test]
    fn eqv8_self_declines_non_self_joins() {
        let l =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let r = doc_scan("d3", "reviews.xml")
            .unnest_map("t3", Scalar::attr("d3").path(p("//entry/title")));
        let expr = l.semijoin(r, Scalar::attr_cmp(CmpOp::Eq, "t1", "t3"));
        assert!(eqv8_self(&expr).is_none());
    }
}
