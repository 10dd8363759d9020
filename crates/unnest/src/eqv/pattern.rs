//! Pattern extraction shared by the rewrite rules.

use nal::expr::attrs::attr_set;
use nal::{Expr, GroupFn, ProjOp, Scalar, Sym};

use crate::conditions::{split_conjuncts, Correlation};

/// The left-hand-side shape of equivalences 1–5:
/// `χ_{g:f(σ_{corr}(e2))}(e1)`. Matching borrows everything; the inner
/// operand is only built ([`MapAggPattern::e2`]) by a rule that has
/// passed its shape checks.
pub struct MapAggPattern<'a> {
    /// The outer expression.
    pub e1: &'a Expr,
    /// The attribute the aggregate binds.
    pub g: Sym,
    /// The aggregating group function.
    pub f: &'a GroupFn,
    /// The aggregate's input, selections still where the translation
    /// left them.
    inner: &'a Expr,
    /// The split correlation predicate.
    pub corr: Correlation<'a>,
}

impl MapAggPattern<'_> {
    /// The inner expression `e2`: selections hoisted out of the
    /// aggregate's input, the local conjuncts pushed back as one σ on
    /// top, so the rules can treat what remains as pure correlation.
    pub fn e2(&self) -> Expr {
        let base = strip_selections(self.inner);
        match self.corr.local_pred() {
            Some(pred) => Expr::Select {
                input: Box::new(base),
                pred,
            },
            None => base,
        }
    }
}

/// Match `χ_{g:f(σ_p(e2))}(e1)` and split `p` into correlation and local
/// parts.
///
/// Translations often leave the correlated σ *buried* under later `χ`/`Υ`
/// operators of the same block (`let` clauses after the `where`). σ
/// commutes upward through maps whose attributes it does not reference —
/// one of §2's familiar equivalences — so selections are hoisted to the
/// top of the nested expression before matching.
pub fn match_map_agg(expr: &Expr) -> Option<MapAggPattern<'_>> {
    let Expr::Map {
        input: e1,
        attr: g,
        value,
    } = expr
    else {
        return None;
    };
    let Scalar::Agg { f, input } = value else {
        return None;
    };
    let preds = hoisted_preds(input);
    if preds.is_empty() {
        return None;
    }
    let outer = attr_set(e1);
    // σ neither adds nor removes attributes: A(input) is A(e2).
    let inner = attr_set(input);
    let corr = split_conjuncts(preds.iter().flat_map(|p| p.conjuncts()), &outer, &inner)?;
    if corr.pairs.is_empty() && corr.membership.is_none() {
        return None; // uncorrelated — nothing for the equivalences to do
    }
    Some(MapAggPattern {
        e1,
        g: *g,
        f,
        inner: input,
        corr,
    })
}

/// The predicates of every selection reachable through a `χ`/`Υ` chain,
/// innermost first — what hoisting those selections to the top of the
/// chain collects. Sound because each predicate references only
/// attributes produced *below* it, which the maps above merely extend
/// (σ_p ∘ χ_a = χ_a ∘ σ_p when `a ∉ F(p)`).
pub fn hoisted_preds(e: &Expr) -> Vec<&Scalar> {
    let mut preds = Vec::new();
    let mut cur = e;
    loop {
        cur = match cur {
            Expr::Select { input, pred } => {
                preds.push(pred);
                input
            }
            Expr::Map { input, .. } | Expr::UnnestMap { input, .. } => input,
            _ => break,
        };
    }
    preds.reverse();
    preds
}

/// `e` without the selections [`hoisted_preds`] collects: the cleaned
/// `χ`/`Υ` chain over an untouched base.
pub fn strip_selections(e: &Expr) -> Expr {
    match e {
        Expr::Select { input, .. } => strip_selections(input),
        Expr::Map { input, attr, value } => Expr::Map {
            input: Box::new(strip_selections(input)),
            attr: *attr,
            value: value.clone(),
        },
        Expr::UnnestMap { input, attr, value } => Expr::UnnestMap {
            input: Box::new(strip_selections(input)),
            attr: *attr,
            value: value.clone(),
        },
        other => other.clone(),
    }
}

/// Structural equivalence of two expressions modulo attribute renaming.
/// On success, returns the bijection as `(left_attr, right_attr)` pairs —
/// how to translate right-side attribute references into the left's
/// vocabulary. Used by [`crate::eqv::eqv8_self`] to detect self-joins
/// (both operands scan the same document the same way).
pub fn alpha_map(l: &Expr, r: &Expr) -> Option<Vec<(Sym, Sym)>> {
    let mut map: Vec<(Sym, Sym)> = Vec::new();
    if alpha_expr(l, r, &mut map) {
        Some(map)
    } else {
        None
    }
}

fn bind(map: &mut Vec<(Sym, Sym)>, l: Sym, r: Sym) -> bool {
    for &(bl, br) in map.iter() {
        if bl == l || br == r {
            return bl == l && br == r;
        }
    }
    map.push((l, r));
    true
}

fn alpha_expr(l: &Expr, r: &Expr, map: &mut Vec<(Sym, Sym)>) -> bool {
    match (l, r) {
        (Expr::Singleton, Expr::Singleton) => true,
        (Expr::Literal(a), Expr::Literal(b)) => a == b,
        (
            Expr::Map {
                input: li,
                attr: la,
                value: lv,
            },
            Expr::Map {
                input: ri,
                attr: ra,
                value: rv,
            },
        )
        | (
            Expr::UnnestMap {
                input: li,
                attr: la,
                value: lv,
            },
            Expr::UnnestMap {
                input: ri,
                attr: ra,
                value: rv,
            },
        ) => alpha_expr(li, ri, map) && bind(map, *la, *ra) && alpha_scalar(lv, rv, map),
        (
            Expr::Select {
                input: li,
                pred: lp,
            },
            Expr::Select {
                input: ri,
                pred: rp,
            },
        ) => alpha_expr(li, ri, map) && alpha_scalar(lp, rp, map),
        (Expr::Project { input: li, op: lo }, Expr::Project { input: ri, op: ro }) => {
            alpha_expr(li, ri, map) && alpha_proj(lo, ro, map)
        }
        _ => false,
    }
}

fn alpha_proj(l: &ProjOp, r: &ProjOp, map: &mut Vec<(Sym, Sym)>) -> bool {
    match (l, r) {
        (ProjOp::Cols(a), ProjOp::Cols(b)) | (ProjOp::DistinctCols(a), ProjOp::DistinctCols(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bind(map, *x, *y))
        }
        (ProjOp::Drop(a), ProjOp::Drop(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bind(map, *x, *y))
        }
        _ => false,
    }
}

fn alpha_scalar(l: &Scalar, r: &Scalar, map: &mut Vec<(Sym, Sym)>) -> bool {
    match (l, r) {
        (Scalar::Const(a), Scalar::Const(b)) => a == b,
        (Scalar::Doc(a), Scalar::Doc(b)) => a == b,
        (Scalar::Attr(a), Scalar::Attr(b)) => bind(map, *a, *b),
        (Scalar::Path(a, pa), Scalar::Path(b, pb)) => pa == pb && alpha_scalar(a, b, map),
        (Scalar::Lift(a, la), Scalar::Lift(b, lb)) => {
            bind(map, *la, *lb) && alpha_scalar(a, b, map)
        }
        (Scalar::DistinctItems(a), Scalar::DistinctItems(b)) => alpha_scalar(a, b, map),
        (Scalar::Cmp(oa, al, ar), Scalar::Cmp(ob, bl, br)) => {
            oa == ob && alpha_scalar(al, bl, map) && alpha_scalar(ar, br, map)
        }
        (Scalar::Arith(oa, al, ar), Scalar::Arith(ob, bl, br)) => {
            oa == ob && alpha_scalar(al, bl, map) && alpha_scalar(ar, br, map)
        }
        (Scalar::In(al, ar), Scalar::In(bl, br))
        | (Scalar::And(al, ar), Scalar::And(bl, br))
        | (Scalar::Or(al, ar), Scalar::Or(bl, br)) => {
            alpha_scalar(al, bl, map) && alpha_scalar(ar, br, map)
        }
        (Scalar::Not(a), Scalar::Not(b)) => alpha_scalar(a, b, map),
        (Scalar::Call(fa, aa), Scalar::Call(fb, ab)) => {
            fa == fb
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| alpha_scalar(x, y, map))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::{CmpOp, Sym};
    use xpath::parse_path;

    fn p(s: &str) -> xpath::Path {
        parse_path(s).unwrap()
    }

    #[test]
    fn matches_the_canonical_map_agg_shape() {
        let e1 = singleton().map("a1", Scalar::int(1));
        let e2 = singleton()
            .map("a2", Scalar::int(2))
            .map("b2", Scalar::int(3));
        let expr = e1.map(
            "m",
            Scalar::Agg {
                f: GroupFn::count(),
                input: Box::new(e2.select(
                    Scalar::attr_cmp(CmpOp::Eq, "a1", "a2").and(Scalar::cmp(
                        CmpOp::Gt,
                        Scalar::attr("b2"),
                        Scalar::int(0),
                    )),
                )),
            },
        );
        let pat = match_map_agg(&expr).unwrap();
        assert_eq!(pat.g, Sym::new("m"));
        assert_eq!(
            pat.corr.pairs,
            vec![(Sym::new("a1"), CmpOp::Eq, Sym::new("a2"))]
        );
        // Local conjunct was pushed into e2 as a selection.
        assert!(matches!(pat.e2(), Expr::Select { .. }));
    }

    #[test]
    fn rejects_uncorrelated_and_wrong_shapes() {
        let e1 = singleton().map("a1", Scalar::int(1));
        // No selection at all under the aggregate.
        let expr = e1.clone().map(
            "m",
            Scalar::Agg {
                f: GroupFn::count(),
                input: Box::new(singleton().map("a2", Scalar::int(2))),
            },
        );
        assert!(match_map_agg(&expr).is_none());
        // Selection without outer references.
        let expr = e1.map(
            "m",
            Scalar::Agg {
                f: GroupFn::count(),
                input: Box::new(singleton().map("a2", Scalar::int(2)).select(Scalar::cmp(
                    CmpOp::Gt,
                    Scalar::attr("a2"),
                    Scalar::int(0),
                ))),
            },
        );
        assert!(match_map_agg(&expr).is_none());
    }

    #[test]
    fn alpha_equivalent_scans() {
        let l = doc_scan("d1", "bib.xml")
            .unnest_map("b1", Scalar::attr("d1").path(p("//book")))
            .unnest_map("a1", Scalar::attr("b1").path(p("/author")));
        let r = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("a2", Scalar::attr("b2").path(p("/author")));
        let map = alpha_map(&l, &r).unwrap();
        assert!(map.contains(&(Sym::new("b1"), Sym::new("b2"))));
        assert!(map.contains(&(Sym::new("a1"), Sym::new("a2"))));
    }

    #[test]
    fn alpha_rejects_different_paths_or_docs() {
        let l = doc_scan("d1", "bib.xml").unnest_map("b1", Scalar::attr("d1").path(p("//book")));
        let r1 = doc_scan("d2", "bib.xml").unnest_map("b2", Scalar::attr("d2").path(p("//entry")));
        assert!(alpha_map(&l, &r1).is_none());
        let r2 = doc_scan("d2", "other.xml").unnest_map("b2", Scalar::attr("d2").path(p("//book")));
        assert!(alpha_map(&l, &r2).is_none());
    }

    #[test]
    fn alpha_map_is_a_bijection() {
        // Reusing the same right attr for two left attrs must fail.
        let l = singleton()
            .map("a", Scalar::int(1))
            .map("b", Scalar::int(2));
        let r = singleton()
            .map("x", Scalar::int(1))
            .map("x2", Scalar::int(2));
        assert!(alpha_map(&l, &r).is_some());
        let r_bad = singleton()
            .map("x", Scalar::int(1))
            .map("x", Scalar::int(2));
        assert!(alpha_map(&l, &r_bad).is_none());
    }
}
