//! Shared side-condition checks for the unnesting equivalences (§4).
//!
//! "Too often, incorrect unnesting procedures have appeared" — every rule
//! in [`crate::eqv`] runs these checks before firing and silently declines
//! otherwise (the driver then keeps the nested plan or tries a more
//! general rule).

use std::collections::BTreeSet;

use nal::expr::attrs::{attr_set, free_vars};
use nal::{CmpOp, Expr, Scalar, Sym};

/// The correlation structure extracted from a nested selection predicate:
/// conjuncts of the form `A1 θ A2` (outer attribute vs. inner attribute),
/// one membership conjunct `A1 ∈ a2`, and residual *local* conjuncts that
/// reference only inner attributes.
#[derive(Debug, Clone)]
pub struct Correlation<'a> {
    /// `(outer, θ, inner)` comparison conjuncts.
    pub pairs: Vec<(Sym, CmpOp, Sym)>,
    /// `outer ∈ nested_attr` membership conjunct, if present.
    pub membership: Option<(Sym, Sym)>,
    /// Conjuncts referencing only the inner expression's attributes —
    /// borrowed from the predicate; a rule copies them when it fires.
    pub local: Vec<&'a Scalar>,
}

impl Correlation<'_> {
    /// All θ of the comparison conjuncts agree (required by Eqv. 1's
    /// single-θ grouping), returning it; `Eq` for an empty list.
    pub fn uniform_theta(&self) -> Option<CmpOp> {
        let mut it = self.pairs.iter().map(|(_, t, _)| *t);
        let first = it.next().unwrap_or(CmpOp::Eq);
        if it.all(|t| t == first) {
            Some(first)
        } else {
            None
        }
    }

    /// The outer-side attributes of the correlation pairs.
    pub fn outer_attrs(&self) -> Vec<Sym> {
        self.pairs.iter().map(|(a, _, _)| *a).collect()
    }

    /// The inner-side attributes of the correlation pairs.
    pub fn inner_attrs(&self) -> Vec<Sym> {
        self.pairs.iter().map(|(_, _, b)| *b).collect()
    }

    /// The local conjuncts as one (owned) predicate; `None` if there
    /// are none.
    pub fn local_pred(&self) -> Option<Scalar> {
        (!self.local.is_empty())
            .then(|| Scalar::conjoin(self.local.iter().map(|c| (*c).clone()).collect()))
    }
}

/// Split the predicate of a correlated selection `σ_p(e2)` (evaluated in
/// the scope of `e1`) into correlation and local parts.
///
/// Returns `None` when some conjunct doesn't fit the recognized shapes
/// (e.g. disjunctions mixing inner and outer attributes) — the rewrite is
/// then not attempted.
pub fn split_correlation<'a>(
    pred: &'a Scalar,
    outer: &BTreeSet<Sym>,
    inner: &BTreeSet<Sym>,
) -> Option<Correlation<'a>> {
    split_conjuncts(pred.conjuncts(), outer, inner)
}

/// [`split_correlation`] over a predicate given as its conjuncts — what
/// a caller holding several selections' predicates passes instead of
/// conjoining copies of them.
pub fn split_conjuncts<'a>(
    conjuncts: impl IntoIterator<Item = &'a Scalar>,
    outer: &BTreeSet<Sym>,
    inner: &BTreeSet<Sym>,
) -> Option<Correlation<'a>> {
    let mut corr = Correlation {
        pairs: Vec::new(),
        membership: None,
        local: Vec::new(),
    };
    for c in conjuncts {
        let refs = c.free_attrs();
        let uses_outer = refs.iter().any(|a| outer.contains(a));
        if !uses_outer {
            // Purely local conjunct — verify it stays within the inner
            // scope (it may reference nothing at all, e.g. constants).
            if refs.iter().all(|a| inner.contains(a)) {
                corr.local.push(c);
                continue;
            }
            return None;
        }
        match c {
            Scalar::Cmp(op, l, r) => match (l.as_ref(), r.as_ref()) {
                (Scalar::Attr(a), Scalar::Attr(b)) if outer.contains(a) && inner.contains(b) => {
                    corr.pairs.push((*a, *op, *b));
                }
                (Scalar::Attr(a), Scalar::Attr(b)) if inner.contains(a) && outer.contains(b) => {
                    corr.pairs.push((*b, op.flip(), *a));
                }
                _ => return None,
            },
            Scalar::In(l, r) => match (l.as_ref(), r.as_ref()) {
                (Scalar::Attr(a), Scalar::Attr(b)) if outer.contains(a) && inner.contains(b) => {
                    if corr.membership.is_some() {
                        return None; // at most one membership conjunct
                    }
                    corr.membership = Some((*a, *b));
                }
                _ => return None,
            },
            _ => return None,
        }
    }
    Some(corr)
}

/// `F(e2) ∩ A(e1) = ∅`: the inner expression proper may not reference the
/// outer scope — the *only* correlation allowed is the extracted
/// predicate. (§4 condition for all equivalences.)
pub fn inner_independent(e2: &Expr, e1: &Expr) -> bool {
    let f2 = free_vars(e2);
    let a1 = attr_set(e1);
    f2.intersection(&a1).next().is_none()
}

/// `A1 ∩ A2 = ∅` (§4: "we further assume the attribute names occurring in
/// e1 and e2 to be different").
pub fn attrs_disjoint(e1: &Expr, e2: &Expr) -> bool {
    let a1 = attr_set(e1);
    let a2 = attr_set(e2);
    a1.intersection(&a2).next().is_none()
}

/// `g ∉ A(e1) ∪ A(e2)` (§4: "a new attribute g").
pub fn is_fresh(g: Sym, e1: &Expr, e2: &Expr) -> bool {
    !attr_set(e1).contains(&g) && !attr_set(e2).contains(&g)
}

/// `Ai ⊆ A(ei)`.
pub fn provides_attrs(e: &Expr, needed: &[Sym]) -> bool {
    let a = attr_set(e);
    needed.iter().all(|n| a.contains(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::Value;

    fn set(names: &[&str]) -> BTreeSet<Sym> {
        names.iter().map(|n| Sym::new(n)).collect()
    }

    #[test]
    fn splits_simple_correlation() {
        let p = Scalar::attr_cmp(CmpOp::Eq, "a1", "a2");
        let c = split_correlation(&p, &set(&["a1"]), &set(&["a2", "b2"])).unwrap();
        assert_eq!(c.pairs, vec![(Sym::new("a1"), CmpOp::Eq, Sym::new("a2"))]);
        assert!(c.membership.is_none());
        assert!(c.local.is_empty());
        assert_eq!(c.uniform_theta(), Some(CmpOp::Eq));
    }

    #[test]
    fn flips_reversed_comparison() {
        // a2 < a1 (inner on the left) normalizes to a1 > a2.
        let p = Scalar::attr_cmp(CmpOp::Lt, "a2", "a1");
        let c = split_correlation(&p, &set(&["a1"]), &set(&["a2"])).unwrap();
        assert_eq!(c.pairs, vec![(Sym::new("a1"), CmpOp::Gt, Sym::new("a2"))]);
    }

    #[test]
    fn splits_membership_and_local() {
        let p = Scalar::is_in(Scalar::attr("a1"), Scalar::attr("a2")).and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("b2"),
            Scalar::int(3),
        ));
        let c = split_correlation(&p, &set(&["a1"]), &set(&["a2", "b2"])).unwrap();
        assert_eq!(c.membership, Some((Sym::new("a1"), Sym::new("a2"))));
        assert_eq!(c.local.len(), 1);
    }

    #[test]
    fn rejects_unrecognized_shapes() {
        // Disjunction mixing scopes.
        let p = Scalar::attr_cmp(CmpOp::Eq, "a1", "a2").or(Scalar::attr("b2"));
        assert!(split_correlation(&p, &set(&["a1"]), &set(&["a2", "b2"])).is_none());
        // Outer-only conjunct that is not a comparison against inner.
        let p = Scalar::cmp(CmpOp::Gt, Scalar::attr("a1"), Scalar::int(0));
        assert!(split_correlation(&p, &set(&["a1"]), &set(&["a2"])).is_none());
        // Two membership conjuncts.
        let p = Scalar::is_in(Scalar::attr("a1"), Scalar::attr("a2"))
            .and(Scalar::is_in(Scalar::attr("a1"), Scalar::attr("b2")));
        assert!(split_correlation(&p, &set(&["a1"]), &set(&["a2", "b2"])).is_none());
    }

    #[test]
    fn mixed_theta_has_no_uniform() {
        let p =
            Scalar::attr_cmp(CmpOp::Eq, "a1", "a2").and(Scalar::attr_cmp(CmpOp::Lt, "b1", "b2"));
        let c = split_correlation(&p, &set(&["a1", "b1"]), &set(&["a2", "b2"])).unwrap();
        assert_eq!(c.uniform_theta(), None);
    }

    #[test]
    fn structural_conditions() {
        let e1 = singleton().map("a1", Scalar::int(1));
        let e2 = singleton().map("a2", Scalar::int(2));
        assert!(attrs_disjoint(&e1, &e2));
        assert!(is_fresh(Sym::new("g"), &e1, &e2));
        assert!(!is_fresh(Sym::new("a1"), &e1, &e2));
        assert!(provides_attrs(&e1, &[Sym::new("a1")]));
        assert!(!provides_attrs(&e1, &[Sym::new("zz")]));
        // A correlated e2 is not independent.
        let corr = singleton()
            .map("a2", Scalar::int(2))
            .select(Scalar::attr_cmp(CmpOp::Eq, "a1", "a2"));
        assert!(!inner_independent(&corr, &e1));
        assert!(inner_independent(&e2, &e1));
        let _ = Value::Null; // silence unused import in some cfgs
    }
}
