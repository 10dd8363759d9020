//! Static attribute analysis: `A(e)` (produced attributes) and `F(e)`
//! (free variables) of §2, plus the nested-attribute inference that `μ`
//! needs to know the schema of a tuple-valued attribute.
//!
//! Both analyses are the backbone of the rewriter's side-condition checks
//! (`Ai ⊆ A(ei)`, `F(e2) ∩ A(e1) = ∅`, `g ∉ A(e1) ∪ A(e2)`, …).

use std::collections::BTreeSet;

use crate::expr::{Expr, ProjOp};
use crate::scalar::{AggKind, GroupFn, Scalar};
use crate::sym::Sym;

/// `A(e)` — the attributes of the tuples produced by `e`, sorted.
pub fn attrs(e: &Expr) -> Vec<Sym> {
    let set = attr_set(e);
    set.into_iter().collect()
}

/// `A(e)` as a set.
pub fn attr_set(e: &Expr) -> BTreeSet<Sym> {
    match e {
        Expr::Singleton => BTreeSet::new(),
        Expr::Literal(rows) => rows.iter().flat_map(|t| t.attrs()).collect(),
        // The schema of an environment-provided nested relation is not
        // statically known here.
        Expr::AttrRel(_) => BTreeSet::new(),
        Expr::Select { input, .. } | Expr::XiSimple { input, .. } => attr_set(input),
        Expr::Project { input, op } => match op {
            ProjOp::Cols(cols) | ProjOp::DistinctCols(cols) => cols.iter().copied().collect(),
            ProjOp::Drop(cols) => {
                let mut s = attr_set(input);
                for c in cols {
                    s.remove(c);
                }
                s
            }
            ProjOp::Rename(pairs) => attr_set(input)
                .into_iter()
                .map(|a| {
                    pairs
                        .iter()
                        .find(|(_, old)| *old == a)
                        .map(|(new, _)| *new)
                        .unwrap_or(a)
                })
                .collect(),
            ProjOp::DistinctRename(pairs) => pairs.iter().map(|(new, _)| *new).collect(),
        },
        Expr::Map { input, attr, .. } => {
            let mut s = attr_set(input);
            s.insert(*attr);
            s
        }
        Expr::Cross { left, right } | Expr::Join { left, right, .. } => {
            let mut s = attr_set(left);
            s.extend(attr_set(right));
            s
        }
        Expr::SemiJoin { left, .. } | Expr::AntiJoin { left, .. } => attr_set(left),
        Expr::OuterJoin { left, right, .. } => {
            let mut s = attr_set(left);
            s.extend(attr_set(right));
            s
        }
        Expr::GroupUnary { g, by, .. } => {
            let mut s: BTreeSet<Sym> = by.iter().copied().collect();
            s.insert(*g);
            s
        }
        Expr::GroupBinary { left, g, .. } => {
            let mut s = attr_set(left);
            s.insert(*g);
            s
        }
        Expr::Unnest { input, attr, .. } => {
            let mut s = attr_set(input);
            s.remove(attr);
            if let Some(inner) = nested_attrs(input, *attr) {
                s.extend(inner);
            }
            s
        }
        Expr::UnnestMap { input, attr, .. } => {
            let mut s = attr_set(input);
            s.insert(*attr);
            s
        }
        Expr::XiGroup { by, .. } => by.iter().copied().collect(),
    }
}

/// Infer the attribute set `A(a)` of a *nested* (tuple-sequence-valued)
/// attribute `target` produced somewhere inside `e`. Returns `None` when
/// the attribute is not statically known to be tuple-valued.
pub fn nested_attrs(e: &Expr, target: Sym) -> Option<Vec<Sym>> {
    match e {
        Expr::Map { input, attr, value } => {
            if *attr == target {
                scalar_nested_attrs(value)
            } else {
                nested_attrs(input, target)
            }
        }
        Expr::GroupUnary { input, g, f, .. } => {
            if *g == target {
                groupfn_nested_attrs(f, input)
            } else {
                nested_attrs(input, target)
            }
        }
        Expr::GroupBinary {
            left, right, g, f, ..
        } => {
            if *g == target {
                groupfn_nested_attrs(f, right)
            } else {
                nested_attrs(left, target)
            }
        }
        Expr::OuterJoin { left, right, g, .. } => {
            if *g == target || attr_set(right).contains(&target) {
                nested_attrs(right, target)
            } else {
                nested_attrs(left, target)
            }
        }
        Expr::Project { input, op } => match op {
            ProjOp::Rename(pairs) | ProjOp::DistinctRename(pairs) => {
                let old = pairs
                    .iter()
                    .find(|(new, _)| *new == target)
                    .map(|(_, old)| *old)
                    .unwrap_or(target);
                nested_attrs(input, old)
            }
            _ => nested_attrs(input, target),
        },
        Expr::Select { input, .. }
        | Expr::Unnest { input, .. }
        | Expr::UnnestMap { input, .. }
        | Expr::XiSimple { input, .. }
        | Expr::XiGroup { input, .. } => nested_attrs(input, target),
        Expr::Cross { left, right } | Expr::Join { left, right, .. } => {
            if attr_set(left).contains(&target) {
                nested_attrs(left, target)
            } else {
                nested_attrs(right, target)
            }
        }
        Expr::SemiJoin { left, .. } | Expr::AntiJoin { left, .. } => nested_attrs(left, target),
        Expr::Singleton | Expr::AttrRel(_) => None,
        Expr::Literal(rows) => {
            // Every row's nested tuples count: a later row's may carry an
            // attribute the first one's do not. An empty nested relation
            // carries no schema (a `Some(vec![])` for a literal with only
            // empty ones would fabricate an empty grouping key list
            // downstream).
            let mut set: Option<BTreeSet<Sym>> = None;
            for t in rows {
                match t.get(target) {
                    Some(crate::value::Value::Tuples(ts)) if !ts.is_empty() => {
                        let set = set.get_or_insert_with(BTreeSet::new);
                        ts.iter().for_each(|inner| set.extend(inner.attrs()));
                    }
                    _ => {}
                }
            }
            set.map(|set| set.into_iter().collect())
        }
    }
}

fn scalar_nested_attrs(s: &Scalar) -> Option<Vec<Sym>> {
    match s {
        Scalar::Lift(_, a) => Some(vec![*a]),
        Scalar::Agg { f, input } => groupfn_nested_attrs(f, input),
        _ => None,
    }
}

fn groupfn_nested_attrs(f: &GroupFn, input: &Expr) -> Option<Vec<Sym>> {
    if f.agg != AggKind::Tuples {
        return None;
    }
    match f.project {
        Some(p) => Some(vec![p]),
        None => Some(attrs(input)),
    }
}

/// `F(e)` — the free variables of `e`: attributes referenced by scalars
/// that are not produced by the expression's own inputs. A nested
/// expression with free variables must be evaluated once per binding of
/// those variables — exactly what unnesting eliminates.
pub fn free_vars(e: &Expr) -> BTreeSet<Sym> {
    match e {
        Expr::Singleton | Expr::Literal(_) => BTreeSet::new(),
        // reads the enclosing environment — the attribute itself is free
        Expr::AttrRel(a) => std::iter::once(*a).collect(),
        Expr::Select { input, pred } => unary_free(input, Some(pred)),
        Expr::Project { input, .. }
        | Expr::XiSimple { input, .. }
        | Expr::XiGroup { input, .. }
        | Expr::Unnest { input, .. } => unary_free(input, None),
        Expr::Map { input, value, .. } | Expr::UnnestMap { input, value, .. } => {
            unary_free(input, Some(value))
        }
        Expr::Cross { left, right } => binary_free(left, right, None),
        Expr::Join { left, right, pred }
        | Expr::SemiJoin { left, right, pred }
        | Expr::AntiJoin { left, right, pred }
        | Expr::OuterJoin {
            left, right, pred, ..
        } => binary_free(left, right, Some(pred)),
        Expr::GroupUnary { input, f, .. } => {
            let mut out = unary_free(input, None);
            if let Some(p) = &f.filter {
                let mut inner = p.free_attrs();
                for a in attr_set(input) {
                    inner.remove(&a);
                }
                out.extend(inner);
            }
            out
        }
        Expr::GroupBinary { left, right, f, .. } => {
            let mut out = binary_free(left, right, None);
            if let Some(p) = &f.filter {
                let mut inner = p.free_attrs();
                for a in attr_set(left).union(&attr_set(right)) {
                    inner.remove(a);
                }
                out.extend(inner);
            }
            out
        }
    }
}

fn unary_free(input: &Expr, scalar: Option<&Scalar>) -> BTreeSet<Sym> {
    let mut out = free_vars(input);
    if let Some(s) = scalar {
        let mut refs = s.free_attrs();
        for a in attr_set(input) {
            refs.remove(&a);
        }
        out.extend(refs);
    }
    out
}

fn binary_free(left: &Expr, right: &Expr, scalar: Option<&Scalar>) -> BTreeSet<Sym> {
    let mut out = free_vars(left);
    out.extend(free_vars(right));
    if let Some(s) = scalar {
        let mut refs = s.free_attrs();
        for a in attr_set(left).union(&attr_set(right)) {
            refs.remove(a);
        }
        out.extend(refs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builder::*;
    use crate::value::CmpOp;

    fn s(n: &str) -> Sym {
        Sym::new(n)
    }

    #[test]
    fn attrs_of_basic_pipeline() {
        let e = doc_scan("d1", "bib.xml").unnest_map("b1", Scalar::attr("d1"));
        assert_eq!(attrs(&e), vec![s("b1"), s("d1")]);
        let p = e.clone().project(&["b1"]);
        assert_eq!(attrs(&p), vec![s("b1")]);
        let d = e.clone().drop_attrs(&["d1"]);
        assert_eq!(attrs(&d), vec![s("b1")]);
        let r = e.rename(&[("book", "b1")]);
        assert_eq!(attrs(&r), vec![s("book"), s("d1")]);
    }

    #[test]
    fn attrs_of_joins_and_groups() {
        let l = singleton().map("a", Scalar::int(1));
        let r = singleton().map("b", Scalar::int(2));
        let j = l
            .clone()
            .join(r.clone(), Scalar::attr_cmp(CmpOp::Eq, "a", "b"));
        assert_eq!(attrs(&j), vec![s("a"), s("b")]);
        let sj = l
            .clone()
            .semijoin(r.clone(), Scalar::attr_cmp(CmpOp::Eq, "a", "b"));
        assert_eq!(attrs(&sj), vec![s("a")]);
        let g = r
            .clone()
            .group_unary("g", &["b"], CmpOp::Eq, crate::scalar::GroupFn::count());
        assert_eq!(attrs(&g), vec![s("b"), s("g")]);
        let gb = l.group_binary(
            r,
            "g",
            &["a"],
            CmpOp::Eq,
            &["b"],
            crate::scalar::GroupFn::id(),
        );
        assert_eq!(attrs(&gb), vec![s("a"), s("g")]);
    }

    #[test]
    fn distinct_rename_projects_to_new_names() {
        let e = singleton()
            .map("a2", Scalar::int(1))
            .map("x", Scalar::int(2))
            .distinct_rename(&[("a1", "a2")]);
        assert_eq!(attrs(&e), vec![s("a1")]);
    }

    #[test]
    fn unnest_recovers_nested_attrs() {
        // Γ_binary with f = id nests the right attrs; μ recovers them.
        let l = singleton().map("a", Scalar::int(1));
        let r = singleton()
            .map("b", Scalar::int(2))
            .map("c", Scalar::int(3));
        let gb = l.group_binary(
            r,
            "g",
            &["a"],
            CmpOp::Eq,
            &["b"],
            crate::scalar::GroupFn::id(),
        );
        assert_eq!(nested_attrs(&gb, s("g")), Some(vec![s("b"), s("c")]));
        let un = gb.unnest("g");
        assert_eq!(attrs(&un), vec![s("a"), s("b"), s("c")]);
    }

    #[test]
    fn lift_gives_single_nested_attr() {
        let e = singleton().map("a2", Scalar::attr("b2").lift("a2x"));
        assert_eq!(nested_attrs(&e, s("a2")), Some(vec![s("a2x")]));
        let un = e.unnest_distinct("a2");
        assert!(attrs(&un).contains(&s("a2x")));
    }

    #[test]
    fn free_vars_of_correlated_subexpression() {
        // σ_{a1 = a2}(e2) where a2 comes from e2 but a1 is free.
        let e2 = singleton().map("a2", Scalar::int(1));
        let sel = e2.select(Scalar::attr_cmp(CmpOp::Eq, "a1", "a2"));
        let fv = free_vars(&sel);
        assert!(fv.contains(&s("a1")));
        assert!(!fv.contains(&s("a2")));
    }

    #[test]
    fn free_vars_of_nested_agg() {
        // χ_{m:min(σ_{t1=t2}(e2))}(e1): the nested input references t1
        // (from e1), so the map's scalar has t1 free — but the whole
        // expression has no free variables because e1 provides t1.
        let e1 = singleton().map("t1", Scalar::int(1));
        let e2 = singleton()
            .map("t2", Scalar::int(2))
            .map("c2", Scalar::int(3));
        let nested = e2.select(Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        assert_eq!(
            free_vars(&nested).into_iter().collect::<Vec<_>>(),
            vec![s("t1")]
        );
        let whole = e1.map(
            "m",
            Scalar::Agg {
                f: crate::scalar::GroupFn::agg_of(crate::scalar::AggKind::Min, "c2"),
                input: Box::new(nested),
            },
        );
        assert!(free_vars(&whole).is_empty());
    }
}
