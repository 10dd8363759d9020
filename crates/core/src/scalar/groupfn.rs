//! Group functions — the `f` of the grouping operators and unnesting
//! equivalences.
//!
//! The paper's Γ and equivalences use `f` compositions such as `id`,
//! `count`, `Π_{t2}`, `min ∘ Π_{c2}`, and `count ∘ σ_p` (Eqv. 8/9). A
//! [`GroupFn`] is exactly that composition pipeline:
//!
//! ```text
//!   f  =  agg ∘ project? ∘ filter?
//! ```
//!
//! applied to a tuple sequence (a group). Crucially, `f` must "assign a
//! meaningful value to empty groups" (§2) — that value, [`GroupFn::on_empty`],
//! is what the outer join of Eqv. 2/4 pads unmatched tuples with.

use std::fmt;

use xmldb::Catalog;

use crate::scalar::func::min_max_items;
use crate::scalar::Scalar;
use crate::sequence::collect_items;
use crate::sym::Sym;
use crate::tuple::Tuple;
use crate::value::{Dec, Value};

/// Final aggregation step of a group function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggKind {
    /// Identity on the tuple sequence (the paper's `id`): the group value
    /// is the nested relation itself.
    Tuples,
    /// Project to the item sequence of a single attribute (the paper's
    /// `Π_a` used as `f`, e.g. `Π_{t2}` in §5.1). Requires `project`.
    Items,
    /// `count` — group cardinality.
    Count,
    /// `sum` — numeric sum of the projected items.
    Sum,
    /// `min` — minimum of the projected items.
    Min,
    /// `max` — maximum of the projected items.
    Max,
    /// `avg` — mean of the projected items.
    Avg,
}

impl AggKind {
    /// Display name of the aggregate.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Tuples => "id",
            AggKind::Items => "Π",
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::Avg => "avg",
        }
    }
}

/// A group function `f`.
#[derive(Clone, PartialEq, Debug)]
pub struct GroupFn {
    /// Optional pre-filter (`count ∘ σ_p` in Eqv. 8/9). Evaluated against
    /// each group tuple.
    pub filter: Option<Box<Scalar>>,
    /// Optional projection to a single attribute before aggregating.
    pub project: Option<Sym>,
    /// The aggregate applied to the (filtered, projected) group.
    pub agg: AggKind,
}

impl GroupFn {
    /// `id` — the group itself, as a nested relation.
    pub fn id() -> GroupFn {
        GroupFn {
            filter: None,
            project: None,
            agg: AggKind::Tuples,
        }
    }

    /// `count`.
    pub fn count() -> GroupFn {
        GroupFn {
            filter: None,
            project: None,
            agg: AggKind::Count,
        }
    }

    /// `Π_a` — the item sequence of attribute `a`.
    pub fn project_items(a: impl Into<Sym>) -> GroupFn {
        GroupFn {
            filter: None,
            project: Some(a.into()),
            agg: AggKind::Items,
        }
    }

    /// `agg ∘ Π_a`, e.g. `min ∘ Π_{c2}`.
    pub fn agg_of(agg: AggKind, a: impl Into<Sym>) -> GroupFn {
        GroupFn {
            filter: None,
            project: Some(a.into()),
            agg,
        }
    }

    /// Add a filter stage: `self ∘ σ_p`.
    pub fn filtered(mut self, p: Scalar) -> GroupFn {
        self.filter = Some(Box::new(p));
        self
    }

    /// Apply `f` to a group. The `env` is the environment the filter
    /// predicate may reference (outer bindings); filter evaluation is
    /// delegated to the caller-supplied closure so this module stays
    /// independent of the evaluator.
    pub fn apply_with<E>(
        &self,
        group: &[Tuple],
        catalog: &Catalog,
        mut eval_filter: E,
    ) -> Result<Value, String>
    where
        E: FnMut(&Scalar, &Tuple) -> Result<bool, String>,
    {
        let kept;
        let filtered: &[Tuple] = match &self.filter {
            None => group,
            Some(p) => {
                let mut passing = Vec::with_capacity(group.len());
                for t in group {
                    if eval_filter(p, t)? {
                        passing.push(t.clone());
                    }
                }
                kept = passing;
                &kept
            }
        };
        self.aggregate(filtered, catalog)
    }

    /// Apply to a group that is already filtered (or has no filter).
    pub fn aggregate(&self, group: &[Tuple], catalog: &Catalog) -> Result<Value, String> {
        match self.agg {
            AggKind::Tuples => Ok(match self.project {
                None => Value::Tuples(group.iter().cloned().collect()),
                Some(a) => Value::Tuples(group.iter().map(|t| t.project(&[a])).collect()),
            }),
            AggKind::Items => {
                let a = self.project.ok_or_else(|| {
                    "Π group function requires a projection attribute".to_string()
                })?;
                Ok(collect_items(group, a))
            }
            AggKind::Count => Ok(Value::Int(group.len() as i64)),
            AggKind::Min | AggKind::Max => {
                let items = self.projected_items(group)?;
                Ok(min_max_items(self.agg == AggKind::Min, &items, catalog))
            }
            AggKind::Sum | AggKind::Avg => {
                let items = self.projected_items(group)?;
                let nums: Vec<f64> = items
                    .atomize(catalog)
                    .as_items()
                    .iter()
                    .filter_map(Value::as_number)
                    .collect();
                // `Iterator::sum` for f64 folds from -0.0, which our
                // total-order Dec distinguishes from 0.0 — fold explicitly.
                let total = nums.iter().fold(0.0f64, |a, b| a + b);
                if self.agg == AggKind::Sum {
                    Ok(Value::Dec(Dec(total)))
                } else if nums.is_empty() {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Dec(Dec(total / nums.len() as f64)))
                }
            }
        }
    }

    fn projected_items(&self, group: &[Tuple]) -> Result<Value, String> {
        let a = self.project.ok_or_else(|| {
            format!(
                "{} group function requires a projection attribute",
                self.agg.name()
            )
        })?;
        Ok(collect_items(group, a))
    }

    /// `f(ε)` — the value for the empty group; the outer-join default `e`
    /// of `⟕^{g:e}` in Eqv. 2 and 4.
    pub fn on_empty(&self) -> Value {
        match self.agg {
            AggKind::Tuples => Value::tuples(vec![]),
            AggKind::Items => Value::Items(vec![].into()),
            AggKind::Count => Value::Int(0),
            AggKind::Sum => Value::Dec(Dec(0.0)),
            AggKind::Min | AggKind::Max | AggKind::Avg => Value::Null,
        }
    }

    /// Check the Eqv. 4/5 side condition that `f` does not depend on the
    /// given attributes ("the function f may not depend on the values of
    /// the attributes a2 and A2", §4): neither the projection nor the
    /// filter may reference them.
    pub fn independent_of(&self, attrs: &[Sym]) -> bool {
        if let Some(p) = self.project {
            if attrs.contains(&p) {
                return false;
            }
        }
        if let Some(f) = &self.filter {
            if f.free_attrs().iter().any(|a| attrs.contains(a)) {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for GroupFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.agg, self.project) {
            (AggKind::Items, Some(p)) => write!(f, "Π{p}")?,
            (agg, Some(p)) => write!(f, "{}∘Π{p}", agg.name())?,
            (agg, None) => write!(f, "{}", agg.name())?,
        }
        if let Some(p) = &self.filter {
            write!(f, "∘σ[{p}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: &str) -> Sym {
        Sym::new(n)
    }

    fn group() -> Vec<Tuple> {
        vec![
            Tuple::from_pairs(vec![(s("a"), Value::Int(1)), (s("b"), Value::Int(10))]),
            Tuple::from_pairs(vec![(s("a"), Value::Int(2)), (s("b"), Value::Int(30))]),
            Tuple::from_pairs(vec![(s("a"), Value::Int(3)), (s("b"), Value::Int(20))]),
        ]
    }

    fn cat() -> Catalog {
        Catalog::new()
    }

    #[test]
    fn id_returns_nested_relation() {
        let g = group();
        let v = GroupFn::id().aggregate(&g, &cat()).unwrap();
        assert_eq!(v, Value::tuples(g));
    }

    #[test]
    fn count_min_max_sum_avg() {
        let g = group();
        let c = cat();
        assert_eq!(GroupFn::count().aggregate(&g, &c).unwrap(), Value::Int(3));
        assert_eq!(
            GroupFn::agg_of(AggKind::Min, "b")
                .aggregate(&g, &c)
                .unwrap(),
            Value::Dec(Dec(10.0))
        );
        assert_eq!(
            GroupFn::agg_of(AggKind::Max, "b")
                .aggregate(&g, &c)
                .unwrap(),
            Value::Dec(Dec(30.0))
        );
        assert_eq!(
            GroupFn::agg_of(AggKind::Sum, "b")
                .aggregate(&g, &c)
                .unwrap(),
            Value::Dec(Dec(60.0))
        );
        assert_eq!(
            GroupFn::agg_of(AggKind::Avg, "b")
                .aggregate(&g, &c)
                .unwrap(),
            Value::Dec(Dec(20.0))
        );
    }

    #[test]
    fn project_items_preserves_group_order() {
        let g = group();
        let v = GroupFn::project_items("b").aggregate(&g, &cat()).unwrap();
        assert_eq!(
            v,
            Value::Items(vec![Value::Int(10), Value::Int(30), Value::Int(20)].into())
        );
    }

    #[test]
    fn empty_group_values() {
        assert_eq!(GroupFn::count().on_empty(), Value::Int(0));
        assert_eq!(GroupFn::id().on_empty(), Value::tuples(vec![]));
        assert_eq!(GroupFn::agg_of(AggKind::Min, "x").on_empty(), Value::Null);
        // on_empty must agree with aggregate(ε) — the correctness hinge of
        // the outer-join equivalences.
        let c = cat();
        for f in [
            GroupFn::count(),
            GroupFn::id(),
            GroupFn::project_items("x"),
            GroupFn::agg_of(AggKind::Min, "x"),
            GroupFn::agg_of(AggKind::Sum, "x"),
            GroupFn::agg_of(AggKind::Avg, "x"),
        ] {
            assert_eq!(f.aggregate(&[], &c).unwrap(), f.on_empty(), "f = {f}");
        }
    }

    #[test]
    fn filter_stage() {
        use crate::value::CmpOp;
        let g = group();
        let f =
            GroupFn::count().filtered(Scalar::cmp(CmpOp::Gt, Scalar::attr("b"), Scalar::int(15)));
        let v = f
            .apply_with(&g, &cat(), |p, t| {
                // minimal filter evaluator for the test
                let Scalar::Cmp(op, l, r) = p else { panic!() };
                let Scalar::Attr(a) = **l else { panic!() };
                let Scalar::Const(ref k) = **r else { panic!() };
                Ok(crate::value::cmp_atomic(*op, t.get(a).unwrap(), k, &cat()))
            })
            .unwrap();
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn independence_check() {
        let f = GroupFn::agg_of(AggKind::Min, "c2");
        assert!(f.independent_of(&[s("a2"), s("x2")]));
        assert!(!f.independent_of(&[s("c2")]));
        let g = GroupFn::count().filtered(Scalar::attr_cmp(crate::value::CmpOp::Eq, "a2", "b2"));
        assert!(!g.independent_of(&[s("a2")]));
        assert!(GroupFn::count().independent_of(&[s("anything")]));
    }

    #[test]
    fn display() {
        assert_eq!(GroupFn::count().to_string(), "count");
        assert_eq!(GroupFn::project_items("t2").to_string(), "Πt2");
        assert_eq!(GroupFn::agg_of(AggKind::Min, "c2").to_string(), "min∘Πc2");
    }
}
