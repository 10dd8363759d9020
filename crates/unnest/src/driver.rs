//! Rewrite driver: rule application strategy and plan enumeration.
//!
//! §4: "all unnesting equivalences will be applied from left to right.
//! Whenever there are alternative applications, the most efficient plan
//! should be chosen. This plan typically results from the equivalences
//! with the most restrictive conditions attached."
//!
//! [`enumerate_plans`] produces the named alternatives the paper's
//! experiments compare (nested / outer join / grouping / group Ξ /
//! semijoin / anti-semijoin); [`unnest_best`] picks the most restrictive
//! applicable chain.
//!
//! # The in-place contract
//!
//! A strategy owns one `Expr` and rewrites it where it stands. One step
//! ([`Rule::apply_anywhere`]) visits the dataflow tree top-down, left
//! operand before right, and replaces the **first** node the rule
//! matches through the `&mut` it reached it by — the ancestors are not
//! rebuilt and nothing is copied unless the rule fires. A run
//! ([`apply_preferring`]) tries its rules in **preference order**, fires
//! the first that matches anywhere, starts over from the first rule, and
//! stops when none matches — which node a rule rewrites and which rule
//! wins are what they were when each step rebuilt the plan, so labels,
//! rule traces and plans are unchanged (`tests/plan_set_golden.rs`,
//! `tests/rewrite_driver_props.rs`).
//!
//! # The shared Eqv. 6/7 prefix
//!
//! Three of the four [`STRATEGIES`] prefer Eqv. 6 and Eqv. 7 over their
//! own rules. While either fires, no later rule of a list is tried, so
//! each of those runs *begins* with the fixpoint of `[Eqv6, Eqv7]` on
//! the pruned plan — the same expression and the same trace prefix for
//! all three. [`enumerate_plans`] computes it once and lets every such
//! strategy continue from a copy (Eqv. 6/7 stay in the continued list:
//! a later rewrite may expose another quantifier). Invariant: a
//! continued run equals the strategy run from the pruned root.

use nal::expr::visit;
use nal::Expr;
use xmldb::Catalog;

use crate::classic;
use crate::eqv;

/// A rewrite rule identifier (for traces and tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    /// Eqv. 1 — nest-join.
    Eqv1,
    /// Eqv. 2 — outer join + unary Γ.
    Eqv2,
    /// Eqv. 3 — unary Γ (distinctness condition).
    Eqv3,
    /// Eqv. 4 — outer join + Γ ∘ μ^D.
    Eqv4,
    /// Eqv. 5 — unary Γ ∘ μ^D (distinctness condition).
    Eqv5,
    /// Eqv. 6 — ∃ → semijoin.
    Eqv6,
    /// Eqv. 7 — ∀ → anti-join on ¬p.
    Eqv7,
    /// Eqv. 8 — count-filter → semi/anti join.
    Eqv8,
    /// Eqv. 9 — count-filter via unary grouping.
    Eqv9,
    /// Eqv. 8 with a self-comparable group filter.
    Eqv8Self,
    /// Classical selection push-down (§2).
    PushRight,
    /// Ξ fusion into grouped serialization.
    XiFuse,
}

impl Rule {
    /// Display name (paper reference included).
    pub fn name(self) -> &'static str {
        match self {
            Rule::Eqv1 => "Eqv.1 (nest-join)",
            Rule::Eqv2 => "Eqv.2 (outer join + Γ)",
            Rule::Eqv3 => "Eqv.3 (unary Γ)",
            Rule::Eqv4 => "Eqv.4 (outer join + Γ ∘ μD)",
            Rule::Eqv5 => "Eqv.5 (unary Γ ∘ μD)",
            Rule::Eqv6 => "Eqv.6 (∃ → ⋉)",
            Rule::Eqv7 => "Eqv.7 (∀ → ▷)",
            Rule::Eqv8 => "Eqv.8 (⋉ → count>0)",
            Rule::Eqv9 => "Eqv.9 (▷ → count=0)",
            Rule::Eqv8Self => "self-⋉ → group-filter (§5.4)",
            Rule::PushRight => "push predicate into right operand",
            Rule::XiFuse => "Ξ fusion (group-detecting Ξ)",
        }
    }

    /// Try this rule at the root of `expr`.
    pub fn apply_at(self, expr: &Expr, catalog: &Catalog) -> Option<Expr> {
        match self {
            Rule::Eqv1 => eqv::eqv1(expr),
            Rule::Eqv2 => eqv::eqv2(expr),
            Rule::Eqv3 => eqv::eqv3(expr, catalog),
            Rule::Eqv4 => eqv::eqv4(expr),
            Rule::Eqv5 => eqv::eqv5(expr, catalog),
            Rule::Eqv6 => eqv::eqv6(expr),
            Rule::Eqv7 => eqv::eqv7(expr),
            Rule::Eqv8 => eqv::eqv8(expr, catalog),
            Rule::Eqv9 => eqv::eqv9(expr, catalog),
            Rule::Eqv8Self => eqv::eqv8_self(expr),
            Rule::PushRight => classic::push_pred_into_right(expr),
            Rule::XiFuse => eqv::xi_fuse(expr),
        }
    }

    /// Try this rule at the first matching node, searching the dataflow
    /// tree top-down (pre-order, left before right), and rewrite that
    /// node **in place**: `*node = rewritten`. The ancestors are not
    /// rebuilt and nothing is copied unless the rule fires. Returns
    /// whether it fired.
    pub fn apply_anywhere(self, expr: &mut Expr, catalog: &Catalog) -> bool {
        if let Some(rewritten) = self.apply_at(expr, catalog) {
            *expr = rewritten;
            return true;
        }
        visit::children_mut(expr).any(|child| self.apply_anywhere(child, catalog))
    }
}

/// One rewritten plan with its label and the applied rule trace.
#[derive(Clone, Debug)]
pub struct PlanChoice {
    /// Plan label (`nested`, `outer join`, `semijoin`, …).
    pub label: String,
    /// The rewritten expression.
    pub expr: Expr,
    /// Names of the rules that fired, in order.
    pub trace: Vec<&'static str>,
}

/// Rule trace of [`unnest_best`].
#[derive(Clone, Debug, Default)]
pub struct RewriteTrace {
    /// Names of the rules that fired, in order.
    pub steps: Vec<&'static str>,
}

/// Most rule firings one strategy run may make. Generous: realistic
/// chains are 1–4 rules long.
const MAX_FIRINGS: usize = 64;

/// Apply `rules` (in preference order) anywhere in the expression until a
/// fixpoint, returning the result and the applied-rule trace.
pub fn apply_preferring(
    expr: &Expr,
    rules: &[Rule],
    catalog: &Catalog,
) -> (Expr, Vec<&'static str>) {
    let mut current = expr.clone();
    let mut trace = Vec::new();
    run_to_fixpoint(&mut current, rules, catalog, &mut trace);
    (current, trace)
}

/// The fixpoint loop behind [`apply_preferring`], in place on `expr`:
/// fire the first rule of `rules` that matches anywhere, start over from
/// the first rule, stop when none matches. `trace` may arrive non-empty
/// — a run continued from a shared prefix — and its firings count
/// towards [`MAX_FIRINGS`] like the run's own.
fn run_to_fixpoint(
    expr: &mut Expr,
    rules: &[Rule],
    catalog: &Catalog,
    trace: &mut Vec<&'static str>,
) {
    while trace.len() < MAX_FIRINGS {
        let Some(rule) = rules.iter().find(|r| r.apply_anywhere(expr, catalog)) else {
            break;
        };
        trace.push(rule.name());
    }
}

/// The quantifier rules every strategy but `nest-join` prefers over its
/// own: a run of such a strategy begins with this list's fixpoint.
const QUANTIFIER_PREFIX: [Rule; 2] = [Rule::Eqv6, Rule::Eqv7];

/// One enumeration strategy of [`enumerate_plans`].
#[derive(Clone, Copy, Debug)]
pub struct Strategy {
    /// The label its plan carries.
    pub label: &'static str,
    /// Its rules, in preference order.
    pub rules: &'static [Rule],
    /// The rules one of which must have fired for the result to carry
    /// the label (a "grouping" run that only managed Eqv. 6 produced a
    /// plain semijoin and must not claim the grouping label).
    pub defining: &'static [Rule],
}

/// The enumeration strategies, in the order their plans are offered.
pub const STRATEGIES: [Strategy; 4] = [
    Strategy {
        label: "grouping",
        rules: &[
            Rule::Eqv6,
            Rule::Eqv7,
            Rule::Eqv3,
            Rule::Eqv5,
            Rule::Eqv8,
            Rule::Eqv9,
            Rule::Eqv8Self,
            Rule::PushRight,
        ],
        defining: &[
            Rule::Eqv3,
            Rule::Eqv5,
            Rule::Eqv8,
            Rule::Eqv9,
            Rule::Eqv8Self,
        ],
    },
    Strategy {
        label: "outer join",
        rules: &[
            Rule::Eqv6,
            Rule::Eqv7,
            Rule::Eqv2,
            Rule::Eqv4,
            Rule::PushRight,
        ],
        defining: &[Rule::Eqv2, Rule::Eqv4],
    },
    Strategy {
        label: "nest-join",
        rules: &[Rule::Eqv1],
        defining: &[Rule::Eqv1],
    },
    Strategy {
        label: "semijoin",
        rules: &[Rule::Eqv6, Rule::Eqv7, Rule::PushRight],
        defining: &[Rule::Eqv6, Rule::Eqv7],
    },
];

/// Enumerate the named plan alternatives for `expr` — always starting
/// with the nested (original) plan, then each distinct unnested plan the
/// strategies produce. Plans that still contain nested scalar expressions
/// are dropped (they would be nested-loop anyway).
pub fn enumerate_plans(expr: &Expr, catalog: &Catalog) -> Vec<PlanChoice> {
    let mut plans = vec![PlanChoice {
        label: "nested".into(),
        expr: expr.clone(),
        trace: vec![],
    }];
    // The paper's preparation step: project unneeded attributes away so
    // the `A1 = A(e1)` conditions of Eqv. 3/5/8/9 become checkable.
    let pruned = crate::prune::prune(expr);
    // The shared prefix: computed once, continued by every strategy
    // whose rule list starts with it.
    let mut quantified = pruned.clone();
    let mut prefix_trace = Vec::new();
    run_to_fixpoint(
        &mut quantified,
        &QUANTIFIER_PREFIX,
        catalog,
        &mut prefix_trace,
    );

    for Strategy {
        label,
        rules,
        defining,
    } in STRATEGIES
    {
        // One owned plan per strategy, rewritten in place.
        let (mut rewritten, mut trace) = if rules.starts_with(&QUANTIFIER_PREFIX) {
            (quantified.clone(), prefix_trace.clone())
        } else {
            (pruned.clone(), Vec::new())
        };
        run_to_fixpoint(&mut rewritten, rules, catalog, &mut trace);
        if trace.is_empty() {
            continue;
        }
        if !defining.iter().any(|r| trace.contains(&r.name())) {
            continue;
        }
        // §5.4 exception: the group-filter plan re-introduces a *bounded*
        // per-group aggregate over a nested attribute (rel(g)); that is
        // not a correlated re-scan, so keep it despite the nested scalar.
        if rewritten.has_nested_scalars() && !contains_attr_rel(&rewritten) {
            continue;
        }
        let mut label = label.to_string();
        if matches!(label.as_str(), "semijoin") && contains_antijoin(&rewritten) {
            label = "anti-semijoin".into();
        }
        if !plans.iter().any(|p| p.expr == rewritten) {
            plans.push(PlanChoice {
                label,
                expr: rewritten,
                trace,
            });
        }
    }

    // Ξ fusion upgrades a grouping plan into the "group Ξ" plan.
    let fused: Vec<PlanChoice> = plans
        .iter()
        .filter(|p| p.label == "grouping")
        .filter_map(|p| {
            let mut expr = p.expr.clone();
            Rule::XiFuse
                .apply_anywhere(&mut expr, catalog)
                .then(|| PlanChoice {
                    label: "group Ξ".into(),
                    expr,
                    trace: p
                        .trace
                        .iter()
                        .copied()
                        .chain([Rule::XiFuse.name()])
                        .collect(),
                })
        })
        .collect();
    for f in fused {
        if !plans.iter().any(|p| p.expr == f.expr) {
            plans.push(f);
        }
    }
    plans
}

/// Pick the most efficient plan: group Ξ, else grouping, else
/// semijoin/anti-semijoin, else outer join, else nest-join, else nested.
pub fn unnest_best(expr: &Expr, catalog: &Catalog) -> (Expr, RewriteTrace) {
    let plans = enumerate_plans(expr, catalog);
    for preferred in [
        "group Ξ",
        "grouping",
        "semijoin",
        "anti-semijoin",
        "outer join",
        "nest-join",
    ] {
        if let Some(p) = plans.iter().find(|p| p.label == preferred) {
            return (
                p.expr.clone(),
                RewriteTrace {
                    steps: p.trace.clone(),
                },
            );
        }
    }
    (expr.clone(), RewriteTrace::default())
}

fn contains_antijoin(e: &Expr) -> bool {
    let mut found = false;
    visit::walk(e, &mut |n| found |= matches!(n, Expr::AntiJoin { .. }));
    found
}

fn contains_attr_rel(e: &Expr) -> bool {
    let mut found = false;
    visit::walk_deep(e, &mut |n| found |= matches!(n, Expr::AttrRel(_)));
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::{CmpOp, GroupFn, Scalar, Tuple, Value};

    fn lit(rows: Vec<Vec<(&str, i64)>>) -> Expr {
        Expr::Literal(
            rows.into_iter()
                .map(|r| {
                    Tuple::from_pairs(
                        r.into_iter()
                            .map(|(n, v)| (nal::Sym::new(n), Value::Int(v)))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    fn nested_agg() -> Expr {
        let e1 = lit(vec![vec![("A1", 1)], vec![("A1", 2)]]);
        let e2 = lit(vec![vec![("A2", 1), ("B", 5)], vec![("A2", 2), ("B", 7)]]);
        e1.map(
            "g",
            Scalar::Agg {
                f: GroupFn::count(),
                input: Box::new(e2.select(Scalar::attr_cmp(CmpOp::Eq, "A1", "A2"))),
            },
        )
    }

    #[test]
    fn enumerates_nested_plus_alternatives() {
        let cat = Catalog::new();
        let plans = enumerate_plans(&nested_agg(), &cat);
        let labels: Vec<&str> = plans.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels[0], "nested");
        assert!(labels.contains(&"outer join"), "{labels:?}");
        assert!(labels.contains(&"nest-join"), "{labels:?}");
        // No distinctness condition provable → no "grouping" plan.
        assert!(!labels.contains(&"grouping"), "{labels:?}");
    }

    #[test]
    fn alternatives_evaluate_identically() {
        let cat = Catalog::new();
        let plans = enumerate_plans(&nested_agg(), &cat);
        let mut outputs = Vec::new();
        for p in &plans {
            let mut ctx = nal::EvalCtx::new(&cat);
            outputs.push((p.label.clone(), nal::eval_query(&p.expr, &mut ctx).unwrap()));
        }
        for (label, out) in &outputs[1..] {
            assert_eq!(out, &outputs[0].1, "plan `{label}` differs from nested");
        }
    }

    #[test]
    fn best_prefers_more_restrictive_plans() {
        let cat = Catalog::new();
        let (best, trace) = unnest_best(&nested_agg(), &cat);
        // Without the distinctness condition, outer join is the best.
        assert!(matches!(best, Expr::Project { .. }), "{best}");
        assert_eq!(trace.steps, vec![Rule::Eqv2.name()]);
    }

    #[test]
    fn rules_apply_below_the_root() {
        // Wrap the nested query under a Ξ — rules must still fire.
        let wrapped = nested_agg().xi(xi_cmds(&["<x>", "$g", "</x>"]));
        let cat = Catalog::new();
        let (best, trace) = unnest_best(&wrapped, &cat);
        assert!(!trace.steps.is_empty());
        assert!(matches!(best, Expr::XiSimple { .. }));
        assert!(!best.has_nested_scalars());
    }

    #[test]
    fn untouchable_expressions_stay_nested() {
        let cat = Catalog::new();
        let plain = lit(vec![vec![("A", 1)]]).select(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("A"),
            Scalar::int(0),
        ));
        let plans = enumerate_plans(&plain, &cat);
        assert_eq!(plans.len(), 1);
        let (best, trace) = unnest_best(&plain, &cat);
        assert_eq!(best, plain);
        assert!(trace.steps.is_empty());
    }
}
