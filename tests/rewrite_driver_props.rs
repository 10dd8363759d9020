//! The in-place rewrite driver against a reference that does what the
//! driver used to do — apply a rule at the first top-down match and
//! rebuild the ancestors — on Q1–Q10 and on 1,200 generated queries.
//!
//! Three properties, all on result *and* rule trace:
//!
//! 1. one `Rule::apply_anywhere` step rewrites exactly the node the
//!    reference rewrites;
//! 2. a strategy's fixpoint (`apply_preferring`) is the reference's;
//! 3. every alternative `enumerate_plans` offers — computed by
//!    continuing the shared Eqv. 6/7 prefix — is its strategy run from
//!    the pruned root.

use fuzz::{GenCase, GenConfig, DEFAULT_SEED};
use nal::expr::visit;
use nal::Expr;
use ordered_unnesting::plan_sets;
use unnest::driver::{apply_preferring, Rule, Strategy, STRATEGIES};
use xmldb::gen::standard_catalog;
use xmldb::{Catalog, MaintenanceMode};

const ALL_RULES: [Rule; 12] = [
    Rule::Eqv1,
    Rule::Eqv2,
    Rule::Eqv3,
    Rule::Eqv4,
    Rule::Eqv5,
    Rule::Eqv6,
    Rule::Eqv7,
    Rule::Eqv8,
    Rule::Eqv9,
    Rule::Eqv8Self,
    Rule::PushRight,
    Rule::XiFuse,
];

/// The reference: rewrite at the first top-down match, rebuild above it.
fn reference_anywhere(rule: Rule, e: &Expr, catalog: &Catalog) -> Option<Expr> {
    if let Some(rewritten) = rule.apply_at(e, catalog) {
        return Some(rewritten);
    }
    let (hit, new_child) = visit::children(e)
        .enumerate()
        .find_map(|(i, c)| Some((i, reference_anywhere(rule, c, catalog)?)))?;
    let (mut i, mut new_child) = (0, Some(new_child));
    Some(visit::map_children(e.clone(), &mut |c| {
        i += 1;
        if i - 1 == hit {
            new_child.take().expect("one child is replaced")
        } else {
            c
        }
    }))
}

fn reference_preferring(e: &Expr, rules: &[Rule], catalog: &Catalog) -> (Expr, Vec<&'static str>) {
    let (mut current, mut trace) = (e.clone(), Vec::new());
    for _ in 0..64 {
        let fired = rules
            .iter()
            .find_map(|&r| Some((r, reference_anywhere(r, &current, catalog)?)));
        let Some((rule, next)) = fired else { break };
        current = next;
        trace.push(rule.name());
    }
    (current, trace)
}

/// Firings seen, so the test can show it was not vacuous.
#[derive(Default)]
struct Seen {
    single_steps: usize,
    chains_of_two: usize,
    alternatives: usize,
}

fn check(what: &str, nested: &Expr, catalog: &Catalog, seen: &mut Seen) {
    let pruned = unnest::prune(nested);
    for root in [nested, &pruned] {
        for rule in ALL_RULES {
            let mut in_place = root.clone();
            let fired = rule.apply_anywhere(&mut in_place, catalog);
            let reference = reference_anywhere(rule, root, catalog);
            assert_eq!(fired, reference.is_some(), "[{what}] {rule:?} fires");
            assert_eq!(
                in_place,
                reference.unwrap_or_else(|| root.clone()),
                "[{what}] {rule:?}"
            );
            seen.single_steps += usize::from(fired);
        }
    }
    for Strategy { label, rules, .. } in STRATEGIES {
        let (expr, trace) = apply_preferring(&pruned, rules, catalog);
        let (ref_expr, ref_trace) = reference_preferring(&pruned, rules, catalog);
        assert_eq!(trace, ref_trace, "[{what}] trace of `{label}`");
        assert_eq!(expr, ref_expr, "[{what}] result of `{label}`");
        seen.chains_of_two += usize::from(trace.len() >= 2);
    }
    for plan in unnest::enumerate_plans(nested, catalog).iter().skip(1) {
        let strategy = match plan.label.as_str() {
            "anti-semijoin" => "semijoin",
            "group Ξ" => "grouping",
            other => other,
        };
        let rules = STRATEGIES
            .iter()
            .find(|s| s.label == strategy)
            .unwrap_or_else(|| panic!("[{what}] unknown label `{}`", plan.label))
            .rules;
        let (mut expr, mut trace) = reference_preferring(&pruned, rules, catalog);
        if plan.label == "group Ξ" {
            expr = reference_anywhere(Rule::XiFuse, &expr, catalog).expect("Ξ fusion fires");
            trace.push(Rule::XiFuse.name());
        }
        assert_eq!(plan.trace, trace, "[{what}] trace of `{}`", plan.label);
        assert_eq!(plan.expr, expr, "[{what}] plan `{}`", plan.label);
        seen.alternatives += 1;
    }
}

#[test]
fn in_place_driver_matches_rebuild_reference_on_the_paper_queries() {
    let catalog = standard_catalog(20, 2, 1);
    let mut seen = Seen::default();
    for w in plan_sets::queries() {
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        check(w.id, &nested, &catalog, &mut seen);
    }
    // 28 alternatives per round, 10 of them the nested plans.
    assert_eq!(seen.alternatives, 18);
    assert!(seen.chains_of_two > 0 && seen.single_steps > 0);
}

#[test]
fn in_place_driver_matches_rebuild_reference_on_generated_queries() {
    let cfg = GenConfig::default();
    let mut seen = Seen::default();
    for i in 0..1200u64 {
        let case = GenCase::random(DEFAULT_SEED.wrapping_add(i), &cfg);
        let catalog = case.corpus.build_catalog(MaintenanceMode::Delta);
        let text = case.query_text();
        let nested = xquery::compile(&text, &catalog)
            .unwrap_or_else(|e| panic!("case {i} does not compile: {e}\n{text}"));
        check(&format!("case {i}"), &nested, &catalog, &mut seen);
    }
    assert!(
        seen.single_steps > 200 && seen.chains_of_two > 50 && seen.alternatives > 80,
        "the generator stopped reaching the rewriter: {} steps, {} chains, {} alternatives",
        seen.single_steps,
        seen.chains_of_two,
        seen.alternatives
    );
}
