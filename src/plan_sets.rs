//! The plan *set* of Q1–Q10 as deterministic text: every alternative
//! `unnest::enumerate_plans` yields (label, rule trace, `explain`
//! rendering) and the order `unnest::rank_plans_with` puts them in.
//!
//! A change to the rewrite driver or the cost model that claims to be
//! behaviour-preserving must leave this text unchanged by a byte:
//! `tests/plan_set_golden.rs` pins it against
//! `tests/golden/plan_sets_*.txt`, and `examples/plan_sets.rs` prints it
//! so two commits can be diffed.

use std::fmt::Write;

use nal::expr::display::explain;
use xmldb::gen::standard_catalog;

use crate::workloads::{Workload, ALL, COMPOSITE, RANGE};

/// Q1–Q10 in id order.
pub fn queries() -> impl Iterator<Item = &'static Workload> {
    ALL.iter().chain(&RANGE).chain(&COMPOSITE)
}

/// Render the plan sets of Q1–Q10 over `standard_catalog(scale, 2, 1)`
/// (the catalog `QueryService::load_standard(scale, 1)` serves), ranked
/// with or without index-backed access paths.
pub fn render(scale: usize, use_indexes: bool) -> String {
    let catalog = standard_catalog(scale, 2, 1);
    let mut out = String::new();
    writeln!(out, "# plan sets: scale {scale}, use_indexes {use_indexes}").unwrap();
    for w in queries() {
        let nested = xquery::compile(w.query, &catalog)
            .unwrap_or_else(|e| panic!("[{}] does not compile: {e}", w.id));
        let plans = unnest::enumerate_plans(&nested, &catalog);
        writeln!(out, "\n== {} ({} alternatives)", w.id, plans.len()).unwrap();
        for (i, p) in plans.iter().enumerate() {
            writeln!(out, "-- [{i}] {}", p.label).unwrap();
            let trace = match p.trace.is_empty() {
                true => "(none)".to_string(),
                false => p.trace.join(" → "),
            };
            writeln!(out, "trace: {trace}").unwrap();
            out.push_str(explain(&p.expr).trim_end());
            out.push('\n');
        }
        let ranked = unnest::rank_plans_with(plans, &catalog, use_indexes);
        writeln!(out, "-- ranking (cheapest first)").unwrap();
        for (p, est) in &ranked {
            writeln!(
                out,
                "{:<14} rows {:>12.3} cost {:>14.3}",
                p.label, est.rows, est.cost
            )
            .unwrap();
        }
        writeln!(out, "top: {}", ranked[0].0.label).unwrap();
    }
    out
}
