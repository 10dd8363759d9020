//! The plan sets of Q1–Q10 at xqbench's `plan-cold` scale, pinned by
//! the byte: every alternative's label, rule trace and explain text,
//! and the cost ranking, for scan and indexed ranking alike.
//!
//! The golden files were generated by `examples/plan_sets.rs` at the
//! commit *before* the rewrite driver started applying rules in place;
//! a behaviour-preserving change to `unnest::{driver, eqv, classic,
//! cost}` leaves them untouched. After an intended change, regenerate:
//!
//! ```sh
//! cargo run --release --example plan_sets -- --scale 20 > tests/golden/plan_sets_scan.txt
//! cargo run --release --example plan_sets -- --scale 20 --indexes > tests/golden/plan_sets_indexed.txt
//! ```

use ordered_unnesting::plan_sets::render;

fn check(use_indexes: bool, golden: &str) {
    let actual = render(20, use_indexes);
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "plan sets (use_indexes {use_indexes}) differ from the golden file at line {}:\n  \
             actual: {:?}\n  golden: {:?}",
            line + 1,
            actual.lines().nth(line),
            golden.lines().nth(line),
        );
    }
}

#[test]
fn scan_ranked_plan_sets_match_golden() {
    check(false, include_str!("golden/plan_sets_scan.txt"));
}

#[test]
fn index_ranked_plan_sets_match_golden() {
    check(true, include_str!("golden/plan_sets_indexed.txt"));
}

#[test]
fn a_round_enumerates_28_alternatives() {
    let golden = include_str!("golden/plan_sets_indexed.txt");
    assert_eq!(golden.lines().filter(|l| l.starts_with("-- [")).count(), 28);
}
