//! Mutation test: prove the differential oracle actually catches order
//! violations, end to end through generation, detection, and shrinking.
//!
//! The engine exposes a test-only bucket reversal
//! (`engine::pipeline::ops::reverse_index_scans_for_tests`) that reverses
//! the match order inside every bucket of the order-preserving hash
//! build — a seeded "known bug" of exactly the class the paper's ordered
//! context forbids. With the reversal armed, a seeded fuzz run must fail
//! on an execution cell, and the shrinker must minimize the offender to
//! a tiny reproducer (≤ 3 binders). With the reversal disarmed, the same
//! minimized case must pass — pinning the blame on the injected
//! mutation, not the generator.
//!
//! This lives in its own test binary because the switch is process
//! -global state; sharing a binary with other fuzz tests would poison
//! them.

use engine::pipeline::ops::reverse_index_scans_for_tests;
use fuzz::{run_fuzz, GenConfig, DEFAULT_SEED};

#[test]
fn oracle_catches_injected_scan_order_bug() {
    reverse_index_scans_for_tests(true);
    let outcome = run_fuzz(DEFAULT_SEED, 50, &GenConfig::default());
    reverse_index_scans_for_tests(false);

    let failure = match outcome {
        Err(f) => f,
        Ok(report) => panic!(
            "reversed index scans survived {} fuzz cases — the oracle is blind to order violations",
            report.cases
        ),
    };
    assert!(
        matches!(failure.failure.phase.as_str(), "pre" | "post"),
        "expected an order violation in an execution cell, got: {}",
        failure.failure
    );
    let binders = failure.shrunk.query.binder_count();
    assert!(
        binders <= 3,
        "shrinker left {binders} binders (> 3):\n{failure}"
    );
    // The minimized case must be green again once the mutation is
    // disarmed: the bug lives in the injected reversal, not the case.
    if let Err(clean) = fuzz::check_case(&failure.shrunk) {
        panic!("shrunk case still fails with the reversal off: {clean}");
    }
}
