//! Allocation budget: a warm Q1–Q10 round (the execution core,
//! indexed and scan), a cold one (the front end and the rewriter) and a
//! round of the nested Q1–Q6 plans (nested blocks on the engine) must
//! stay under fixed heap-allocation ceilings.
//!
//! Own test binary (it replaces the global allocator). The allocator
//! counts per thread, so the two tests do not disturb each other; run
//! with `--test-threads 1` to keep the printed tables in one piece.

use bench_harness::allocs::{cold_round, nested_round, warm_round, CountingAlloc, QueryAllocs};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn round(label: &str, scale: usize, ceiling: u64, run: impl Fn() -> Vec<QueryAllocs>) {
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "{label}: two identical runs must count identically"
    );
    println!("{label} (scale {scale}):");
    for QueryAllocs { id, allocs, bytes } in &first {
        println!("  {id:<22} {allocs:>8} allocations {bytes:>10} bytes");
    }
    let total: u64 = first.iter().map(|q| q.allocs).sum();
    let bytes: u64 = first.iter().map(|q| q.bytes).sum();
    println!("  {:<22} {total:>8} allocations {bytes:>10} bytes", "round");
    assert!(
        total > 0,
        "{label}: the counting allocator is not installed"
    );
    assert!(
        total <= ceiling,
        "{label}: {total} allocations per round exceed the budget of {ceiling}"
    );
}

/// Ceilings are the measured rounds plus 10 %: 32,459 indexed and
/// 13,459 scan, down from 44,768 and 18,570 before producers stopped
/// emitting dead attributes, Γ kept one buffer for all its groups and
/// hash probes stopped owning their key text. A change that costs one
/// tuple block per row of any of the ten queries shows here.
#[test]
fn warm_rounds_stay_within_allocation_budget() {
    round("indexed", 400, 35_700, || warm_round(400, true));
    round("scan", 150, 14_800, || warm_round(150, false));
}

/// The plan-cache miss path (parse … apply_indexes, nothing executed)
/// at xqbench's `plan-cold` scale. The clone-and-rebuild rewrite driver
/// with per-path `SchemaFacts` analysis allocated 18,099 times per
/// round; the ceiling is half of that.
#[test]
fn cold_round_stays_within_allocation_budget() {
    round("cold", 20, 9_000, || cold_round(20));
}

/// The §5 baseline at xqbench's `paper-nested` scale: each query's
/// `nested` plan, every nested block lowered and pulled per outer tuple,
/// its shared subtrees — closed conjuncts of a correlated σ included —
/// spooled once and replayed or, under a σ with an indexed conjunct,
/// probed — and an ∃ over an indexed range, too — and comparisons
/// reading node text in place. The ceiling is the measured 2,929 plus
/// 10 % (q3: 130). While q3's ∃ lowered its block and scanned its spool
/// per outer tuple, the round took 2,964 (q3: 165); at 3,024 (q4: 756)
/// the ceiling was 3,330. Replaying every spool, the round took 3,161
/// (q4: 829). Before
/// comparisons stopped assembling mixed content and q4's
/// `contains(a2, "an")` moved into the spool the round took 24,151 (q4:
/// 16,726); evaluated by the reference evaluator's copying,
/// range-materializing loops, ≈ 82,000; with every block re-run per
/// outer tuple, 50,465. A nested block that copies the outer tuple into
/// its rows again, re-runs its invariant part, or builds per pulled
/// tuple what it need not — a string value to compare, say — shows
/// here.
#[test]
fn nested_round_stays_within_allocation_budget() {
    round("nested", 40, 3_222, || nested_round(40));
}
