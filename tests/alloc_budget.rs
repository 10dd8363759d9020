//! Allocation budget of the execution core: a warm Q1–Q10 round must
//! stay under fixed heap-allocation ceilings, indexed and scan.
//!
//! Own test binary (it replaces the global allocator) with a single
//! test (parallel tests would still count per thread, but one test
//! keeps the printed table in one piece).

use bench_harness::allocs::{warm_round, CountingAlloc, QueryAllocs};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn round(label: &str, scale: usize, use_indexes: bool, ceiling: u64) {
    let first = warm_round(scale, use_indexes);
    let second = warm_round(scale, use_indexes);
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
        "{label}: {total} allocations per warm round exceed the budget of {ceiling}"
    );
}

#[test]
fn warm_rounds_stay_within_allocation_budget() {
    round("indexed", 400, true, 80_000);
    round("scan", 150, false, 20_500);
}
