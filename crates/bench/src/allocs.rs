//! Heap-allocation accounting: a counting allocator and the warm and
//! cold Q1–Q10 rounds and the nested Q1–Q6 round measured with it.
//!
//! The allocator counts per *thread* (const-initialised thread-locals,
//! so the allocator itself never allocates and threads never contend on
//! a shared counter). A serial query runs entirely on its caller's
//! thread, which makes the counts exact and repeatable. The binary that
//! wants counts installs it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bench_harness::allocs::CountingAlloc = bench_harness::allocs::CountingAlloc;
//! ```
//!
//! Shared by the harness's `allocs` experiment and the root crate's
//! `tests/alloc_budget.rs`, so both report the same numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ordered_unnesting::workloads::{Workload, ALL, COMPOSITE, RANGE};
use service::{QueryService, ServiceConfig};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: a thread that is tearing down its locals still
    // allocates; those calls go uncounted rather than panicking.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

/// The system allocator plus per-thread counts of calls that obtain
/// memory (`alloc`, `alloc_zeroed`, `realloc`) and the bytes they asked
/// for.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// thread-local `Cell`s and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `(allocations, bytes requested)` by the calling thread so far. Both
/// stay 0 unless the running binary installed [`CountingAlloc`].
pub fn thread_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// What one warm query cost the heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryAllocs {
    /// Workload id (`q1-grouping`, …).
    pub id: &'static str,
    /// Allocator calls that obtained memory.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

/// Q1–Q10 in id order.
fn queries() -> Vec<&'static Workload> {
    ALL.iter().chain(&RANGE).chain(&COMPOSITE).collect()
}

/// Count the calling thread's allocations while `f` runs.
fn counted<R>(id: &'static str, f: impl FnOnce() -> R) -> (R, QueryAllocs) {
    let (a0, b0) = thread_counts();
    let out = f();
    let (a1, b1) = thread_counts();
    let counts = QueryAllocs {
        id,
        allocs: a1 - a0,
        bytes: b1 - b0,
    };
    (out, counts)
}

/// One warm `QueryService::query` per query of Q1–Q10 over
/// `load_standard(scale, 1)`: every plan is cached and every index
/// built by two earlier rounds, so the counts are execution (plus the
/// service's per-query bookkeeping), not compilation.
pub fn warm_round(scale: usize, use_indexes: bool) -> Vec<QueryAllocs> {
    let svc = QueryService::new(ServiceConfig {
        use_indexes,
        ..ServiceConfig::default()
    });
    svc.load_standard(scale, 1).expect("standard catalog loads");
    let queries = queries();
    for _ in 0..2 {
        for w in &queries {
            svc.query(w.query)
                .unwrap_or_else(|e| panic!("[{}] warm-up failed: {e}", w.id));
        }
    }
    queries
        .iter()
        .map(|w| {
            let (outcome, counts) = counted(w.id, || svc.query(w.query));
            outcome.unwrap_or_else(|e| panic!("[{}] failed: {e}", w.id));
            counts
        })
        .collect()
}

/// One run of each §5 query's plan labelled `nested` — the paper's
/// baseline, every quantifier range and aggregate input a nested block —
/// over `standard_catalog(scale, 2, 1)`: compiled once with
/// [`engine::compile`] and run serially, as xqbench's `paper-nested`
/// runs them. A warm-up run of each fills what a serving process fills
/// once, so the counts are execution alone.
pub fn nested_round(scale: usize) -> Vec<QueryAllocs> {
    let catalog = xmldb::gen::standard_catalog(scale, 2, 1);
    let plans: Vec<_> = ALL
        .iter()
        .map(|w| {
            let expr = xquery::compile(w.query, &catalog)
                .unwrap_or_else(|e| panic!("[{}] does not compile: {e}", w.id));
            let nested = unnest::enumerate_plans(&expr, &catalog)
                .into_iter()
                .find(|p| p.label == "nested")
                .unwrap_or_else(|| panic!("[{}] has no nested plan", w.id));
            (w.id, engine::compile(&nested.expr))
        })
        .collect();
    let run = |id: &str, plan| {
        engine::run_compiled(plan, &catalog).unwrap_or_else(|e| panic!("[{id}] failed: {e}"))
    };
    for (id, plan) in &plans {
        run(id, plan);
    }
    plans
        .iter()
        .map(|(id, plan)| counted(id, || run(id, plan)).1)
        .collect()
}

/// One cold compilation per query of Q1–Q10 over
/// `standard_catalog(scale, 2, 1)` — what a plan-cache miss does before
/// it can execute: parse → normalize → fingerprint → translate →
/// enumerate → rank → compile → apply_indexes, through the same public
/// entry points the service calls. Nothing is executed, so the counts
/// are the front end and the rewriter alone. An uncounted first pass
/// fills what a serving process fills once, not per miss: the symbol
/// interner and the catalog's statistics memo.
pub fn cold_round(scale: usize) -> Vec<QueryAllocs> {
    let catalog = xmldb::gen::standard_catalog(scale, 2, 1);
    let compile = |w: &Workload| {
        let parsed = xquery::parse_query(w.query)
            .unwrap_or_else(|e| panic!("[{}] does not parse: {e}", w.id));
        let normalized = xquery::normalize(&parsed, &catalog);
        std::hint::black_box(xquery::Fingerprint::of_normalized(&normalized).hash);
        let expr = xquery::translate(&normalized, &catalog)
            .unwrap_or_else(|e| panic!("[{}] does not translate: {e}", w.id));
        let plans = unnest::enumerate_plans(&expr, &catalog);
        let ranked = unnest::rank_plans_with(plans, &catalog, true);
        engine::apply_indexes(engine::compile(&ranked[0].0.expr), &catalog)
    };
    let queries = queries();
    for w in &queries {
        std::hint::black_box(compile(w));
    }
    queries
        .iter()
        .map(|w| {
            let (plan, counts) = counted(w.id, || compile(w));
            std::hint::black_box(plan);
            counts
        })
        .collect()
}
