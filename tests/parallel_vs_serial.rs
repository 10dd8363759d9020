//! Differential suite for morsel-driven parallel execution: for every
//! §5 workload (Q1–Q10), in scan and indexed compilation, a parallel run
//! must produce **byte-identical** Ξ output, the same rows, and
//! worker-summed metrics equal to a serial run — at
//! every degree of parallelism. Plus:
//!
//! * a property test that k-way merging randomized contiguous morsel
//!   partitions of a posting list reproduces the serial document-order
//!   stream regardless of worker completion order, and
//! * an early-cancel regression: probe-invariant range quantifiers
//!   (Q7 `some` / Q8 `every`) must decide with probe counts strictly
//!   below the probe input cardinality when workers > 1 — the first
//!   deciding probe cancels every sibling morsel's.

use proptest::prelude::*;

use engine::pipeline::merge::{kway_merge_by, merge_runs, MorselKey, Run};
use ordered_unnesting::workloads::{self, Workload};
use xmldb::gen::standard_catalog;
use xmldb::Catalog;

const WORKERS: [usize; 3] = [1, 2, 8];

/// The plan the service would pick: best-ranked rewrite of the workload.
fn best_expr(w: &Workload, catalog: &Catalog) -> nal::Expr {
    let nested = xquery::compile(w.query, catalog)
        .unwrap_or_else(|e| panic!("[{}] compile failed: {e}", w.id));
    let ranked = unnest::rank_plans_with(unnest::enumerate_plans(&nested, catalog), catalog, true);
    ranked
        .into_iter()
        .next()
        .expect("enumerate_plans yields at least the nested plan")
        .0
        .expr
}

/// Serial vs parallel at every degree, one compilation mode. Returns
/// whether the rewrite actually formed a parallel segment (so callers
/// can assert the suite isn't passing vacuously).
fn check_parity(id: &str, expr: &nal::Expr, catalog: &Catalog, indexed: bool) -> bool {
    let serial_plan = if indexed {
        engine::compile_indexed(expr, catalog)
    } else {
        engine::compile(expr)
    };
    let par_plan = engine::apply_parallel(&serial_plan);
    let wrapped = par_plan.explain().contains("Parallel");
    let serial = engine::run_compiled(&serial_plan, catalog)
        .unwrap_or_else(|e| panic!("[{id}] serial run failed: {e}"));
    for workers in WORKERS {
        let par = engine::run_streaming_parallel(&par_plan, catalog, workers)
            .unwrap_or_else(|e| panic!("[{id}] parallel run failed at {workers} workers: {e}"));
        assert_eq!(
            par.output, serial.output,
            "[{id}] Ξ output diverges at {workers} workers (indexed={indexed})"
        );
        assert_eq!(
            par.rows, serial.rows,
            "[{id}] rows diverge at {workers} workers (indexed={indexed})"
        );
        assert_eq!(
            par.metrics, serial.metrics,
            "[{id}] worker-summed metrics diverge at {workers} workers (indexed={indexed})"
        );
    }
    wrapped
}

fn check_workloads(ws: &[Workload], catalog: &Catalog) -> usize {
    let mut wrapped = 0;
    for w in ws {
        let expr = best_expr(w, catalog);
        for indexed in [false, true] {
            if check_parity(w.id, &expr, catalog, indexed) {
                wrapped += 1;
            }
        }
    }
    wrapped
}

#[test]
fn q1_q6_parallel_matches_serial() {
    let catalog = standard_catalog(40, 3, 42);
    check_workloads(&workloads::ALL, &catalog);
}

#[test]
fn q7_q8_range_parallel_matches_serial() {
    let catalog = standard_catalog(80, 2, 7);
    check_workloads(&workloads::RANGE, &catalog);
}

#[test]
fn q9_q10_composite_parallel_matches_serial() {
    let catalog = standard_catalog(60, 2, 11);
    check_workloads(&workloads::COMPOSITE, &catalog);
}

#[test]
fn rewrite_covers_the_workload_suite() {
    // The parity checks must not pass vacuously: across all ten
    // workloads × {scan, indexed}, the rewrite has to form parallel
    // segments on a meaningful share of the best plans.
    let catalog = standard_catalog(30, 2, 42);
    let mut wrapped = 0;
    for group in [
        &workloads::ALL[..],
        &workloads::RANGE[..],
        &workloads::COMPOSITE[..],
    ] {
        wrapped += check_workloads(group, &catalog);
    }
    assert!(
        wrapped >= 3,
        "apply_parallel wrapped only {wrapped} of 20 workload plan variants"
    );
}

#[test]
fn cross_product_merge_restores_serial_interleaving() {
    // Regression for a bug found by the differential fuzz oracle
    // (tests/fuzz_corpus/cross_product_merge.repro): a parallel source
    // Υ sitting above another fan-out restarts its posting list per
    // input tuple, so the first driving node of each morsel no longer
    // ascends with the morsel ordinal. The node-keyed merge then
    // regrouped output by node instead of restoring the serial
    // interleaving. The merge must fall back to ordinal-only keys when
    // driving nodes are not ascending.
    let catalog = standard_catalog(12, 2, 42);
    let query = "for $a in doc(\"bib.xml\")//book, $b in doc(\"bib.xml\")//book \
                 return <r>{ $b/title }</r>";
    let expr = xquery::compile(query, &catalog).expect("cross product compiles");
    for indexed in [false, true] {
        check_parity("cross-product", &expr, &catalog, indexed);
    }
}

/// Does the plan carry an index join whose probe is independent of the
/// probing tuple (constant range bounds, no residual)? Those are the
/// probes the parallel executor routes through a shared [`ProbeGroup`]:
/// the first worker to decide cancels every sibling morsel's probe.
fn has_probe_invariant_join(plan: &engine::PhysPlan) -> bool {
    let mut found = false;
    engine::access::for_each_access_path(plan, &mut |path| {
        if let engine::access::AccessPathRef::Join(recipe) = path {
            found |= recipe.probe_invariant();
        }
    });
    found
}

#[test]
fn early_cancel_bounds_quantifier_probes() {
    let scale = 120usize;
    let catalog = standard_catalog(scale, 2, 5);
    // Q7's probe bound is correlated ($t1 < $t2) so every tuple must
    // probe; only constant-bound quantifiers like Q8's ($p2 > 5) are
    // probe-invariant. Require at least one such plan across the range
    // workloads so the regression cannot pass vacuously.
    let mut exercised = 0usize;
    for w in &workloads::RANGE {
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        let Some(plan) = unnest::enumerate_plans(&nested, &catalog)
            .into_iter()
            .map(|c| engine::apply_parallel(&engine::compile_indexed(&c.expr, &catalog)))
            .find(|p| has_probe_invariant_join(p) && p.explain().contains("Parallel"))
        else {
            continue;
        };
        exercised += 1;
        let serial = engine::run_streaming_parallel(&plan, &catalog, 1)
            .unwrap_or_else(|e| panic!("[{}] serial: {e}", w.id));
        for workers in [2usize, 8] {
            let par = engine::run_streaming_parallel(&plan, &catalog, workers)
                .unwrap_or_else(|e| panic!("[{}] {workers} workers: {e}", w.id));
            assert_eq!(par.output, serial.output, "[{}] output", w.id);
            // Cooperative cancel: the first deciding probe settles the
            // whole probe group, so the lookup count cannot scale with
            // the probe input — and must equal the serial memoized count.
            assert_eq!(
                par.metrics.index_lookups, serial.metrics.index_lookups,
                "[{}] lookup parity at {workers} workers",
                w.id
            );
            assert!(
                par.metrics.index_lookups < scale as u64,
                "[{}] {} probes at {workers} workers is not early-cancelled \
                 (probe input has ~{scale} tuples)",
                w.id,
                par.metrics.index_lookups
            );
        }
    }
    assert!(
        exercised >= 1,
        "no range workload produced a parallel probe-invariant plan"
    );
}

#[test]
fn parallel_rewrite_preserves_access_paths() {
    // Plan-cache revalidation walks `for_each_access_path`; if the
    // visitor skipped the inside of a `Parallel` operator, cached
    // parallel plans would revalidate vacuously against snapshots where
    // their indexes no longer resolve. The rewrite must keep every
    // access path visible.
    fn count_paths(plan: &engine::PhysPlan) -> usize {
        let mut n = 0;
        engine::access::for_each_access_path(plan, &mut |_| n += 1);
        n
    }
    let catalog = standard_catalog(30, 2, 42);
    let mut parallel_plans_with_paths = 0;
    for group in [
        &workloads::ALL[..],
        &workloads::RANGE[..],
        &workloads::COMPOSITE[..],
    ] {
        for w in group {
            let expr = best_expr(w, &catalog);
            let serial = engine::compile_indexed(&expr, &catalog);
            let par = engine::apply_parallel(&serial);
            let n = count_paths(&serial);
            assert_eq!(
                count_paths(&par),
                n,
                "[{}] parallel rewrite hides access paths from the visitor",
                w.id
            );
            if n > 0 && par.explain().contains("Parallel") {
                parallel_plans_with_paths += 1;
            }
        }
    }
    assert!(
        parallel_plans_with_paths >= 1,
        "no workload exercises access paths inside a parallel segment"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized contiguous partitions of a document-ordered posting
    /// list, merged back in arbitrary completion order, must reproduce
    /// the serial stream — at both merge granularities the executor
    /// uses (whole runs keyed by first NodeId, and item-level keys).
    #[test]
    fn kway_merge_restores_document_order(
        scale in 5usize..60,
        seed in 0u64..1000,
        raw_cuts in prop::collection::vec(0usize..10_000, 0..12),
        rot in 0usize..12,
    ) {
        let catalog = standard_catalog(scale, 2, seed);
        let id = catalog.by_uri("bib.xml").expect("standard catalog has bib.xml");
        let doc = catalog.doc(id);
        let mut counters = xpath::EvalCounters::default();
        let nodes = xpath::eval_path(
            doc,
            &[xmldb::NodeId::DOCUMENT],
            &xpath::parse_path("//book").expect("valid path"),
            &mut counters,
        );
        prop_assume!(!nodes.is_empty());

        // Contiguous partition at randomized cut points.
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (nodes.len() + 1)).collect();
        cuts.push(0);
        cuts.push(nodes.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut partitions: Vec<Vec<xmldb::NodeId>> = cuts
            .windows(2)
            .map(|w| nodes[w[0]..w[1]].to_vec())
            .collect();

        // Item-level merge is insensitive to run arrival order.
        let merged = kway_merge_by(partitions.clone(), |n| *n);
        prop_assert_eq!(&merged, &nodes, "item-level merge at cuts {:?}", &cuts);

        // Run-level merge (the executor's path): runs keyed by their
        // first driving NodeId + ordinal, delivered in rotated
        // (worker-completion) order.
        let mut runs: Vec<Run<xmldb::NodeId>> = partitions
            .drain(..)
            .enumerate()
            .map(|(i, items)| Run {
                key: MorselKey { node: Some(items[0]), ordinal: i },
                items,
            })
            .collect();
        let r = rot % runs.len().max(1);
        runs.rotate_left(r);
        prop_assert_eq!(merge_runs(runs), nodes, "run-level merge rotated by {}", r);
    }
}
