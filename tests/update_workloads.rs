//! Randomized interleaving of catalog updates with the paper's
//! workloads (Q1–Q10): after every update, the indexed plans must stay
//! byte-identical to the scan plans — i.e. incremental index maintenance
//! is unobservable except for being cheaper.

use proptest::prelude::*;

use ordered_unnesting::workloads::{Workload, ALL, COMPOSITE, Q3_EXISTENTIAL, Q5_UNIVERSAL, RANGE};
use xmldb::gen::standard_catalog;
use xmldb::{Catalog, NodeId, NodeKind};

fn all_workloads() -> Vec<&'static Workload> {
    ALL.iter()
        .chain(RANGE.iter())
        .chain(COMPOSITE.iter())
        .collect()
}

/// Apply one randomized update to one of the three read documents.
/// `pick` selects the document, entry, and kind of touch.
fn apply_update(cat: &mut Catalog, doc_pick: usize, entry_pick: usize, kind: usize) {
    let uri = ["bib.xml", "reviews.xml", "prices.xml"][doc_pick % 3];
    let id = cat.by_uri(uri).unwrap();
    let doc = cat.doc(id).as_ref().clone();
    let root = doc.root_element().unwrap();
    let entries: Vec<NodeId> = doc.children(root).collect();
    if entries.len() < 3 {
        return;
    }
    let n = entries.len();
    match kind % 3 {
        0 => {
            // Duplicate an entry somewhere else in the sequence.
            let src = entries[entry_pick % n];
            let before = entries[(entry_pick + n / 2) % n];
            cat.insert_subtree(id, root, Some(before), &doc, src)
                .unwrap();
        }
        1 => {
            cat.delete_subtree(id, entries[entry_pick % n]).unwrap();
        }
        _ => {
            let target = entries[entry_pick % n];
            if let Some(text) = doc
                .descendants(target)
                .find(|&t| matches!(doc.kind(t), NodeKind::Text))
            {
                cat.replace_text(id, text, &format!("edit-{entry_pick}"))
                    .unwrap();
            }
        }
    }
}

/// Check one workload end to end: every enumerated plan, scan vs
/// indexed, byte-identical.
fn check_workload(w: &Workload, cat: &Catalog) {
    let nested =
        xquery::compile(w.query, cat).unwrap_or_else(|e| panic!("[{}] compile failed: {e}", w.id));
    for plan in unnest::enumerate_plans(&nested, cat) {
        let scan = engine::run_compiled(&engine::compile(&plan.expr), cat).expect("scan");
        let idx = engine::run_indexed(&plan.expr, cat).expect("indexed");
        assert_eq!(
            scan.output, idx.output,
            "[{}/{}] indexed output diverged after updates",
            w.id, plan.label
        );
        assert_eq!(scan.rows, idx.rows, "[{}/{}] rows", w.id, plan.label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn interleaved_updates_and_workloads_agree(
        steps in prop::collection::vec((0usize..3, 0usize..64, 0usize..3), 1..5),
    ) {
        let mut catalog = standard_catalog(15, 2, 5);
        // Warm every workload's indexes so the updates hit the delta
        // path rather than deferring to lazy rebuilds.
        let workloads = all_workloads();
        for w in &workloads {
            let nested = xquery::compile(w.query, &catalog).unwrap();
            for plan in unnest::enumerate_plans(&nested, &catalog) {
                engine::run_indexed(&plan.expr, &catalog).unwrap();
            }
        }
        for (round, &(doc_pick, entry_pick, kind)) in steps.iter().enumerate() {
            apply_update(&mut catalog, doc_pick, entry_pick, kind);
            // Rotate through the workloads so every one is exercised
            // against some post-update state without re-running all ten
            // after every step.
            for offset in 0..3 {
                check_workload(workloads[(round * 3 + offset) % workloads.len()], &catalog);
            }
        }
        // Final state: the full Q1–Q10 sweep.
        for w in &workloads {
            check_workload(w, &catalog);
        }
    }
}

/// One deterministic update to `bib.xml` per round, cycling through
/// duplicate-a-book, delete-a-book and retitle-a-book.
fn cycle_update(cat: &mut Catalog, id: xmldb::DocId, round: usize) {
    let doc = cat.doc(id).as_ref().clone();
    let root = doc.root_element().unwrap();
    let books: Vec<NodeId> = doc.children(root).collect();
    let n = books.len();
    assert!(n >= 3, "the update cycle needs at least 3 books");
    match round % 3 {
        0 => {
            let before = books[(round + n / 2) % n];
            cat.insert_subtree(id, root, Some(before), &doc, books[round % n])
                .unwrap();
        }
        1 => {
            cat.delete_subtree(id, books[(round + 1) % n]).unwrap();
        }
        _ => {
            let title = doc.children(books[round % n]).next().unwrap();
            if let Some(text) = doc.children(title).next() {
                cat.replace_text(id, text, &format!("Retitled {round}"))
                    .unwrap();
            }
        }
    }
}

/// Postings written while nine cycled updates hit `bib.xml` under
/// `mode`, with the indexes of Q3's and Q5's semijoin plans warm
/// before the first update. After every update both plans must stay
/// byte-identical on the scan and the indexed path.
fn postings_touched(mode: xmldb::MaintenanceMode) -> u64 {
    let mut catalog = standard_catalog(60, 2, 42);
    catalog.set_index_maintenance(mode);
    let plans: Vec<(String, nal::Expr)> = [&Q3_EXISTENTIAL, &Q5_UNIVERSAL]
        .iter()
        .flat_map(|w| {
            let nested = xquery::compile(w.query, &catalog).unwrap();
            unnest::enumerate_plans(&nested, &catalog)
        })
        .filter(|p| p.label.contains("semijoin"))
        .map(|p| (p.label, p.expr))
        .collect();
    assert_eq!(plans.len(), 2, "Q3 semijoin and Q5 anti-semijoin");
    for (_, expr) in &plans {
        engine::run_indexed(expr, &catalog).unwrap();
    }
    catalog.indexes().reset_maintenance_stats();
    let id = catalog.by_uri("bib.xml").unwrap();
    for round in 0..9 {
        cycle_update(&mut catalog, id, round);
        for (label, expr) in &plans {
            let scan = engine::run_compiled(&engine::compile(expr), &catalog).unwrap();
            let idx = engine::run_indexed(expr, &catalog).unwrap();
            assert_eq!(
                scan.output, idx.output,
                "[{mode:?}] round {round}, plan {label}: indexed output diverges from scan"
            );
        }
    }
    catalog.index_maintenance_stats().postings_total()
}

/// Delta maintenance touches the postings of the updated subtree; a
/// rebuild writes every posting of the document again. Same updates,
/// same queries: the delta total must stay strictly below.
#[test]
fn delta_maintenance_touches_fewer_postings_than_rebuild() {
    let delta = postings_touched(xmldb::MaintenanceMode::Delta);
    let rebuild = postings_touched(xmldb::MaintenanceMode::Rebuild);
    assert!(
        delta < rebuild,
        "delta maintenance touched {delta} postings, rebuild {rebuild}"
    );
}
