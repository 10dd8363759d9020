//! Randomized interleaving of catalog updates with the paper's
//! workloads (Q1–Q10): after every update, the indexed plans must stay
//! byte-identical to the scan plans — i.e. incremental index maintenance
//! is unobservable except for being cheaper.

use proptest::prelude::*;

use ordered_unnesting::workloads::{Workload, ALL, COMPOSITE, RANGE};
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
