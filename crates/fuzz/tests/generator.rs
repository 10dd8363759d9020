//! Self-tests for the query generator and shrinker.
//!
//! * Every generated query must make it through the whole front end —
//!   parse, normalize, translate — via `xquery::compile`; the oracle's
//!   coverage is only as good as the generator's hit rate, so a single
//!   unparseable rendering is a bug here, not in the engine.
//! * Alpha-renaming every binder must not change the query's
//!   `xquery::Fingerprint` (the plan-cache key): the two renderings of
//!   one model are alpha-equivalent by construction.
//! * The shrinker must only ever propose *valid* cases: each candidate
//!   it explores still compiles, so minimization can never walk out of
//!   the language.
//! * Quantifier ranges reach both of the engine's ways of deciding
//!   them: a filtered range (`//e[@id mod 2 = 1]/k`) compiles to a block
//!   that is drained first, every other one to a block pulled only as
//!   far as the decision.

use proptest::prelude::*;

use engine::PhysPlan;
use fuzz::gen::{GenConfig, Pred};
use fuzz::oracle::GenCase;
use fuzz::shrink::shrink;
use xmldb::MaintenanceMode;

/// How many nested blocks of `plan` (at any depth) are pulled lazily,
/// and how many are drained first.
fn block_modes(plan: &PhysPlan) -> (usize, usize) {
    let blocks = match plan {
        PhysPlan::Select { blocks, .. }
        | PhysPlan::Map { blocks, .. }
        | PhysPlan::UnnestMap { blocks, .. }
        | PhysPlan::HashJoin { blocks, .. }
        | PhysPlan::HashGroupUnary { blocks, .. }
        | PhysPlan::HashGroupBinary { blocks, .. } => Some(blocks),
        PhysPlan::LoopJoin { split, .. } => Some(&split.blocks),
        _ => None,
    };
    let mut modes = (0, 0);
    for block in blocks.into_iter().flat_map(|b| b.iter()) {
        let (lazy, drained) = block_modes(&block.plan);
        modes.0 += lazy + usize::from(block.lazy);
        modes.1 += drained + usize::from(!block.lazy);
    }
    for child in plan.children() {
        let (lazy, drained) = block_modes(child);
        modes.0 += lazy;
        modes.1 += drained;
    }
    modes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn generated_queries_compile(seed in 0u64..1_000_000) {
        let case = GenCase::random(seed, &GenConfig::default());
        let cat = case.corpus.build_catalog(MaintenanceMode::Delta);
        let text = case.query_text();
        let compiled = xquery::compile(&text, &cat);
        prop_assert!(
            compiled.is_ok(),
            "seed {} generated an uncompilable query: {:?}\n{}",
            seed,
            compiled.err(),
            text
        );
    }

    #[test]
    fn alpha_renamed_queries_share_a_fingerprint(seed in 0u64..1_000_000) {
        let case = GenCase::random(seed, &GenConfig::default());
        let cat = case.corpus.build_catalog(MaintenanceMode::Delta);
        let text = case.query_text();
        let renamed = case.query.render_renamed(&case.corpus);
        prop_assume!(xquery::compile(&text, &cat).is_ok());
        let f1 = xquery::Fingerprint::of_query(&text, &cat)
            .expect("standard rendering fingerprints");
        let f2 = xquery::Fingerprint::of_query(&renamed, &cat)
            .expect("renamed rendering fingerprints");
        prop_assert_eq!(
            &f1.canonical,
            &f2.canonical,
            "alpha-renaming changed the canonical form (seed {})\n{}\n--- vs ---\n{}",
            seed,
            text,
            renamed
        );
        prop_assert_eq!(f1.hash, f2.hash);
        prop_assert_eq!(&f1.docs, &f2.docs);
    }

    #[test]
    fn filtered_ranges_are_drained_and_the_others_pulled(seed in 0u64..1_000_000) {
        let case = GenCase::random(seed, &GenConfig::default());
        let cat = case.corpus.build_catalog(MaintenanceMode::Delta);
        let text = case.query_text();
        let expr = xquery::compile(&text, &cat).expect("generated queries compile");
        let (mut quants, mut filtered) = (0, 0);
        for p in &case.query.preds {
            if let Pred::Quant { filter, .. } = p {
                quants += 1;
                filtered += usize::from(filter.is_some());
            }
        }
        // In the nested plan every quantifier, `exists` and `count` is a
        // block; only the arithmetic of a filter makes one unobservable
        // to cut short no longer.
        let (lazy, drained) = block_modes(&engine::compile(&expr));
        prop_assert_eq!(drained, filtered, "seed {}\n{}", seed, text);
        prop_assert!(lazy >= quants - filtered, "seed {}\n{}", seed, text);
    }

    #[test]
    fn shrinker_preserves_compilability(seed in 0u64..1_000_000) {
        // Shrink under a predicate that accepts everything that
        // compiles: the shrinker will then walk all the way down its
        // move lattice, and every stop along the way must compile.
        let case = GenCase::random(seed, &GenConfig::default());
        let mut probes = 0usize;
        let smallest = shrink(case, 60, &mut |c| {
            probes += 1;
            let cat = c.corpus.build_catalog(MaintenanceMode::Delta);
            let text = c.query_text();
            assert!(
                xquery::compile(&text, &cat).is_ok(),
                "shrink candidate stopped compiling (seed {seed}):\n{text}"
            );
            true
        });
        prop_assert!(probes > 0);
        // Fully shrunk under an always-failing oracle: one binder, no
        // updates left.
        prop_assert_eq!(smallest.query.binder_count(), 1);
        prop_assert!(smallest.updates.is_empty());
    }
}
