//! Seeded differential fuzzing over the NAL algebra (see
//! `docs/ARCHITECTURE.md`, "Differential fuzzing").
//!
//! Every generated case — random corpus, random query over the
//! NAL-translatable XQuery subset, random update script — runs the full
//! execution matrix against `nal::eval_query` of the nested query: every
//! enumerated plan × scan vs indexed compilation × pre/post updates
//! under both index-maintenance modes, parallel degrees {1, 2, 8}
//! against the serial run, plus cost-model convertibility agreement.
//!
//! The run is deterministic: case `i` uses seed `XQD_FUZZ_SEED + i`, so
//! any failure reported here reproduces in isolation with
//! `XQD_FUZZ_SEED=<case seed> XQD_FUZZ_CASES=1`. Raise the budget with
//! `XQD_FUZZ_CASES` (CI's smoke step runs 200 in release; a local
//! 500-case release run takes ≈ 7 s on a two-core machine).

use fuzz::{env_cases, env_seed, run_fuzz, GenConfig, DEFAULT_SEED};

#[test]
fn seeded_differential_fuzz() {
    // Modest default so debug-mode `cargo test` stays snappy; CI and
    // local soak runs raise it via the environment.
    let seed = env_seed(DEFAULT_SEED);
    let cases = env_cases(48);
    match run_fuzz(seed, cases, &GenConfig::default()) {
        Ok(report) => {
            assert_eq!(report.cases, cases);
        }
        Err(failure) => panic!("{failure}"),
    }
}
