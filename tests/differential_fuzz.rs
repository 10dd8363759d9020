//! Seeded differential fuzzing over the NAL algebra (see
//! `docs/ARCHITECTURE.md`, "Differential fuzzing").
//!
//! Every generated case — random corpus, random query over the
//! NAL-translatable XQuery subset, random update script — runs the full
//! execution matrix against `nal::eval_query` of the nested query: every
//! enumerated plan × scan vs indexed compilation × pre/post updates
//! under both index-maintenance modes, plus cost-model convertibility
//! agreement.
//!
//! The run is deterministic: case `i` uses seed `XQD_FUZZ_SEED + i`, so
//! any failure reported here reproduces in isolation with
//! `XQD_FUZZ_SEED=<case seed> XQD_FUZZ_CASES=1`. Raise the budget with
//! `XQD_FUZZ_CASES` (CI's smoke step runs 400 in release; a local
//! 1,000-case release run takes ≈ 2.5 s on a two-core machine). The run
//! prints how many outer tuples its engine runs answered from an indexed
//! spool, and at the default seed fails if none did.

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
            println!(
                "{cases} cases from seed {seed}: {} spool probes",
                report.spool_probes
            );
            // The default seed's first 48 cases already hold nested
            // blocks whose correlated σ or ∃ probes an indexed spool
            // (920 probes; 20,516 in CI's 400 cases), so the oracle
            // checks probed nested plans, not only replayed ones.
            if seed == DEFAULT_SEED && cases >= 48 {
                assert!(report.spool_probes > 0, "no spool was probed");
            }
        }
        Err(failure) => panic!("{failure}"),
    }
}
