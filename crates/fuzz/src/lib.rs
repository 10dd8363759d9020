//! `fuzz` — adversarial differential fuzzing oracle over the NAL
//! algebra.
//!
//! Randomized query + corpus + update-script generation paired with a
//! differential execution matrix checked against one ground truth,
//! `nal::eval_query` of the nested query: every enumerated plan × scan
//! vs indexed compilation × pre/post updates under both
//! index-maintenance modes, plus cost-model convertibility agreement.
//! See `docs/ARCHITECTURE.md`
//! ("Differential fuzzing") for the full matrix and the reproduction
//! workflow.
//!
//! Entry points:
//!
//! * [`run_fuzz`] — generate-and-check a seeded batch; on failure,
//!   shrink to a minimal reproducer and return a [`FuzzFailure`] whose
//!   `Display` is a copy-pasteable regression snippet.
//! * [`oracle::check_case`] / [`repro::parse`] — replay committed
//!   snippets.
//! * [`env_seed`] / [`env_cases`] — `XQD_FUZZ_SEED` / `XQD_FUZZ_CASES`
//!   overrides used by the test binaries.

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod repro;
pub mod shrink;
pub mod update;

pub use gen::GenConfig;
pub use oracle::{check_case, Failure, GenCase};

/// The fixed seed used when `XQD_FUZZ_SEED` is unset — also the seed CI
/// pins for the fuzz-smoke step.
pub const DEFAULT_SEED: u64 = 0xD1FF;

/// Shrink budget (oracle invocations) spent minimizing a failing case.
pub const SHRINK_BUDGET: usize = 400;

/// Read the fuzz seed from `XQD_FUZZ_SEED`, or `default`.
pub fn env_seed(default: u64) -> u64 {
    std::env::var("XQD_FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read the case budget from `XQD_FUZZ_CASES`, or `default`.
pub fn env_cases(default: usize) -> usize {
    std::env::var("XQD_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A fuzz run failure: the original and shrunk case, the oracle's
/// verdict, and the serialized repro snippet.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The per-case seed (pass as `XQD_FUZZ_SEED` with
    /// `XQD_FUZZ_CASES=1` to regenerate the unshrunk case).
    pub case_seed: u64,
    /// Index of the case within the batch.
    pub case_index: usize,
    /// Binder count before shrinking.
    pub original_binders: usize,
    /// The minimized case.
    pub shrunk: GenCase,
    /// The oracle's verdict on the minimized case.
    pub failure: Failure,
    /// The copy-pasteable repro snippet (commit under
    /// `tests/fuzz_corpus/` to pin the regression).
    pub snippet: String,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "differential fuzz case #{} (seed {}) failed: {}",
            self.case_index, self.case_seed, self.failure
        )?;
        writeln!(
            f,
            "reproduce the unshrunk case with: XQD_FUZZ_SEED={} XQD_FUZZ_CASES=1",
            self.case_seed
        )?;
        writeln!(
            f,
            "shrunk reproducer ({} of {} binders kept) — save as tests/fuzz_corpus/<name>.repro:",
            self.shrunk.query.binder_count(),
            self.original_binders
        )?;
        writeln!(f, "----8<----")?;
        write!(f, "{}", self.snippet)?;
        writeln!(f, "---->8----")
    }
}

/// Statistics from a passing run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases: usize,
    /// Cases whose update script was non-empty.
    pub with_updates: usize,
}

/// Generate and check `cases` cases starting at `seed` (case `i` uses
/// seed `seed + i`, so any failure is reproducible in isolation). On
/// the first failure, shrink it and return the minimized
/// [`FuzzFailure`].
pub fn run_fuzz(seed: u64, cases: usize, cfg: &GenConfig) -> Result<FuzzReport, Box<FuzzFailure>> {
    let mut report = FuzzReport::default();
    for i in 0..cases {
        let case_seed = seed.wrapping_add(i as u64);
        let case = GenCase::random(case_seed, cfg);
        report.cases += 1;
        report.with_updates += usize::from(!case.updates.is_empty());
        if let Err(first) = oracle::check_case(&case) {
            let original_binders = case.query.binder_count();
            let shrunk =
                shrink::shrink(case, SHRINK_BUDGET, &mut |c| oracle::check_case(c).is_err());
            let failure = oracle::check_case(&shrunk).err().unwrap_or(first);
            let snippet = repro::serialize(&shrunk, case_seed);
            return Err(Box::new(FuzzFailure {
                case_seed,
                case_index: i,
                original_binders,
                shrunk,
                failure,
                snippet,
            }));
        }
    }
    Ok(report)
}
