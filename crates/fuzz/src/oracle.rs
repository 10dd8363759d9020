//! The differential oracle: run one generated case through the
//! execution matrix and demand agreement with the ground truth.
//!
//! One system under test, one ground truth (the datafusion-fuzzer
//! layout): the reference is `nal::eval_query` of the case's *nested*
//! expression — the §2 definitions, untouched by the rewriter and the
//! engine — evaluated once per catalog state (pre-update and
//! post-update). Against it:
//!
//! * every enumerated plan (nested + rewrites, capped) × scan vs indexed
//!   compilation × `MaintenanceMode::Delta` vs `Rebuild` catalog must
//!   produce **byte-identical Ξ output and the same
//!   rows** — or fail exactly when the reference fails. The nested
//!   plan's scan run is held to the reference exactly. A rewrite starts
//!   from the pruned query (the paper's "project unneeded attributes
//!   away"), so its tuples may carry fewer attributes than the nested
//!   query's: its scan run is compared on the attributes its tuple
//!   carries. Every indexed run must equal the scan run of the same plan
//!   exactly, so an index rewrite cannot drop an attribute either. A
//!   divergence from the reference also evaluates the plan's own
//!   expression with `nal::eval` to say whether the rewrite or the
//!   engine is at fault;
//! * every index join the engine accepted must be priceable by the cost
//!   model (`recipe_probe_cost` — "never price what the engine
//!   declines", checked in the accepting direction).

use engine::QueryResult;
use nal::{EvalCtx, EvalResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xmldb::{Catalog, MaintenanceMode};

use crate::corpus::Corpus;
use crate::gen::{GenConfig, GenQuery};
use crate::update::{apply_script, random_script, UpdateOp};

/// Cap on enumerated plans checked per case (the first is always the
/// nested plan).
pub const MAX_PLANS: usize = 3;

/// One complete generated case.
#[derive(Clone, Debug, PartialEq)]
pub struct GenCase {
    /// The data.
    pub corpus: Corpus,
    /// The query model.
    pub query: GenQuery,
    /// The update script applied between the pre and post phases.
    pub updates: Vec<UpdateOp>,
}

impl GenCase {
    /// Generate the case for one per-case seed (deterministic — the
    /// same seed always yields the same case).
    pub fn random(case_seed: u64, cfg: &GenConfig) -> GenCase {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let corpus = Corpus::random(&mut rng);
        let mut query = GenQuery::random(&mut rng, &corpus, cfg);
        let updates = random_script(&mut rng, &corpus, 4);
        query.filter_ranges(&mut rng);
        GenCase {
            corpus,
            query,
            updates,
        }
    }

    /// The rendered query text.
    pub fn query_text(&self) -> String {
        self.query.render(&self.corpus)
    }
}

/// A matrix disagreement (or a compile/execute breakage).
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which phase broke: `compile`, `pre`, `post`, `convertibility`.
    pub phase: String,
    /// Plan label (from `unnest::enumerate_plans`) when applicable.
    pub plan: String,
    /// The matrix cell, e.g. `idx/rebuild` or `scan/delta`.
    pub cell: String,
    /// Human-readable detail (truncated outputs).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] plan `{}` cell `{}`: {}",
            self.phase, self.plan, self.cell, self.detail
        )
    }
}

fn clip(s: &str) -> String {
    const LIMIT: usize = 300;
    if s.len() <= LIMIT {
        s.to_string()
    } else {
        format!("{}… ({} bytes)", &s[..LIMIT], s.len())
    }
}

fn fail(phase: &str, plan: &str, cell: &str, detail: String) -> Failure {
    Failure {
        phase: phase.to_string(),
        plan: plan.to_string(),
        cell: cell.to_string(),
        detail,
    }
}

/// `nal::eval_query` of `expr`, shaped like an engine run.
fn reference(expr: &nal::Expr, cat: &Catalog) -> EvalResult<QueryResult> {
    let mut ctx = EvalCtx::new(cat);
    let rows = nal::eval_query(expr, &mut ctx)?;
    Ok(QueryResult {
        rows,
        output: ctx.take_output(),
        metrics: ctx.metrics,
        elapsed: Default::default(),
    })
}

/// Equal rows and Ξ bytes, or both failed.
fn agree(a: &EvalResult<QueryResult>, b: &EvalResult<QueryResult>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.rows == b.rows && a.output == b.output,
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// Does `run` give the reference's answer: equal Ξ bytes and, row by
/// row, the reference's values on the attributes the run's tuple
/// carries — or did both fail?
fn answers(run: &EvalResult<QueryResult>, truth: &EvalResult<QueryResult>) -> bool {
    match (run, truth) {
        (Ok(run), Ok(truth)) => {
            run.output == truth.output
                && run.rows.len() == truth.rows.len()
                && (run.rows.iter().zip(&truth.rows)).all(|(r, t)| *r == t.project(&r.attrs()))
        }
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

fn show(r: &EvalResult<QueryResult>) -> String {
    match r {
        Ok(r) => format!("{} rows, {}", r.rows.len(), clip(&r.output)),
        Err(e) => format!("error: {e}"),
    }
}

/// Run one plan expression against one catalog state: the scan run
/// against the phase's `truth` (exactly when `expr` is the nested
/// expression `truth` evaluates, else through [`answers`]), and the
/// indexed run against the scan run exactly.
fn check_matrix(
    phase: &str,
    plan_label: &str,
    expr: &nal::Expr,
    (maintenance, cat): (&str, &Catalog),
    (truth, exact): (&EvalResult<QueryResult>, bool),
) -> Result<(), Failure> {
    let scan_plan = engine::compile(expr);
    let idx_plan = engine::compile_indexed(expr, cat);
    let scan = engine::run_compiled(&scan_plan, cat);
    let gives_truth = match exact {
        true => agree(&scan, truth),
        false => answers(&scan, truth),
    };
    if !gives_truth {
        // The failure path only: is the plan's own expression what the
        // engine computed (the rewrite changed the answer), or not (the
        // engine is wrong)?
        let at_fault = match agree(&reference(expr, cat), &scan) {
            true => "the rewrite (the engine agrees with this plan's expression)",
            false => "the engine (it disagrees with this plan's own expression)",
        };
        return Err(fail(
            phase,
            plan_label,
            &format!("scan/{maintenance}"),
            format!(
                "diverges from nal::eval_query of the nested expression; at fault: {at_fault}\n  reference: {}\n  cell:      {}",
                show(truth),
                show(&scan)
            ),
        ));
    }
    let idx = engine::run_compiled(&idx_plan, cat);
    if !agree(&idx, &scan) {
        return Err(fail(
            phase,
            plan_label,
            &format!("idx/{maintenance}"),
            format!(
                "the indexed run diverges from the scan run of the same plan:\n  scan: {}\n  idx:  {}",
                show(&scan),
                show(&idx)
            ),
        ));
    }

    // Convertibility agreement: every access recipe the engine accepted
    // must be priceable by the cost model.
    let mut unpriced: Vec<String> = Vec::new();
    let mut cm = unnest::CostModel::with_indexes(cat, true);
    engine::for_each_access_path(&idx_plan, &mut |path| {
        if let engine::AccessPathRef::Join(recipe) = path {
            if cm.recipe_probe_cost(recipe).is_none() {
                unpriced.push(format!("{}:{:?}", recipe.uri, recipe.pattern));
            }
        }
    });
    if !unpriced.is_empty() {
        return Err(fail(
            "convertibility",
            plan_label,
            "idx",
            format!(
                "engine accepted index joins the cost model cannot price: {}",
                unpriced.join("; ")
            ),
        ));
    }
    Ok(())
}

/// Check one case end to end. Usable both on generated cases and on
/// replayed repro snippets (which carry query text instead of a model)
/// via [`check_parts`].
pub fn check_case(case: &GenCase) -> Result<(), Failure> {
    check_parts(&case.corpus, &case.query_text(), &case.updates)
}

/// Check a (corpus, query text, update script) triple end to end.
pub fn check_parts(corpus: &Corpus, query: &str, updates: &[UpdateOp]) -> Result<(), Failure> {
    let mut cat_delta = corpus.build_catalog(MaintenanceMode::Delta);
    let mut cat_rebuild = corpus.build_catalog(MaintenanceMode::Rebuild);

    let expr = xquery::compile(query, &cat_delta)
        .map_err(|e| fail("compile", "-", "-", format!("query does not compile: {e}")))?;
    let mut plans = unnest::enumerate_plans(&expr, &cat_delta);
    plans.truncate(MAX_PLANS);

    for phase in ["pre", "post"] {
        if phase == "post" {
            apply_script(&mut cat_delta, corpus, updates);
            apply_script(&mut cat_rebuild, corpus, updates);
        }
        let truth = reference(&expr, &cat_delta);
        for plan in &plans {
            let exact = plan.expr == expr;
            for cat in [("delta", &cat_delta), ("rebuild", &cat_rebuild)] {
                check_matrix(phase, &plan.label, &plan.expr, cat, (&truth, exact))?;
            }
        }
    }
    Ok(())
}
