//! The differential oracle: run one generated case through the full
//! execution matrix and demand agreement everywhere.
//!
//! For every enumerated plan (nested + rewrites, capped) and every
//! catalog state (pre-update and post-update, under both
//! `MaintenanceMode::Delta` and `Rebuild`):
//!
//! * scan vs indexed compilation × materializing vs streaming executor
//!   must be **byte-identical** in Ξ output and equal in rows;
//! * `probe_tuples` of the scan plan and `index_lookups`/`index_hits`/
//!   `probe_tuples` of the indexed plan must be executor-identical (the
//!   executors share their join cursors and the recipe runtime);
//! * the parallel streaming executor at degrees {1, 2, 8} must match
//!   the serial streaming run exactly — output, rows, and *full*
//!   [`nal::Metrics`] equality — over both the scan and indexed plans;
//! * every rewritten plan must produce the same reference output as the
//!   nested plan (the paper's equivalences, checked end to end);
//! * Delta and Rebuild maintenance must be observationally identical;
//! * every index join the engine accepted must be priceable by the cost
//!   model (`recipe_probe_cost` — "never price what the engine
//!   declines", checked in the accepting direction).

use rand::rngs::StdRng;
use rand::SeedableRng;
use xmldb::{Catalog, MaintenanceMode};

use crate::corpus::Corpus;
use crate::gen::{GenConfig, GenQuery};
use crate::update::{apply_script, random_script, UpdateOp};

/// Parallel degrees every case is executed at.
pub const WORKERS: [usize; 3] = [1, 2, 8];

/// Cap on enumerated plans checked per case (the first is always the
/// nested reference plan).
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
        let query = GenQuery::random(&mut rng, &corpus, cfg);
        let updates = random_script(&mut rng, &corpus, 4);
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
    /// Which phase broke: `compile`, `pre`, `post`, `delta-vs-rebuild`,
    /// `plan-equivalence`, `convertibility`.
    pub phase: String,
    /// Plan label (from `unnest::enumerate_plans`) when applicable.
    pub plan: String,
    /// The matrix cell, e.g. `idx/stream` or `scan/parallel@8`.
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

/// Run the full matrix for one plan expression against one catalog
/// state; returns the reference (scan × materializing) Ξ output.
fn check_matrix(
    phase: &str,
    plan_label: &str,
    expr: &nal::Expr,
    cat: &Catalog,
) -> Result<String, Failure> {
    let scan_plan = engine::compile(expr);
    let idx_plan = engine::compile_indexed(expr, cat);
    let reference = engine::run_compiled(&scan_plan, cat).map_err(|e| {
        fail(
            phase,
            plan_label,
            "scan/mat",
            format!("execution failed: {e}"),
        )
    })?;

    let mut cells: Vec<(&str, engine::QueryResult)> = Vec::new();
    let scan_stream = engine::run_streaming_compiled(&scan_plan, cat).map_err(|e| {
        fail(
            phase,
            plan_label,
            "scan/stream",
            format!("execution failed: {e}"),
        )
    })?;
    let idx_mat = engine::run_compiled(&idx_plan, cat).map_err(|e| {
        fail(
            phase,
            plan_label,
            "idx/mat",
            format!("execution failed: {e}"),
        )
    })?;
    let idx_stream = engine::run_streaming_compiled(&idx_plan, cat).map_err(|e| {
        fail(
            phase,
            plan_label,
            "idx/stream",
            format!("execution failed: {e}"),
        )
    })?;

    for (cell, mat, stream) in [
        ("scan/mat-vs-stream", &reference, &scan_stream),
        ("idx/mat-vs-stream", &idx_mat, &idx_stream),
    ] {
        let probes = |r: &engine::QueryResult| {
            let m = &r.metrics;
            (m.index_lookups, m.index_hits, m.probe_tuples)
        };
        if probes(mat) != probes(stream) {
            return Err(fail(
                phase,
                plan_label,
                cell,
                format!(
                    "index_lookups/index_hits/probe_tuples diverge across executors: \
                     mat {:?} vs stream {:?}",
                    probes(mat),
                    probes(stream)
                ),
            ));
        }
    }

    cells.push(("scan/stream", scan_stream));
    cells.push(("idx/mat", idx_mat));
    cells.push(("idx/stream", idx_stream));
    for (cell, res) in &cells {
        if res.output != reference.output || res.rows != reference.rows {
            return Err(fail(
                phase,
                plan_label,
                cell,
                format!(
                    "diverges from scan/mat reference:\n  reference: {}\n  cell:      {}",
                    clip(&reference.output),
                    clip(&res.output)
                ),
            ));
        }
    }

    // Parallel streaming at every degree, over both compilations; the
    // serial streaming run of the same plan is the yardstick, and the
    // comparison is *full* metrics equality (worker-summed counters
    // must be indistinguishable from serial).
    for (mode, plan, serial) in [
        ("scan", &scan_plan, &cells[0].1),
        ("idx", &idx_plan, &cells[2].1),
    ] {
        let par_plan = engine::apply_parallel(plan);
        for workers in WORKERS {
            let cell = format!("{mode}/parallel@{workers}");
            let par = engine::run_streaming_parallel(&par_plan, cat, workers)
                .map_err(|e| fail(phase, plan_label, &cell, format!("execution failed: {e}")))?;
            if par.output != serial.output || par.rows != serial.rows {
                return Err(fail(
                    phase,
                    plan_label,
                    &cell,
                    format!(
                        "parallel output diverges from serial streaming:\n  serial:   {}\n  parallel: {}",
                        clip(&serial.output),
                        clip(&par.output)
                    ),
                ));
            }
            if par.metrics != serial.metrics {
                return Err(fail(
                    phase,
                    plan_label,
                    &cell,
                    format!(
                        "worker-summed metrics diverge from serial streaming:\n  serial:   {:?}\n  parallel: {:?}",
                        serial.metrics, par.metrics
                    ),
                ));
            }
        }
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

    Ok(reference.output)
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
        let mut nested_output: Option<String> = None;
        for plan in &plans {
            let out_delta = check_matrix(phase, &plan.label, &plan.expr, &cat_delta)?;
            let out_rebuild = check_matrix(phase, &plan.label, &plan.expr, &cat_rebuild)?;
            if out_delta != out_rebuild {
                return Err(fail(
                    "delta-vs-rebuild",
                    &plan.label,
                    phase,
                    format!(
                        "maintenance modes disagree:\n  delta:   {}\n  rebuild: {}",
                        clip(&out_delta),
                        clip(&out_rebuild)
                    ),
                ));
            }
            match &nested_output {
                None => nested_output = Some(out_delta),
                Some(first) => {
                    if *first != out_delta {
                        return Err(fail(
                            "plan-equivalence",
                            &plan.label,
                            phase,
                            format!(
                                "rewrite diverges from the nested plan:\n  nested:  {}\n  rewrite: {}",
                                clip(first),
                                clip(&out_delta)
                            ),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}
