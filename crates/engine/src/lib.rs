//! `engine` — the physical query engine (the repo's Natix stand-in).
//!
//! Compiles NAL expressions ([`nal::Expr`]) into physical operator trees
//! ([`PhysPlan`]) and executes them over a document catalog with one
//! executor: [`execute`] lowers a plan into pull-based cursors
//! ([`pipeline`]) and drains the root; every `run*` entry point goes
//! through it. Equality
//! predicates run on hash-based, order-preserving operators (§2's
//! implementation discussion); other join predicates run on the shared
//! θ-probe ([`theta`]); everything else falls back to the definitional
//! forms. Subscripts are evaluated with the reference evaluator's
//! scalar semantics. The nested algebra blocks inside them — the hallmark
//! of *nested* plans — are compiled with the plan and run on these same
//! cursors once per outer tuple, the part of a block that reads nothing
//! of that tuple once per execution ([`nested`]): the nested-loop
//! strategy the paper's baseline measures, executed by the engine rather
//! than by `nal::eval`.
//!
//! Differential tests (`tests/engine_vs_spec.rs` and the umbrella
//! `tests/` suite) assert that every plan produces results and Ξ output
//! identical to `nal::eval`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
mod exec;
pub mod explain;
pub mod key;
pub mod live;
pub mod nested;
pub mod pipeline;
pub mod plan;
pub mod theta;

pub use access::{
    apply_indexes, for_each_access_path, join_recipe, revalidate_plan, AccessPathRef, AccessRecipe,
};
pub use explain::{run_traced, ExplainNode, ExplainReport};
pub use pipeline::{drain, Cursor};
pub use plan::{compile, compile_unpruned, JoinKind, JoinOn, Keep, PhysPlan};

use std::time::{Duration, Instant};

use nal::obs::ExecTrace;
use nal::{EvalCtx, EvalResult, Expr, Metrics, Scope, Seq, Tuple};
use xmldb::Catalog;

/// Result of running a query plan.
#[derive(Debug)]
pub struct QueryResult {
    /// The result sequence (identity output of Ξ-rooted plans).
    pub rows: Seq,
    /// The serialized Ξ output stream.
    pub output: String,
    /// Collected per-run counters.
    pub metrics: Metrics,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// Execute a plan with the bindings of `env` visible to its subscripts
/// (empty for a query): lower it into a cursor tree
/// ([`pipeline::lower`]) and pull the root to exhaustion. Nested blocks
/// in its subscripts run on the same cursors, lowered per outer tuple
/// under that tuple's scope, their shared subtrees replayed from spools
/// the execution fills once, or probed through an index of one
/// ([`nested`]).
pub fn execute(plan: &PhysPlan, env: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
    drain(pipeline::lower(plan, &Scope::of(env)).as_mut(), ctx)
}

/// Compile and execute a logical expression against a catalog.
pub fn run(expr: &Expr, catalog: &Catalog) -> EvalResult<QueryResult> {
    run_compiled(&compile(expr), catalog)
}

/// Execute an already-compiled plan.
pub fn run_compiled(plan: &PhysPlan, catalog: &Catalog) -> EvalResult<QueryResult> {
    Ok(run_at(plan, catalog, false)?.0)
}

/// Compile with index-backed access paths: [`compile`] followed by the
/// [`access::apply_indexes`] rewrite. Document-rooted path scans become
/// [`PhysPlan::IndexScan`]s and hash semi/anti joins over such scans
/// become [`PhysPlan::IndexJoin`]s wherever the conversion is provably
/// output-preserving; everything else compiles exactly as [`compile`].
pub fn compile_indexed(expr: &Expr, catalog: &Catalog) -> PhysPlan {
    access::apply_indexes(compile(expr), catalog)
}

/// [`run`] on an index-backed plan ([`compile_indexed`]).
pub fn run_indexed(expr: &Expr, catalog: &Catalog) -> EvalResult<QueryResult> {
    run_compiled(&compile_indexed(expr, catalog), catalog)
}

// xqbench names this; ROADMAP item 4 removes it.
#[doc(hidden)]
pub fn apply_parallel(plan: &PhysPlan) -> PhysPlan {
    plan.clone()
}

// xqbench names this; ROADMAP item 4 removes it.
#[doc(hidden)]
pub fn run_streaming_parallel(
    plan: &PhysPlan,
    catalog: &Catalog,
    _workers: usize,
) -> EvalResult<QueryResult> {
    run_compiled(plan, catalog)
}

// xqbench names this; ROADMAP item 4 removes it.
#[doc(hidden)]
pub fn run_streaming_traced_parallel(
    plan: &PhysPlan,
    catalog: &Catalog,
    _workers: usize,
) -> EvalResult<(QueryResult, ExecTrace)> {
    run_traced(plan, catalog)
}

/// Run a plan, recording the per-operator trace when `traced`.
fn run_at(
    plan: &PhysPlan,
    catalog: &Catalog,
    traced: bool,
) -> EvalResult<(QueryResult, Option<ExecTrace>)> {
    let mut ctx = EvalCtx::new(catalog);
    if traced {
        ctx.enable_trace();
    }
    let start = Instant::now();
    let rows = execute(plan, &Tuple::empty(), &mut ctx)?;
    let elapsed = start.elapsed();
    let trace = ctx.take_trace();
    let result = QueryResult {
        rows,
        output: ctx.take_output(),
        metrics: ctx.metrics,
        elapsed,
    };
    Ok((result, trace))
}
