//! Cost-based plan choice.
//!
//! §4: "Whenever there are alternative applications, the most efficient
//! plan should be chosen. This plan typically results from the
//! equivalences with the most restrictive conditions attached." The
//! driver's label preference implements the paper's *typical* rule; this
//! module implements the general one: a cardinality estimator over
//! document statistics ([`xmldb::DocStats`]) and a simple cost model in
//! which
//!
//! * every operator pays its input cardinality,
//! * path evaluation pays the visited subtree,
//! * and — the decisive term — a **nested scalar expression pays its full
//!   cost once per outer tuple**, which is exactly why nested plans lose.
//!
//! The model has an **index mode** ([`CostModel::with_indexes`],
//! [`rank_plans_with`], [`unnest_cheapest_with`]) matching the engine's
//! index-backed access paths: document-rooted path scans are priced as
//! index lookups (result size, not visited subtree) and semi/anti joins
//! whose build side is an indexable document path are priced as one
//! value-index probe per left tuple — no build-side scan at all. This is
//! what lets the cost-based chooser prefer the quantifier-join plans
//! whenever indexes make them win.
//!
//! Statistics come from [`Catalog::stats`], which memoizes one
//! [`DocStats`] walk per document across every `CostModel` instance.

use std::collections::HashMap;
use std::sync::Arc;

use nal::{Expr, ProjOp, Scalar};
use xmldb::{Catalog, DocStats};
use xpath::{Axis, Path};

use crate::driver::PlanChoice;

/// Estimated cardinality and cost of an expression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Output rows.
    pub rows: f64,
    /// Abstract work units (≈ tuples touched + nodes visited).
    pub cost: f64,
}

/// Fitted constants for the model's two guessed terms.
///
/// The cardinality side of the model is statistics-driven, but two
/// numbers are pure priors: the weight of a B-tree-ish index seek
/// relative to one tuple of scan work, and the fan-out assumed for a
/// path whose provenance the model cannot trace. Both are fittable
/// from `(predicted_cost, measured_us)` pairs — the bench harness's
/// `calibration` experiment grid-fits them against measured plan times
/// and checks that the fitted model's plan ranking rank-correlates
/// with the measured ranking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// Multiplier on the index-probe seek term (`1.0` = one seek costs
    /// `1 + log₂(keys)` tuples of work, the uncalibrated prior).
    pub probe_weight: f64,
    /// Fan-out assumed for untraceable paths (uncalibrated prior: 2.0).
    pub fanout_prior: f64,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration {
            probe_weight: 1.0,
            fanout_prior: 2.0,
        }
    }
}

/// Estimator with per-document statistics (memoized on the catalog).
pub struct CostModel<'a> {
    catalog: &'a Catalog,
    stats: HashMap<String, Arc<DocStats>>,
    /// Price index-backed access paths (engine `compile_indexed`).
    use_indexes: bool,
    /// Fitted constants (defaults are the uncalibrated priors).
    cal: Calibration,
}

/// Default selectivity of a non-correlating predicate.
const SELECTIVITY: f64 = 0.5;

impl<'a> CostModel<'a> {
    /// A scan-mode model (no index-backed access paths priced).
    pub fn new(catalog: &'a Catalog) -> CostModel<'a> {
        CostModel::with_indexes(catalog, false)
    }

    /// A model that prices index-backed access paths when `use_indexes`.
    pub fn with_indexes(catalog: &'a Catalog, use_indexes: bool) -> CostModel<'a> {
        CostModel::with_calibration(catalog, use_indexes, Calibration::default())
    }

    /// A model with explicitly fitted [`Calibration`] constants.
    pub fn with_calibration(
        catalog: &'a Catalog,
        use_indexes: bool,
        cal: Calibration,
    ) -> CostModel<'a> {
        CostModel {
            catalog,
            stats: HashMap::new(),
            use_indexes,
            cal,
        }
    }

    fn stats_for(&mut self, uri: &str) -> Option<&DocStats> {
        if !self.stats.contains_key(uri) {
            // `Catalog::stats` memoizes the document walk globally; the
            // local map only avoids re-taking the catalog's lock.
            let stats = self.catalog.stats_by_uri(uri)?;
            self.stats.insert(uri.to_string(), stats);
        }
        self.stats.get(uri).map(Arc::as_ref)
    }

    /// Estimate an expression (top-level: no outer bindings).
    pub fn estimate(&mut self, e: &Expr) -> Estimate {
        self.est(e)
    }

    fn est(&mut self, e: &Expr) -> Estimate {
        match e {
            Expr::Singleton => Estimate {
                rows: 1.0,
                cost: 1.0,
            },
            Expr::Literal(rows) => Estimate {
                rows: rows.len() as f64,
                cost: rows.len() as f64,
            },
            // The group a rel() reads is bounded by its producer; a small
            // constant keeps group-filter plans priced as bounded work.
            Expr::AttrRel(_) => Estimate {
                rows: 8.0,
                cost: 8.0,
            },
            Expr::Select { input, pred } => {
                let i = self.est(input);
                let scalar = self.scalar_cost(pred);
                Estimate {
                    rows: (i.rows * SELECTIVITY).max(1.0),
                    cost: i.cost + i.rows * (1.0 + scalar),
                }
            }
            Expr::Project { input, op } => {
                let i = self.est(input);
                let rows = match op {
                    ProjOp::DistinctCols(_) | ProjOp::DistinctRename(_) => (i.rows * 0.5).max(1.0),
                    _ => i.rows,
                };
                Estimate {
                    rows,
                    cost: i.cost + i.rows,
                }
            }
            Expr::Map { input, value, .. } => {
                let i = self.est(input);
                let scalar = self.scalar_cost(value);
                Estimate {
                    rows: i.rows,
                    cost: i.cost + i.rows * (1.0 + scalar),
                }
            }
            Expr::Cross { left, right } => {
                let l = self.est(left);
                let r = self.est(right);
                Estimate {
                    rows: l.rows * r.rows,
                    cost: l.cost + r.cost + l.rows * r.rows,
                }
            }
            Expr::Join { left, right, .. } => {
                let l = self.est(left);
                let r = self.est(right);
                // Equi-join estimate: |L| matches spread over the right.
                Estimate {
                    rows: (l.rows * r.rows * 0.1).max(1.0),
                    cost: l.cost + r.cost + l.rows + r.rows,
                }
            }
            Expr::SemiJoin { left, right, .. } | Expr::AntiJoin { left, right, .. } => {
                let l = self.est(left);
                let rows = (l.rows * SELECTIVITY).max(1.0);
                // Index mode: a quantifier join over an indexable build
                // side never executes the build — each left tuple pays
                // one value-index probe instead.
                if self.use_indexes {
                    if let Some(probe) = self.index_probe_cost(e) {
                        return Estimate {
                            rows,
                            cost: l.cost + l.rows * probe,
                        };
                    }
                }
                let r = self.est(right);
                Estimate {
                    rows,
                    cost: l.cost + r.cost + l.rows + r.rows,
                }
            }
            Expr::OuterJoin { left, right, .. } => {
                let l = self.est(left);
                let r = self.est(right);
                Estimate {
                    rows: l.rows.max(1.0),
                    cost: l.cost + r.cost + l.rows + r.rows,
                }
            }
            Expr::GroupUnary { input, .. } => {
                let i = self.est(input);
                Estimate {
                    rows: (i.rows * 0.5).max(1.0),
                    cost: i.cost + 2.0 * i.rows,
                }
            }
            Expr::GroupBinary { left, right, .. } => {
                let l = self.est(left);
                let r = self.est(right);
                Estimate {
                    rows: l.rows,
                    cost: l.cost + r.cost + l.rows + r.rows,
                }
            }
            Expr::Unnest { input, .. } => {
                let i = self.est(input);
                // Groups unnest back to roughly the pre-grouping size.
                Estimate {
                    rows: i.rows * 2.0,
                    cost: i.cost + i.rows * 2.0,
                }
            }
            Expr::UnnestMap { input, value, .. } => {
                let i = self.est(input);
                let (fanout, step_cost) = self.path_fanout(value, input);
                Estimate {
                    rows: (i.rows * fanout).max(1.0),
                    cost: i.cost + i.rows * (1.0 + step_cost),
                }
            }
            Expr::XiSimple { input, .. } => {
                let i = self.est(input);
                Estimate {
                    rows: i.rows,
                    cost: i.cost + i.rows,
                }
            }
            Expr::XiGroup { input, .. } => {
                let i = self.est(input);
                Estimate {
                    rows: (i.rows * 0.5).max(1.0),
                    cost: i.cost + 2.0 * i.rows,
                }
            }
        }
    }

    /// Cost of evaluating a scalar once. Nested algebra expressions pay
    /// their full estimated cost — per evaluation.
    fn scalar_cost(&mut self, s: &Scalar) -> f64 {
        match s {
            Scalar::Const(_) | Scalar::Attr(_) => 0.0,
            Scalar::Doc(_) => 1.0,
            Scalar::Cmp(_, l, r)
            | Scalar::In(l, r)
            | Scalar::And(l, r)
            | Scalar::Or(l, r)
            | Scalar::Arith(_, l, r) => 1.0 + self.scalar_cost(l) + self.scalar_cost(r),
            Scalar::Not(x) | Scalar::Lift(x, _) | Scalar::DistinctItems(x) => {
                1.0 + self.scalar_cost(x)
            }
            Scalar::Path(base, path) => self.scalar_cost(base) + path_step_cost(path),
            Scalar::Call(_, args) => 1.0 + args.iter().map(|a| self.scalar_cost(a)).sum::<f64>(),
            // The decisive terms: a nested expression is re-evaluated per
            // outer tuple, so its whole cost lands here.
            Scalar::Exists { range, pred, .. } | Scalar::Forall { range, pred, .. } => {
                self.est(range).cost + self.scalar_cost(pred)
            }
            Scalar::Agg { f, input } => {
                let inner = self.est(input).cost;
                let filter = f
                    .filter
                    .as_ref()
                    .map(|p| self.scalar_cost(p))
                    .unwrap_or(0.0);
                inner + filter
            }
        }
    }

    /// Can the engine answer this semi/anti join with a value-index
    /// probe? Instead of re-deriving the convertibility conditions at
    /// the logical level (the drift-prone duplication this model used to
    /// carry), the join is compiled and handed to the engine's **own**
    /// tracer: [`engine::join_recipe`] either emits the
    /// [`engine::AccessRecipe`] the executor would run, or the model
    /// prices the scan join — "never price what the engine declines" is
    /// true by construction.
    ///
    /// Returns the per-left-tuple probe cost, read off the recipe's
    /// driver:
    ///
    /// * point probes pay a B-tree-ish `log₂` seek of the key count;
    /// * composite probes pay the seek plus one comparison per key
    ///   component (the lexicographic key is wider, the posting set per
    ///   key smaller — the seek still dominates);
    /// * range probes add a scan term matching the engine's two
    ///   execution regimes: existence-only probes short-circuit on the
    ///   first in-range node (one average posting run), while probes
    ///   with a residual or replayed pipeline reconstruct in-range
    ///   candidates until one passes (a selectivity-scaled scan of the
    ///   whole window).
    fn index_probe_cost(&mut self, join: &Expr) -> Option<f64> {
        // ⋉ or ▷ alike: the kind is irrelevant to convertibility and to
        // the probe's price, the tracer only records it.
        let recipe = engine::join_recipe(&engine::compile(join), self.catalog)?;
        self.recipe_probe_cost(&recipe)
    }

    /// Per-left-tuple probe cost of an already-traced access recipe —
    /// the pricing half of the (private) `index_probe_cost`, reusable
    /// when the recipe is in hand (per-node attribution over compiled
    /// plans, where the `IndexJoin` node carries its recipe).
    pub fn recipe_probe_cost(&mut self, recipe: &engine::AccessRecipe) -> Option<f64> {
        let name = recipe.key_tag()?.to_string();
        let probe_weight = self.cal.probe_weight;
        let stats = self.stats_for(&recipe.uri)?;
        let keys = stats.distinct(&name).max(1) as f64;
        let seek = probe_weight * (1.0 + (keys + 2.0).log2());
        match &recipe.driver {
            engine::access::Driver::Point { .. } => Some(seek),
            engine::access::Driver::Composite { probes, .. } => Some(seek + probes.len() as f64),
            engine::access::Driver::Range { .. } => {
                let postings = stats.elements(&name).max(1) as f64;
                if recipe.filters_rows() {
                    // A residual or replayed pipeline forces candidate
                    // reconstruction until one passes: a selectivity-
                    // scaled scan of ALL in-range postings (still no
                    // build-side execution).
                    Some(seek + SELECTIVITY * postings)
                } else {
                    // Existence-only probe: the engine short-circuits on
                    // the first in-range node, so the expected scan is
                    // one average posting run, not the window.
                    Some(seek + SELECTIVITY * (postings / keys).max(1.0))
                }
            }
        }
    }

    /// Fan-out and per-tuple cost of an Υ subscript. Document-rooted
    /// descendant paths are priced from statistics (as an index lookup
    /// in index mode — result size, not visited subtree); per-tuple
    /// child steps are priced by the parent→child [`DocStats::avg_fanout`]
    /// when the provenance is traceable; anything else gets a neutral
    /// default.
    fn path_fanout(&mut self, value: &Scalar, input: &Expr) -> (f64, f64) {
        match value {
            Scalar::DistinctItems(inner) => {
                let (f, c) = self.path_fanout(inner, input);
                (f * 0.7, c)
            }
            Scalar::Path(base, path) => {
                let use_indexes = self.use_indexes;
                // The provenance of the column an Υ over `input` with
                // this subscript would bind.
                if let Some(desc) = crate::schema::scalar_descriptor(value, input) {
                    // The descriptor path equals the subscript's own path
                    // exactly when the base resolved to the document node
                    // (composition through a per-tuple context column
                    // prepends that column's steps).
                    let doc_rooted = matches!(base.as_ref(), Scalar::Doc(_))
                        || desc.path().steps.len() == path.steps.len();
                    if let Some(stats) = self.stats_for(desc.uri()) {
                        if let Some(name) = final_name(desc.path()) {
                            let count = stats.elements(name).max(1) as f64;
                            if doc_rooted {
                                // The whole document-rooted path is
                                // evaluated per tuple.
                                let scan = if use_indexes {
                                    // Index lookup: pay the result, not
                                    // the traversal.
                                    1.0 + count
                                } else if desc.path().has_descendant() {
                                    stats.total_nodes as f64
                                } else {
                                    count
                                };
                                return (count, scan);
                            }
                            // Per-tuple relative step: the fan-out under
                            // one context node, not the document total.
                            if let Some([.., parent, child]) =
                                desc.path().element_trail().as_deref()
                            {
                                if !path.has_descendant() {
                                    let fanout = stats.avg_fanout(parent, child);
                                    return (fanout, 1.0 + fanout);
                                }
                            }
                            return (count, count);
                        }
                    }
                }
                (self.cal.fanout_prior, path_step_cost(path))
            }
            _ => (self.cal.fanout_prior, 1.0),
        }
    }
}

impl<'a> CostModel<'a> {
    /// Fan-out and per-tuple cost of a *compiled* Υ subscript. The
    /// physical walk has no logical input expression to trace provenance
    /// through [`crate::schema::value_descriptor`]; instead it carries
    /// `docs`, the attributes the plan's χ nodes bound to document
    /// nodes, so document-rooted paths (direct or through such a
    /// binding) are stats-priced and everything else gets the neutral
    /// default.
    fn phys_path_fanout(&mut self, value: &Scalar, docs: &HashMap<nal::Sym, String>) -> (f64, f64) {
        match value {
            Scalar::DistinctItems(inner) => {
                let (f, c) = self.phys_path_fanout(inner, docs);
                (f * 0.7, c)
            }
            Scalar::Path(base, path) => {
                let uri = match base.as_ref() {
                    Scalar::Doc(u) => Some(u.clone()),
                    Scalar::Attr(a) => docs.get(a).cloned(),
                    _ => None,
                };
                if let Some(uri) = uri {
                    let use_indexes = self.use_indexes;
                    if let (Some(name), Some(stats)) = (final_name(path), self.stats_for(&uri)) {
                        let count = stats.elements(name).max(1) as f64;
                        let scan = if use_indexes {
                            1.0 + count
                        } else if path.has_descendant() {
                            stats.total_nodes as f64
                        } else {
                            count
                        };
                        return (count, scan);
                    }
                }
                (self.cal.fanout_prior, path_step_cost(path))
            }
            _ => (self.cal.fanout_prior, 1.0),
        }
    }

    /// Estimate one physical node (and, recursively, its subtree),
    /// recording every node's **inclusive** predicted cost in `out`
    /// keyed by plan-node identity — the same key a traced run's
    /// [`nal::obs::ExecTrace`] uses, so EXPLAIN ANALYZE can pair
    /// `(predicted, measured)` per operator.
    fn plan_est(
        &mut self,
        plan: &engine::PhysPlan,
        out: &mut HashMap<usize, f64>,
        docs: &mut HashMap<nal::Sym, String>,
    ) -> Estimate {
        use engine::PhysPlan as P;
        let est = match plan {
            P::Singleton => Estimate {
                rows: 1.0,
                cost: 1.0,
            },
            P::Literal(rows) => Estimate {
                rows: rows.len() as f64,
                cost: rows.len() as f64,
            },
            P::AttrRel(_) => Estimate {
                rows: 8.0,
                cost: 8.0,
            },
            P::Select { input, pred, .. } => {
                let i = self.plan_est(input, out, docs);
                let scalar = self.scalar_cost(pred);
                Estimate {
                    rows: (i.rows * SELECTIVITY).max(1.0),
                    cost: i.cost + i.rows * (1.0 + scalar),
                }
            }
            P::Project { input, op } => {
                let i = self.plan_est(input, out, docs);
                let rows = match op {
                    ProjOp::DistinctCols(_) | ProjOp::DistinctRename(_) => (i.rows * 0.5).max(1.0),
                    _ => i.rows,
                };
                Estimate {
                    rows,
                    cost: i.cost + i.rows,
                }
            }
            P::Map {
                input, attr, value, ..
            } => {
                let i = self.plan_est(input, out, docs);
                let scalar = self.scalar_cost(value);
                // Remember document bindings: a later Υ subscript rooted
                // at this attribute is a document-rooted path.
                if let Scalar::Doc(uri) = value {
                    docs.insert(*attr, uri.clone());
                }
                Estimate {
                    rows: i.rows,
                    cost: i.cost + i.rows * (1.0 + scalar),
                }
            }
            P::Cross { left, right, .. } => {
                let l = self.plan_est(left, out, docs);
                let r = self.plan_est(right, out, docs);
                Estimate {
                    rows: l.rows * r.rows,
                    cost: l.cost + r.cost + l.rows * r.rows,
                }
            }
            P::HashJoin {
                left, right, kind, ..
            } => {
                let l = self.plan_est(left, out, docs);
                let r = self.plan_est(right, out, docs);
                Estimate {
                    rows: join_rows(kind, &l, &r),
                    cost: l.cost + r.cost + l.rows + r.rows,
                }
            }
            P::LoopJoin {
                left,
                right,
                split,
                kind,
                ..
            } => {
                let l = self.plan_est(left, out, docs);
                let r = self.plan_est(right, out, docs);
                // What the θ-probe runs: the right-only part filters the
                // build once; a probe tuple then examines nothing (no
                // pair part: semi/anti joins are decided by the kept
                // rows' existence), a key window (a range conjunct
                // seeks the ordered keys), or every kept row. Joins
                // that emit their matches also pay for those.
                let kept = match split.right_only {
                    Some(_) => (r.rows * SELECTIVITY).max(1.0),
                    None => r.rows,
                };
                let emits = matches!(
                    kind,
                    engine::JoinKind::Inner | engine::JoinKind::Outer { .. }
                );
                let seek = (kept + 2.0).log2();
                let (build, probe) = match (&split.pair, &split.range) {
                    (None, _) => (r.rows, if emits { kept } else { 1.0 }),
                    (Some(_), Some(_)) => (
                        r.rows + kept * seek,
                        1.0 + seek + if emits { kept * SELECTIVITY } else { 0.0 },
                    ),
                    (Some(_), None) => (r.rows, kept),
                };
                Estimate {
                    rows: join_rows(kind, &l, &r),
                    cost: l.cost + r.cost + build + l.rows * probe,
                }
            }
            P::HashGroupUnary { input, .. } | P::ThetaGroupUnary { input, .. } => {
                let i = self.plan_est(input, out, docs);
                Estimate {
                    rows: (i.rows * 0.5).max(1.0),
                    cost: i.cost + 2.0 * i.rows,
                }
            }
            P::HashGroupBinary { left, right, .. } | P::ThetaGroupBinary { left, right, .. } => {
                let l = self.plan_est(left, out, docs);
                let r = self.plan_est(right, out, docs);
                Estimate {
                    rows: l.rows,
                    cost: l.cost + r.cost + l.rows + r.rows,
                }
            }
            P::Unnest { input, .. } => {
                let i = self.plan_est(input, out, docs);
                Estimate {
                    rows: i.rows * 2.0,
                    cost: i.cost + i.rows * 2.0,
                }
            }
            P::UnnestMap { input, value, .. } => {
                let i = self.plan_est(input, out, docs);
                let (fanout, step_cost) = self.phys_path_fanout(value, docs);
                Estimate {
                    rows: (i.rows * fanout).max(1.0),
                    cost: i.cost + i.rows * (1.0 + step_cost),
                }
            }
            P::XiSimple { input, .. } => {
                let i = self.plan_est(input, out, docs);
                Estimate {
                    rows: i.rows,
                    cost: i.cost + i.rows,
                }
            }
            P::XiGroup { input, .. } => {
                let i = self.plan_est(input, out, docs);
                Estimate {
                    rows: (i.rows * 0.5).max(1.0),
                    cost: i.cost + 2.0 * i.rows,
                }
            }
            P::IndexScan {
                input,
                uri,
                pattern,
                distinct,
                ..
            } => {
                let i = self.plan_est(input, out, docs);
                let uri = uri.clone();
                let count = match (pattern_final_name(pattern), self.stats_for(&uri)) {
                    (Some(name), Some(stats)) => stats.elements(name).max(1) as f64,
                    // Untracked document: the neutral path default.
                    _ => self.cal.fanout_prior,
                };
                let fanout = if *distinct { count * 0.7 } else { count };
                // Index lookup: pay the result, not the traversal.
                Estimate {
                    rows: (i.rows * fanout).max(1.0),
                    cost: i.cost + i.rows * (1.0 + count),
                }
            }
            P::IndexJoin { left, recipe } => {
                let l = self.plan_est(left, out, docs);
                // The recipe is the engine's own trace of the access
                // path, so pricing never disagrees with execution; a
                // stats-less document degrades to a unit probe.
                let probe = self.recipe_probe_cost(recipe).unwrap_or(1.0);
                Estimate {
                    rows: (l.rows * SELECTIVITY).max(1.0),
                    cost: l.cost + l.rows * probe,
                }
            }
        };
        out.insert(plan as *const engine::PhysPlan as usize, est.cost);
        est
    }
}

/// Output-row estimate of a join by consumption kind, mirroring the
/// logical model's `Join`/`SemiJoin`/`AntiJoin`/`OuterJoin` cases.
fn join_rows(kind: &engine::JoinKind, l: &Estimate, r: &Estimate) -> f64 {
    match kind {
        engine::JoinKind::Inner => (l.rows * r.rows * 0.1).max(1.0),
        engine::JoinKind::Semi | engine::JoinKind::Anti => (l.rows * SELECTIVITY).max(1.0),
        engine::JoinKind::Outer { .. } => l.rows.max(1.0),
    }
}

/// The tag name an index pattern's selected *element* carries (skipping
/// a terminal attribute step) — the statistics key for its cardinality.
fn pattern_final_name(pattern: &xmldb::PathPattern) -> Option<&str> {
    pattern.steps.iter().rev().find_map(|s| match s {
        xmldb::PatternStep::Child(n) | xmldb::PatternStep::Descendant(n) => n.as_deref(),
        xmldb::PatternStep::Attribute(_) => None,
    })
}

/// Per-node predicted cost of every operator in a compiled physical
/// plan, keyed by plan-node identity (`&node as *const _ as usize` —
/// the key [`nal::obs::ExecTrace`] and
/// [`engine::ExplainReport::annotate_costs`] use). Costs are
/// **inclusive** (a node's cost covers its whole subtree), matching the
/// measured wall times of a traced run, so `(predicted, measured)` pairs
/// line up per operator. `use_indexes` must match how the plan was
/// compiled ([`engine::compile`] vs [`engine::compile_indexed`]).
pub fn plan_cost_map(
    plan: &engine::PhysPlan,
    catalog: &Catalog,
    use_indexes: bool,
) -> HashMap<usize, f64> {
    let mut model = CostModel::with_indexes(catalog, use_indexes);
    let mut out = HashMap::new();
    model.plan_est(plan, &mut out, &mut HashMap::new());
    out
}

fn final_name(path: &Path) -> Option<&str> {
    path.steps
        .iter()
        .rev()
        .find(|s| s.axis != Axis::Attribute)
        .and_then(|s| s.test.literal())
}

fn path_step_cost(path: &Path) -> f64 {
    if path.has_descendant() {
        100.0
    } else {
        path.steps.len() as f64
    }
}

/// Rank plan alternatives by estimated cost, cheapest first.
pub fn rank_plans(plans: Vec<PlanChoice>, catalog: &Catalog) -> Vec<(PlanChoice, Estimate)> {
    rank_plans_with(plans, catalog, false)
}

/// [`rank_plans`] with an explicit index mode, matching the executor
/// the plan will run on (`engine::compile` vs `engine::compile_indexed`).
pub fn rank_plans_with(
    plans: Vec<PlanChoice>,
    catalog: &Catalog,
    use_indexes: bool,
) -> Vec<(PlanChoice, Estimate)> {
    rank_plans_calibrated(plans, catalog, use_indexes, Calibration::default())
}

/// [`rank_plans_with`] under explicitly fitted [`Calibration`]
/// constants — the entry point the bench harness's `calibration`
/// experiment uses to check that a fitted model's ranking
/// rank-correlates with measured plan times.
pub fn rank_plans_calibrated(
    plans: Vec<PlanChoice>,
    catalog: &Catalog,
    use_indexes: bool,
    cal: Calibration,
) -> Vec<(PlanChoice, Estimate)> {
    let mut model = CostModel::with_calibration(catalog, use_indexes, cal);
    let mut ranked: Vec<(PlanChoice, Estimate)> = plans
        .into_iter()
        .map(|p| {
            let est = model.estimate(&p.expr);
            (p, est)
        })
        .collect();
    ranked.sort_by(|a, b| a.1.cost.total_cmp(&b.1.cost));
    ranked
}

/// Cost-based variant of [`crate::unnest_best`]: enumerate the plan
/// alternatives and pick the cheapest by the model.
pub fn unnest_cheapest(expr: &Expr, catalog: &Catalog) -> (Expr, Estimate) {
    unnest_cheapest_with(expr, catalog, false)
}

/// [`unnest_cheapest`] with an explicit index mode.
pub fn unnest_cheapest_with(expr: &Expr, catalog: &Catalog, use_indexes: bool) -> (Expr, Estimate) {
    let plans = crate::enumerate_plans(expr, catalog);
    let ranked = rank_plans_with(plans, catalog, use_indexes);
    let (p, est) = ranked.into_iter().next().expect("at least the nested plan");
    (p.expr, est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::{CmpOp, GroupFn};
    use xmldb::gen::{gen_bib, BibConfig};
    use xpath::parse_path;

    fn catalog(books: usize) -> Catalog {
        let mut cat = Catalog::new();
        cat.register(gen_bib(&BibConfig {
            books,
            authors_per_book: 3,
            ..Default::default()
        }));
        cat
    }

    fn p(s: &str) -> xpath::Path {
        parse_path(s).unwrap()
    }

    /// `index_probe_cost` of `left ⋉_pred right`.
    fn probe_cost(m: &mut CostModel, left: &Expr, right: &Expr, pred: &Scalar) -> Option<f64> {
        m.index_probe_cost(&left.clone().semijoin(right.clone(), pred.clone()))
    }

    #[test]
    fn estimates_track_document_updates() {
        // The model reads statistics through the catalog's epoch-stamped
        // memo, so a model constructed *after* an update prices the new
        // cardinalities — stale `DocStats` never leak into plan choice.
        let mut cat = catalog(50);
        let scan = doc_scan("d", "bib.xml").unnest_map("b", Scalar::attr("d").path(p("//book")));
        let before = CostModel::new(&cat).estimate(&scan);
        assert!((before.rows - 50.0).abs() < 1.0);
        let id = cat.by_uri("bib.xml").unwrap();
        let doc = cat.doc(id).as_ref().clone();
        let root = doc.root_element().unwrap();
        let victim = doc.children(root).next().unwrap();
        cat.delete_subtree(id, victim).unwrap();
        let after = CostModel::new(&cat).estimate(&scan);
        assert!(
            (after.rows - 49.0).abs() < 1.0,
            "post-update estimate must see 49 books, got {}",
            after.rows
        );
        assert!(after.cost < before.cost);
    }

    #[test]
    fn scan_cardinality_uses_statistics() {
        let cat = catalog(200);
        let scan = doc_scan("d", "bib.xml").unnest_map("b", Scalar::attr("d").path(p("//book")));
        let mut m = CostModel::new(&cat);
        let est = m.estimate(&scan);
        assert!(
            (est.rows - 200.0).abs() < 1.0,
            "expected ≈200 books, estimated {}",
            est.rows
        );
        let authors = scan.unnest_map("a", Scalar::attr("b").path(p("/author")));
        let est = m.estimate(&authors);
        // ~200 books × ~600 authors/200 ... the child-step default fanout is
        // stats-driven only for doc-rooted steps; accept a broad range.
        assert!(
            est.rows >= 200.0,
            "author scan should not shrink: {}",
            est.rows
        );
    }

    #[test]
    fn nested_plans_cost_more_than_unnested() {
        let cat = catalog(100);
        let e1 = doc_scan("d1", "bib.xml")
            .unnest_map("a1", Scalar::attr("d1").path(p("//author")).distinct())
            .project(&["a1"]);
        let e2 = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .map("t2", Scalar::attr("b2").path(p("/title")))
            .map("a2", Scalar::attr("b2").path(p("/author")).lift("a2'"));
        let nested = e1.map(
            "t1",
            Scalar::Agg {
                f: GroupFn::project_items("t2"),
                input: Box::new(e2.select(Scalar::is_in(Scalar::attr("a1"), Scalar::attr("a2")))),
            },
        );
        let plans = crate::enumerate_plans(&nested, &cat);
        assert!(plans.len() >= 2);
        let ranked = rank_plans(plans, &cat);
        assert_ne!(
            ranked[0].0.label,
            "nested",
            "the nested plan must never be the cheapest: {:?}",
            ranked
                .iter()
                .map(|(p, e)| (p.label.clone(), e.cost))
                .collect::<Vec<_>>()
        );
        // And the gap should be large (orders of magnitude).
        let nested_cost = ranked
            .iter()
            .find(|(p, _)| p.label == "nested")
            .map(|(_, e)| e.cost)
            .expect("nested plan present");
        assert!(
            nested_cost > 10.0 * ranked[0].1.cost,
            "nested {} vs best {}",
            nested_cost,
            ranked[0].1.cost
        );
    }

    #[test]
    fn unnest_cheapest_agrees_with_label_preference_on_paper_queries() {
        let cat = catalog(80);
        let e1 = doc_scan("d1", "bib.xml")
            .unnest_map("t1", Scalar::attr("d1").path(p("//book/title")))
            .project(&["t1"]);
        let e3 =
            doc_scan("d3", "bib.xml").unnest_map("t3", Scalar::attr("d3").path(p("//book/title")));
        let q = e1.select(Scalar::Exists {
            var: nal::Sym::new("t2"),
            range: Box::new(
                e3.select(Scalar::attr_cmp(CmpOp::Eq, "t1", "t3"))
                    .project(&["t3"]),
            ),
            pred: Box::new(Scalar::Const(nal::Value::Bool(true))),
        });
        let (by_cost, est) = unnest_cheapest(&q, &cat);
        // The winner must be a rewritten plan (the group-filter winner may
        // legitimately contain a bounded rel(g) aggregate, so we compare
        // against the original rather than checking for nested scalars).
        assert_ne!(by_cost, q, "cost model must not keep the nested plan");
        assert!(est.cost > 0.0);
        let mut model = CostModel::new(&cat);
        let nested_cost = model.estimate(&q).cost;
        assert!(
            est.cost * 10.0 < nested_cost,
            "winner {} vs nested {nested_cost}",
            est.cost
        );
    }

    #[test]
    fn index_mode_prices_quantifier_joins_below_scan_joins() {
        let cat = catalog(500);
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .project(&["t2"]);
        let semi = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        let scan_cost = CostModel::new(&cat).estimate(&semi).cost;
        let index_cost = CostModel::with_indexes(&cat, true).estimate(&semi).cost;
        assert!(
            index_cost < scan_cost,
            "index probe ({index_cost}) must undercut the build-side scan ({scan_cost})"
        );
        // And the gap grows with the build side: the probe cost is
        // logarithmic in the key count while the scan is linear in the
        // document.
        assert!(index_cost * 2.0 < scan_cost, "{index_cost} vs {scan_cost}");
    }

    #[test]
    fn index_mode_prices_inequality_quantifier_joins_below_loop_scans() {
        let cat = catalog(500);
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .project(&["t2"]);
        // `some $t2 satisfies $t1 < $t2` — a pure inequality quantifier
        // join, which the scan engine runs as a nested loop.
        let semi = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Lt, "t1", "t2"));
        let scan_cost = CostModel::new(&cat).estimate(&semi).cost;
        let index_cost = CostModel::with_indexes(&cat, true).estimate(&semi).cost;
        assert!(
            index_cost < scan_cost,
            "range probe ({index_cost}) must undercut the build-side scan ({scan_cost})"
        );
        // The range probe pays a selectivity-scaled posting scan on top
        // of the log₂ seek, so it must price above the point probe of
        // the equality join on the same column.
        let probe2 =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build2 = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .project(&["t2"]);
        let eq_semi = probe2.semijoin(build2, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        let eq_cost = CostModel::with_indexes(&cat, true).estimate(&eq_semi).cost;
        assert!(
            eq_cost <= index_cost,
            "point probe ({eq_cost}) must not price above the range probe ({index_cost})"
        );
        // A non-replay-safe residual conjunct makes the engine keep the
        // loop join (arithmetic can error on rows the narrower candidate
        // set would skip) — pricing must decline the probe discount too.
        let probe3 =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build3 = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .project(&["t2"]);
        let unsafe_pred = Scalar::attr_cmp(CmpOp::Lt, "t1", "t2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::Arith(
                nal::ArithOp::Mul,
                Box::new(Scalar::attr("t2")),
                Box::new(Scalar::int(2)),
            ),
            Scalar::int(0),
        ));
        let mut m = CostModel::with_indexes(&cat, true);
        assert_eq!(
            probe_cost(&mut m, &probe3, &build3, &unsafe_pred),
            None,
            "engine keeps the loop join here; pricing must not assume a probe"
        );
    }

    #[test]
    fn index_pricing_mirrors_engine_convertibility() {
        let cat = catalog(200);
        let probe = doc_scan("d1", "bib.xml")
            .unnest_map("t1", Scalar::attr("d1").path(p("//book/title")))
            .unnest_map("y1", Scalar::attr("d1").path(p("//book/@year")));
        let build =
            doc_scan("d2", "bib.xml").unnest_map("t2", Scalar::attr("d2").path(p("//book/title")));
        let single_pred = Scalar::attr_cmp(CmpOp::Eq, "t1", "t2");
        let mut m = CostModel::with_indexes(&cat, true);
        // Single-key over a document path: priced as a probe.
        let single_cost = probe_cost(&mut m, &probe, &build, &single_pred);
        assert!(single_cost.is_some());
        // Multi-key predicates now convert to composite index joins —
        // the engine's tracer emits a recipe, so the model prices the
        // probe (slightly above the single-key seek: one comparison per
        // extra key component).
        let build2 = build
            .clone()
            .unnest_map("y2", Scalar::attr("d2").path(p("//book/@year")));
        let multi_pred =
            Scalar::attr_cmp(CmpOp::Eq, "t1", "t2").and(Scalar::attr_cmp(CmpOp::Eq, "y1", "y2"));
        let multi_cost = probe_cost(&mut m, &probe, &build2, &multi_pred);
        assert!(
            multi_cost.is_some(),
            "composite joins must be priced as probes now"
        );
        assert!(multi_cost > single_cost, "wider keys cost a little more");
        // A filtered build side *is* convertible (the engine replays the
        // σ per candidate) and keeps the discount…
        let filtered = build.clone().select(Scalar::Call(
            nal::Func::Contains,
            vec![Scalar::attr("t2"), Scalar::string("a")],
        ));
        assert!(probe_cost(&mut m, &probe, &filtered, &single_pred).is_some());
        // …but a nested algebraic expression in the build is not
        // replayable and must decline.
        let nested = build.select(Scalar::Exists {
            var: nal::Sym::new("x"),
            range: Box::new(nal::expr::builder::singleton().map("y", Scalar::int(1))),
            pred: Box::new(Scalar::Const(nal::Value::Bool(true))),
        });
        assert_eq!(probe_cost(&mut m, &probe, &nested, &single_pred), None);
    }

    #[test]
    fn index_mode_keeps_quantifier_plans_ahead_of_nested() {
        let cat = catalog(120);
        let probe = doc_scan("d1", "bib.xml")
            .unnest_map("t1", Scalar::attr("d1").path(p("//book/title")))
            .project(&["t1"]);
        let range =
            doc_scan("d3", "bib.xml").unnest_map("t3", Scalar::attr("d3").path(p("//book/title")));
        let q = probe.select(Scalar::Exists {
            var: nal::Sym::new("t2"),
            range: Box::new(
                range
                    .select(Scalar::attr_cmp(CmpOp::Eq, "t1", "t3"))
                    .project(&["t3"]),
            ),
            pred: Box::new(Scalar::Const(nal::Value::Bool(true))),
        });
        let (indexed_best, est) = unnest_cheapest_with(&q, &cat, true);
        assert_ne!(indexed_best, q, "index mode must still unnest");
        let nested_cost = CostModel::with_indexes(&cat, true).estimate(&q).cost;
        assert!(
            est.cost * 10.0 < nested_cost,
            "winner {} vs nested {nested_cost}",
            est.cost
        );
        // Index-aware ranking agrees with scan-based ranking on the
        // winner here, but prices it strictly cheaper.
        let (_, scan_est) = unnest_cheapest(&q, &cat);
        assert!(
            est.cost < scan_est.cost,
            "indexed {} vs scan {}",
            est.cost,
            scan_est.cost
        );
    }

    #[test]
    fn relative_child_steps_use_avg_fanout() {
        let cat = catalog(100); // 3 authors per book
        let mut m = CostModel::new(&cat);
        let books = doc_scan("d", "bib.xml").unnest_map("b", Scalar::attr("d").path(p("//book")));
        let authors = books
            .clone()
            .unnest_map("a", Scalar::attr("b").path(p("/author")));
        let est_books = m.estimate(&books);
        let est_authors = m.estimate(&authors);
        let ratio = est_authors.rows / est_books.rows;
        assert!(
            (ratio - 3.0).abs() < 0.5,
            "per-book author fan-out should be ≈3, got {ratio}"
        );
        // A path under an absent parent prices as empty, not as NaN/inf
        // (the avg_fanout guard).
        let ghosts = books.unnest_map("g", Scalar::attr("b").path(p("/ghost")));
        let est = m.estimate(&ghosts);
        assert!(est.rows.is_finite() && est.cost.is_finite());
        assert!(est.rows >= 1.0);
    }

    #[test]
    fn plan_cost_map_prices_every_node_inclusively() {
        let cat = catalog(100);
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .project(&["t2"]);
        let semi = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        for use_indexes in [false, true] {
            let plan = if use_indexes {
                engine::compile_indexed(&semi, &cat)
            } else {
                engine::compile(&semi)
            };
            let costs = plan_cost_map(&plan, &cat, use_indexes);
            // Every node of the tree is priced, every price is positive
            // and finite, and inclusiveness makes the root the maximum.
            fn walk<'p>(n: &'p engine::PhysPlan, out: &mut Vec<&'p engine::PhysPlan>) {
                out.push(n);
                for c in n.children() {
                    walk(c, out);
                }
            }
            let mut nodes = Vec::new();
            walk(&plan, &mut nodes);
            let root_cost = costs[&(&plan as *const engine::PhysPlan as usize)];
            for n in &nodes {
                let c = costs
                    .get(&(*n as *const engine::PhysPlan as usize))
                    .unwrap_or_else(|| panic!("unpriced node {}", n.op_name()));
                assert!(c.is_finite() && *c > 0.0, "{}: {c}", n.op_name());
                assert!(*c <= root_cost, "{} above the root", n.op_name());
            }
            assert_eq!(costs.len(), nodes.len());
        }
        // Index mode prices the index-backed plan strictly cheaper.
        let scan_root = {
            let plan = engine::compile(&semi);
            plan_cost_map(&plan, &cat, false)[&(&plan as *const engine::PhysPlan as usize)]
        };
        let indexed_root = {
            let plan = engine::compile_indexed(&semi, &cat);
            plan_cost_map(&plan, &cat, true)[&(&plan as *const engine::PhysPlan as usize)]
        };
        assert!(
            indexed_root < scan_root,
            "indexed {indexed_root} vs scan {scan_root}"
        );
    }

    #[test]
    fn calibration_scales_the_guessed_terms_without_touching_statistics() {
        let cat = catalog(200);
        // The probe weight scales exactly the index-seek term: under a
        // doubled weight an index-priced quantifier join grows, while
        // the same join priced in scan mode (no probe) is unchanged.
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .project(&["t2"]);
        let semi = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        let heavy = Calibration {
            probe_weight: 2.0,
            ..Calibration::default()
        };
        let base = CostModel::with_indexes(&cat, true).estimate(&semi).cost;
        let scaled = CostModel::with_calibration(&cat, true, heavy)
            .estimate(&semi)
            .cost;
        assert!(
            scaled > base,
            "probe_weight must scale the seek: {scaled} vs {base}"
        );
        let scan_base = CostModel::new(&cat).estimate(&semi).cost;
        let scan_scaled = CostModel::with_calibration(&cat, false, heavy)
            .estimate(&semi)
            .cost;
        assert_eq!(scan_base, scan_scaled, "no probe term in scan mode");
        // The fan-out prior feeds only untraceable paths: a stats-priced
        // document scan ignores it, a provenance-free path doesn't.
        let traced = doc_scan("d", "bib.xml").unnest_map("b", Scalar::attr("d").path(p("//book")));
        let wide = Calibration {
            fanout_prior: 8.0,
            ..Calibration::default()
        };
        assert_eq!(
            CostModel::new(&cat).estimate(&traced).rows,
            CostModel::with_calibration(&cat, false, wide)
                .estimate(&traced)
                .rows,
            "stats-priced paths must not move with the prior"
        );
        let blind = nal::expr::builder::singleton()
            .map("x", Scalar::int(1))
            .unnest_map("y", Scalar::attr("x").path(p("/child")));
        let narrow = CostModel::new(&cat).estimate(&blind).rows;
        let wide_rows = CostModel::with_calibration(&cat, false, wide)
            .estimate(&blind)
            .rows;
        assert!(
            wide_rows > narrow,
            "untraceable fan-out must follow the prior: {wide_rows} vs {narrow}"
        );
    }

    #[test]
    fn group_filter_plans_are_priced_as_bounded() {
        // The AttrRel-based §5.4 plan must not be priced like a correlated
        // re-scan.
        let cat = catalog(100);
        let mut m = CostModel::new(&cat);
        let grouped = doc_scan("d", "bib.xml")
            .unnest_map("b", Scalar::attr("d").path(p("//book")))
            .group_unary("g", &["b"], CmpOp::Eq, GroupFn::id())
            .map(
                "c",
                Scalar::Agg {
                    f: GroupFn::count(),
                    input: Box::new(Expr::AttrRel(nal::Sym::new("g"))),
                },
            );
        let bounded = m.estimate(&grouped);
        let correlated = doc_scan("d", "bib.xml")
            .unnest_map("b", Scalar::attr("d").path(p("//book")))
            .map(
                "c",
                Scalar::Agg {
                    f: GroupFn::count(),
                    input: Box::new(
                        doc_scan("d2", "bib.xml")
                            .unnest_map("b2", Scalar::attr("d2").path(p("//book"))),
                    ),
                },
            );
        let rescanning = m.estimate(&correlated);
        assert!(
            bounded.cost < rescanning.cost,
            "bounded {} vs re-scanning {}",
            bounded.cost,
            rescanning.cost
        );
    }
}
