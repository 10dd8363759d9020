//! The reference evaluator — an executable form of the §2 operator
//! definitions.
//!
//! Every operator is implemented exactly as its recursive definition
//! states, with nested algebraic expressions in subscripts re-evaluated
//! per tuple (the "nested loop evaluation strategy" of §2 whose removal is
//! the goal of the paper). This evaluator serves three roles:
//!
//! 1. **Specification**: the ground truth that the physical engine (crate
//!    `engine`) is differential-tested against,
//! 2. **Proof harness**: the property tests of crate `unnest` check
//!    Eqv. 1–9 by evaluating both sides here (Appendix A, executable), and
//! 3. **Ground truth for nested blocks**: a quantifier range or aggregate
//!    input here is evaluated completely, under a copied environment,
//!    before it is tested. The engine runs the same blocks on its own
//!    compiled plans (`engine::nested`) and is held to the same rows,
//!    errors and Ξ bytes; the §5 baseline is that engine run, not this
//!    evaluator.
//!
//! Subscripts share one scalar semantics with the engine
//! ([`scalar::eval_scalar`] over a [`Scope`]); what stays the reference's
//! own are the operator loops below, which build `env ◦ t` for every
//! tuple exactly as the definitions read.

pub mod scalar;
mod scope;
pub mod xi;

pub use scalar::{eval_scalar, Nested, Reference};
pub use scope::Scope;

use std::fmt;

use xmldb::Catalog;

use crate::expr::{attrs, Expr, ProjOp};
use crate::scalar::Scalar;
use crate::sequence::Seq;
use crate::sym::Sym;
use crate::tuple::Tuple;
use crate::value::{cmp_atomic, CmpOp, Value};

/// Evaluation error (unbound attribute, type mismatch, unknown document…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Human-readable description.
    pub message: String,
}

impl EvalError {
    /// An error with the given message.
    pub fn new(message: impl Into<String>) -> EvalError {
        EvalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

impl From<String> for EvalError {
    fn from(message: String) -> EvalError {
        EvalError { message }
    }
}

/// Result alias for evaluation.
pub type EvalResult<T> = Result<T, EvalError>;

/// Display names of every metered physical operator, sorted: an
/// operator's position here is its [`OpId`], its slot in
/// [`OpTuples`].
const OP_NAMES: [&str; 30] = [
    "AttrRel",
    "Cross",
    "HashAntiJoin",
    "HashGroup",
    "HashJoin",
    "HashNestJoin",
    "HashOuterJoin",
    "HashSemiJoin",
    "IndexAntiJoin",
    "IndexCompositeAntiJoin",
    "IndexCompositeSemiJoin",
    "IndexRangeAntiJoin",
    "IndexRangeSemiJoin",
    "IndexScan",
    "IndexSemiJoin",
    "Literal",
    "LoopAntiJoin",
    "LoopJoin",
    "LoopOuterJoin",
    "LoopSemiJoin",
    "Map",
    "Project",
    "Select",
    "Singleton",
    "ThetaGroup",
    "ThetaNestJoin",
    "Unnest",
    "UnnestMap",
    "Xi",
    "XiGroup",
];

/// A physical operator's counter slot. Resolved from the display name
/// once, when a cursor is built, so that counting a tuple is an array
/// increment and never a name comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpId(u8);

impl OpId {
    /// The slot of the operator displayed as `name`, if it is metered.
    pub fn of(name: &str) -> Option<OpId> {
        OP_NAMES.binary_search(&name).ok().map(|i| OpId(i as u8))
    }

    /// The operator's display name.
    pub fn name(self) -> &'static str {
        OP_NAMES[self.0 as usize]
    }
}

/// Tuples produced per physical operator: one fixed slot per operator
/// name. Reads like the name-keyed map it replaces — iteration yields
/// the operators that produced something, in name order.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct OpTuples([u64; OP_NAMES.len()]);

impl OpTuples {
    /// Record one tuple produced by `op`.
    #[inline]
    pub fn bump(&mut self, op: OpId) {
        self.0[op.0 as usize] += 1;
    }

    /// `(operator name, tuples produced)` for every operator that
    /// produced at least one tuple, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        OP_NAMES
            .iter()
            .zip(&self.0)
            .filter(|(_, n)| **n > 0)
            .map(|(name, n)| (*name, *n))
    }

    /// Forget every count.
    pub fn clear(&mut self) {
        self.0 = Default::default();
    }
}

impl fmt::Debug for OpTuples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Counters exposing the paper's cost arguments (…"the nested plan needs
/// to scan the document |author|+1 times", §5.1).
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    /// Full-document descendant traversals (`//`) from a document root.
    pub doc_scans: u64,
    /// Nodes visited during path evaluation.
    pub nodes_visited: u64,
    /// Tuples produced across all operators.
    pub tuples_produced: u64,
    /// Evaluations of nested algebra expressions inside scalars (one per
    /// outer tuple in a nested plan; zero in a fully unnested plan).
    pub nested_evals: u64,
    /// Outer tuples whose correlated σ over a nested block's shared
    /// subtree was answered from the subtree's index instead of a replay
    /// of every row (the engine's indexed spools; the reference
    /// evaluator leaves it 0).
    pub spool_probes: u64,
    /// Tuples produced per physical operator. Populated by the engine's
    /// metered cursors; the reference evaluator leaves it empty.
    pub op_tuples: OpTuples,
    /// Right-side candidate tuples examined by the engine's join probes
    /// (the reference evaluator leaves it 0). Short-circuiting semi/anti
    /// joins stop probing at the deciding match, so this stays below the
    /// nested-loop bound |left| × |right| — the observable form of the
    /// §5.3–§5.5 argument.
    pub probe_tuples: u64,
    /// Access-path index probes: one per path-index resolution
    /// (`IndexScan`) and one per value-index key probe (`IndexSemiJoin` /
    /// `IndexAntiJoin` left tuple).
    pub index_lookups: u64,
    /// Index probes that found at least one node. `index_lookups -
    /// index_hits` is the number of probes answered without touching a
    /// single document node — work a scan-based plan cannot skip.
    pub index_hits: u64,
}

impl Metrics {
    /// Tuples produced by the operator displayed as `op` (0 if it never
    /// ran, or is no operator).
    pub fn op_count(&self, op: &str) -> u64 {
        OpId::of(op).map_or(0, |id| self.op_tuples.0[id.0 as usize])
    }

    /// Add another run's counters to these: the sum over several runs
    /// (a round of queries, say).
    pub fn merge(&mut self, other: &Metrics) {
        self.doc_scans += other.doc_scans;
        self.nodes_visited += other.nodes_visited;
        self.tuples_produced += other.tuples_produced;
        self.nested_evals += other.nested_evals;
        self.spool_probes += other.spool_probes;
        self.probe_tuples += other.probe_tuples;
        self.index_lookups += other.index_lookups;
        self.index_hits += other.index_hits;
        for (mine, theirs) in self.op_tuples.0.iter_mut().zip(&other.op_tuples.0) {
            *mine += theirs;
        }
    }
}

/// Evaluation context: the document catalog, the Ξ output stream, and
/// metrics.
pub struct EvalCtx<'a> {
    /// The document catalog queries resolve URIs against.
    pub catalog: &'a Catalog,
    /// Result constructed by Ξ operators (§2: "the result is constructed
    /// as a string on some output stream").
    pub out: String,
    /// Collected counters.
    pub metrics: Metrics,
    /// Optional per-operator execution trace. `None` (the default) keeps
    /// the engine's hot paths untimed; a traced run
    /// ([`EvalCtx::enable_trace`]) makes the engine's cursors record
    /// per-node wall time, rows, and probe deltas here. Kept *outside*
    /// [`Metrics`] so comparing two runs' counters never compares timing.
    pub trace: Option<crate::obs::ExecTrace>,
    /// Node buffers of path evaluation, reused from tuple to tuple.
    pub paths: xpath::PathBuffers,
}

impl<'a> EvalCtx<'a> {
    /// A fresh context over `catalog` (empty output, zero metrics).
    pub fn new(catalog: &'a Catalog) -> EvalCtx<'a> {
        EvalCtx {
            catalog,
            out: String::new(),
            metrics: Metrics::default(),
            trace: None,
            paths: xpath::PathBuffers::default(),
        }
    }

    /// Turn on per-operator tracing for this context.
    pub fn enable_trace(&mut self) {
        self.trace = Some(crate::obs::ExecTrace::new());
    }

    /// Take the recorded execution trace (if tracing was enabled).
    pub fn take_trace(&mut self) -> Option<crate::obs::ExecTrace> {
        self.trace.take()
    }

    /// Take the Ξ output accumulated so far.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.out)
    }
}

/// Evaluate a whole query (empty environment).
pub fn eval_query(e: &Expr, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
    eval(e, &Tuple::empty(), ctx)
}

/// A subscript over the reference's environment tuple.
fn value_in(s: &Scalar, env: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<Value> {
    eval_scalar(s, &Scope::of(env), &Reference, ctx)
}

/// [`value_in`] as a predicate.
fn truthy_in(s: &Scalar, env: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<bool> {
    scalar::truthy(s, &Scope::of(env), &Reference, ctx)
}

/// Evaluate `e` under the environment `env` (outer variable bindings —
/// non-empty exactly when evaluating a nested expression).
pub fn eval(e: &Expr, env: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
    let result = match e {
        // □ — the singleton sequence of the empty tuple.
        Expr::Singleton => vec![Tuple::empty()],

        Expr::Literal(rows) => rows.clone(),

        Expr::AttrRel(a) => match env.get(*a) {
            Some(Value::Tuples(ts)) => ts.to_vec(),
            Some(Value::Null) | None => {
                return Err(EvalError::new(format!(
                    "rel({a}): attribute not bound to a nested relation (env {env})"
                )))
            }
            Some(other) => {
                return Err(EvalError::new(format!(
                    "rel({a}): attribute is not tuple-valued: {other}"
                )))
            }
        },

        Expr::Select { input, pred } => {
            let seq = eval(input, env, ctx)?;
            let mut out = Vec::with_capacity(seq.len());
            for t in seq {
                if truthy_in(pred, &env.concat(&t), ctx)? {
                    out.push(t);
                }
            }
            out
        }

        Expr::Project { input, op } => {
            let seq = eval(input, env, ctx)?;
            project_seq(&seq, op, ctx)
        }

        Expr::Map { input, attr, value } => {
            let seq = eval(input, env, ctx)?;
            let mut out = Vec::with_capacity(seq.len());
            for t in seq {
                let v = value_in(value, &env.concat(&t), ctx)?;
                out.push(t.extend(*attr, v));
            }
            out
        }

        Expr::Cross { left, right } => {
            let l = eval(left, env, ctx)?;
            let r = eval(right, env, ctx)?;
            let mut out = Vec::with_capacity(l.len() * r.len());
            for lt in &l {
                for rt in &r {
                    out.push(lt.concat(rt));
                }
            }
            out
        }

        // e1 ⋈_p e2 = σ_p(e1 × e2)
        Expr::Join { left, right, pred } => {
            let l = eval(left, env, ctx)?;
            let r = eval(right, env, ctx)?;
            let mut out = Vec::new();
            for lt in &l {
                for rt in &r {
                    let joined = lt.concat(rt);
                    if truthy_in(pred, &env.concat(&joined), ctx)? {
                        out.push(joined);
                    }
                }
            }
            out
        }

        Expr::SemiJoin { left, right, pred } => {
            let l = eval(left, env, ctx)?;
            let r = eval(right, env, ctx)?;
            let mut out = Vec::new();
            for lt in l {
                if exists_match(&lt, &r, pred, env, ctx)? {
                    out.push(lt);
                }
            }
            out
        }

        Expr::AntiJoin { left, right, pred } => {
            let l = eval(left, env, ctx)?;
            let r = eval(right, env, ctx)?;
            let mut out = Vec::new();
            for lt in l {
                if !exists_match(&lt, &r, pred, env, ctx)? {
                    out.push(lt);
                }
            }
            out
        }

        Expr::OuterJoin {
            left,
            right,
            pred,
            g,
            default,
        } => {
            let l = eval(left, env, ctx)?;
            let r = eval(right, env, ctx)?;
            // ⊥ pads all right attributes except g.
            let pad_attrs: Vec<Sym> = attrs::attrs(right).into_iter().filter(|a| a != g).collect();
            let mut out = Vec::new();
            for lt in &l {
                let mut matched = false;
                for rt in &r {
                    let joined = lt.concat(rt);
                    if truthy_in(pred, &env.concat(&joined), ctx)? {
                        out.push(joined);
                        matched = true;
                    }
                }
                if !matched {
                    out.push(
                        lt.concat(&Tuple::bottom(&pad_attrs))
                            .extend(*g, default.clone()),
                    );
                }
            }
            out
        }

        // Γ_{g;θA;f}(e) = Π_{A:A'}(Π^D_{A':A}(Π_A(e)) Γ_{g;A'θA;f} e)
        Expr::GroupUnary {
            input,
            g,
            by,
            theta,
            f,
        } => {
            let seq = eval(input, env, ctx)?;
            let keys = distinct_by_key(&seq, by, ctx.catalog);
            let mut out = Vec::with_capacity(keys.len());
            for key in keys {
                let mut group = Vec::new();
                for t in &seq {
                    if tuple_key_matches(&key, by, t, by, *theta, ctx.catalog) {
                        group.push(t.clone());
                    }
                }
                let v = apply_groupfn(f, &group, env, ctx)?;
                out.push(key.extend(*g, v));
            }
            out
        }

        // e1 Γ_{g;A1θA2;f} e2 — the left operand determines the groups.
        Expr::GroupBinary {
            left,
            right,
            g,
            left_on,
            theta,
            right_on,
            f,
        } => {
            let l = eval(left, env, ctx)?;
            let r = eval(right, env, ctx)?;
            let mut out = Vec::with_capacity(l.len());
            for lt in l {
                let mut group = Vec::new();
                for rt in &r {
                    if tuple_key_matches(&lt, left_on, rt, right_on, *theta, ctx.catalog) {
                        group.push(rt.clone());
                    }
                }
                let v = apply_groupfn(f, &group, env, ctx)?;
                out.push(lt.extend(*g, v));
            }
            out
        }

        Expr::Unnest {
            input,
            attr,
            distinct,
            preserve_empty,
        } => {
            let seq = eval(input, env, ctx)?;
            let inner_attrs = attrs::nested_attrs(input, *attr).unwrap_or_default();
            let mut out = Vec::new();
            for t in seq {
                let nested = match t.get(*attr) {
                    Some(Value::Tuples(ts)) => ts.to_vec(),
                    Some(Value::Null) | None => Vec::new(),
                    Some(other) => {
                        return Err(EvalError::new(format!(
                            "μ[{attr}]: attribute is not tuple-valued: {other}"
                        )))
                    }
                };
                let nested = if *distinct {
                    dedup_by_value(&nested, ctx.catalog)
                } else {
                    nested
                };
                let rest = t.without(&[*attr]);
                if nested.is_empty() {
                    if *preserve_empty {
                        out.push(rest.concat(&Tuple::bottom(&inner_attrs)));
                    }
                } else {
                    for inner in nested {
                        out.push(rest.concat(&inner));
                    }
                }
            }
            out
        }

        // Υ_{a:e2}(e1) = μ_g(χ_{g:e2[a]}(e1))
        Expr::UnnestMap { input, attr, value } => {
            let seq = eval(input, env, ctx)?;
            let mut out = Vec::new();
            for t in seq {
                let v = value_in(value, &env.concat(&t), ctx)?;
                for item in v.as_items() {
                    out.push(t.extend(*attr, item.clone()));
                }
            }
            out
        }

        Expr::XiSimple { input, cmds } => {
            let seq = eval(input, env, ctx)?;
            for t in &seq {
                xi::run_cmds(cmds, &Scope::of(&env.concat(t)), ctx)?;
            }
            seq
        }

        // s1 Ξ^{s3}_{A;s2}(e) = Ξ_{(s1;Ξ_{s2};s3)}(Γ_{g;=A;id}(e))
        Expr::XiGroup {
            input,
            by,
            head,
            body,
            tail,
        } => {
            let seq = eval(input, env, ctx)?;
            let keys = distinct_by_key(&seq, by, ctx.catalog);
            let mut out = Vec::with_capacity(keys.len());
            for key in keys {
                let group: Vec<&Tuple> = seq
                    .iter()
                    .filter(|t| tuple_key_matches(&key, by, t, by, CmpOp::Eq, ctx.catalog))
                    .collect();
                let key_env = env.concat(&key);
                xi::run_cmds(head, &Scope::of(&key_env), ctx)?;
                for t in &group {
                    xi::run_cmds(body, &Scope::of(&env.concat(t)), ctx)?;
                }
                xi::run_cmds(tail, &Scope::of(&key_env), ctx)?;
                out.push(key);
            }
            out
        }
    };
    ctx.metrics.tuples_produced += result.len() as u64;
    Ok(result)
}

/// Apply a projection operator to a sequence.
fn project_seq(seq: &[Tuple], op: &ProjOp, ctx: &EvalCtx<'_>) -> Seq {
    match op {
        ProjOp::Cols(cols) => seq.iter().map(|t| t.project(cols)).collect(),
        ProjOp::Drop(cols) => seq.iter().map(|t| t.without(cols)).collect(),
        ProjOp::Rename(pairs) => seq.iter().map(|t| t.rename(pairs)).collect(),
        ProjOp::DistinctCols(cols) => {
            let projected: Seq = seq
                .iter()
                .map(|t| atomize_tuple(&t.project(cols), ctx.catalog))
                .collect();
            dedup_by_value(&projected, ctx.catalog)
        }
        ProjOp::DistinctRename(pairs) => {
            let old: Vec<Sym> = pairs.iter().map(|(_, o)| *o).collect();
            let projected: Seq = seq
                .iter()
                .map(|t| atomize_tuple(&t.project(&old).rename(pairs), ctx.catalog))
                .collect();
            dedup_by_value(&projected, ctx.catalog)
        }
    }
}

/// Duplicate elimination by *atomized* value (nodes dedup by string
/// value, matching `distinct-values`), keeping the first occurrence.
pub fn dedup_by_value(seq: &[Tuple], catalog: &Catalog) -> Seq {
    let mut seen =
        std::collections::HashSet::with_capacity_and_hasher(seq.len(), crate::hash::FastBuild);
    let mut scratch = String::new();
    let mut key = |t: &Tuple| -> Vec<Value> {
        t.values()
            .map(|v| v.atomize_in(catalog, &mut scratch))
            .collect()
    };
    seq.iter()
        .filter(|t| seen.insert(key(t)))
        .cloned()
        .collect()
}

/// Replace every attribute value by its atomization. `Π^D` projections
/// and Γ group keys emit atomized values — exactly what
/// `distinct-values` returns — so that plans rewritten by Eqv. 3/5/8/9
/// (whose keys come from the inner expression's *nodes*) print the same
/// strings as the nested plans (whose variables hold atomized values).
pub fn atomize_tuple(t: &Tuple, catalog: &Catalog) -> Tuple {
    t.map_values(|v| v.atomize(catalog))
}

/// First-occurrence distinct projections of `seq` onto `by`, with
/// atomized key values — the `Π^D_{A':A}(Π_A(e))` inside the Γ definition.
fn distinct_by_key(seq: &[Tuple], by: &[Sym], catalog: &Catalog) -> Seq {
    let projected: Seq = seq
        .iter()
        .map(|t| atomize_tuple(&t.project(by), catalog))
        .collect();
    dedup_by_value(&projected, catalog)
}

/// Pairwise `x.A1[i] θ y.A2[i]` for all i.
fn tuple_key_matches(
    x: &Tuple,
    left_on: &[Sym],
    y: &Tuple,
    right_on: &[Sym],
    theta: CmpOp,
    catalog: &Catalog,
) -> bool {
    debug_assert_eq!(left_on.len(), right_on.len());
    left_on
        .iter()
        .zip(right_on)
        .all(|(a1, a2)| match (x.get(*a1), y.get(*a2)) {
            (Some(l), Some(r)) => cmp_atomic(theta, l, r, catalog),
            _ => false,
        })
}

fn exists_match(
    lt: &Tuple,
    right: &[Tuple],
    pred: &Scalar,
    env: &Tuple,
    ctx: &mut EvalCtx<'_>,
) -> EvalResult<bool> {
    for rt in right {
        if truthy_in(pred, &env.concat(&lt.concat(rt)), ctx)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Apply a group function to a group of the reference's Γ operators,
/// its filter stage evaluated over `env ◦ t` per member.
fn apply_groupfn(
    f: &crate::scalar::GroupFn,
    group: &[Tuple],
    env: &Tuple,
    ctx: &mut EvalCtx<'_>,
) -> EvalResult<Value> {
    let catalog = ctx.catalog;
    f.apply_with(group, catalog, |p, t| {
        truthy_in(p, &env.concat(t), ctx).map_err(|e| e.message)
    })
    .map_err(EvalError::new)
}

#[cfg(test)]
mod tests;
