//! The streaming, pipelined executor.
//!
//! Where [`crate::exec`] materializes every operator's full output ("Vec
//! in, Vec out" — the setup the paper's experiments ran on), this module
//! lowers a [`PhysPlan`] into a tree of pull-based [`Cursor`]s that
//! produce one tuple per call:
//!
//! * **Pipelined operators** (σ, Π, χ, μ, Υ, Ξ, probe sides of joins)
//!   never materialize — a tuple flows root-ward as soon as it exists.
//! * **Short-circuiting quantifier joins**: semi (⋉) and anti (▷) join
//!   cursors stop probing a tuple's bucket at the first passing match —
//!   `some` is decided by the first witness, `every` by the first
//!   counterexample — so quantifier plans no longer scan entire inputs.
//!   The `probe_tuples` metric exposes the saving.
//! * **Blocking operators** (hash builds, Γ grouping, Ξ-grouping)
//!   materialize internally but stream their output; hash buckets keep
//!   right-input insertion order so every join emits exactly the
//!   definitional order (the order-preserving hash join of §2).
//!
//! Ξ ordering: the materializing executor evaluates strictly bottom-up
//! and left-to-right, so a plan with *multiple* Ξ operators writes its
//! output stream in that order. Lowering detects the (rare) plans where
//! pipelining would interleave Ξ writes — a Ξ operator or a binary
//! operator with Ξ in a subtree — and falls back to materializing the
//! affected inputs, keeping `run_streaming` byte-identical to `run`.

pub mod cursor;
pub mod join;
pub mod merge;
pub mod ops;
pub mod par;

pub use cursor::{drain, BoxCursor, Cursor};

use nal::eval::{EvalCtx, EvalResult};
use nal::{Seq, Tuple};

use nal::expr::visit;
use nal::Scalar;

use crate::plan::PhysPlan;
use cursor::{AttrRel, Feed, Literal, Materialize, Metered, Once};

/// Does evaluating this scalar write Ξ output? True when a nested
/// algebraic expression inside it (a quantifier range, an aggregate
/// input) contains a Ξ operator at any depth.
fn scalar_emits_xi(s: &Scalar) -> bool {
    visit::scalar_nested_exprs(s).into_iter().any(|nested| {
        let mut found = false;
        visit::walk_deep(nested, &mut |e| {
            if matches!(e, nal::Expr::XiSimple { .. } | nal::Expr::XiGroup { .. }) {
                found = true;
            }
        });
        found
    })
}

/// Does executing this single operator (not its children) write to the
/// output stream — as a Ξ operator, or through Ξ nested in its scalars?
fn node_emits_xi(plan: &PhysPlan) -> bool {
    let scalars: Vec<&Scalar> = match plan {
        PhysPlan::XiSimple { .. } | PhysPlan::XiGroup { .. } => return true,
        PhysPlan::Select { pred, .. } | PhysPlan::LoopJoin { pred, .. } => vec![pred],
        PhysPlan::Map { value, .. } | PhysPlan::UnnestMap { value, .. } => vec![value],
        PhysPlan::HashJoin { residual, .. } => residual.iter().collect(),
        // Recipe probe sides and replayed pipelines are replay-safe (no
        // nested algebra) by conversion; only the residual could carry Ξ.
        PhysPlan::IndexJoin { recipe, .. } => recipe.residual.iter().collect(),
        PhysPlan::HashGroupUnary { f, .. }
        | PhysPlan::ThetaGroupUnary { f, .. }
        | PhysPlan::HashGroupBinary { f, .. }
        | PhysPlan::ThetaGroupBinary { f, .. } => f.filter.iter().map(|p| p.as_ref()).collect(),
        PhysPlan::Singleton
        | PhysPlan::Literal(_)
        | PhysPlan::AttrRel(_)
        | PhysPlan::Project { .. }
        | PhysPlan::Cross { .. }
        | PhysPlan::Unnest { .. }
        // Index scans have a pure structural subscript by construction.
        | PhysPlan::IndexScan { .. }
        // Parallel segments are Ξ-free by construction (`apply_parallel`
        // only wraps Ξ-free subtrees); the feed leaf carries no scalars.
        | PhysPlan::Parallel { .. }
        | PhysPlan::MorselFeed => vec![],
    };
    scalars.into_iter().any(scalar_emits_xi)
}

/// Does this subtree write to the output stream anywhere — through a Ξ
/// operator or through Ξ nested inside an operator's scalars?
fn contains_xi(plan: &PhysPlan) -> bool {
    if node_emits_xi(plan) {
        return true;
    }
    match plan {
        PhysPlan::Singleton
        | PhysPlan::Literal(_)
        | PhysPlan::AttrRel(_)
        | PhysPlan::MorselFeed => false,
        PhysPlan::Parallel { source, stages } => contains_xi(source) || contains_xi(stages),
        PhysPlan::Select { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Map { input, .. }
        | PhysPlan::HashGroupUnary { input, .. }
        | PhysPlan::ThetaGroupUnary { input, .. }
        | PhysPlan::Unnest { input, .. }
        | PhysPlan::UnnestMap { input, .. }
        | PhysPlan::XiSimple { input, .. }
        | PhysPlan::XiGroup { input, .. }
        | PhysPlan::IndexScan { input, .. } => contains_xi(input),
        PhysPlan::IndexJoin { left, .. } => contains_xi(left),
        PhysPlan::Cross { left, right }
        | PhysPlan::HashJoin { left, right, .. }
        | PhysPlan::LoopJoin { left, right, .. }
        | PhysPlan::HashGroupBinary { left, right, .. }
        | PhysPlan::ThetaGroupBinary { left, right, .. } => contains_xi(left) || contains_xi(right),
    }
}

/// Lower a pipelined unary operator's input, inserting a [`Materialize`]
/// barrier when both the operator itself and its input subtree write Ξ
/// output — so the input's whole byte stream precedes the parent's first
/// write, as in the materializing executor's bottom-up order.
fn lower_input<'p>(parent: &'p PhysPlan, input: &'p PhysPlan, env: &Tuple) -> BoxCursor<'p> {
    let inner = lower(input, env);
    if node_emits_xi(parent) && contains_xi(input) {
        Box::new(Materialize {
            input: inner,
            buffered: None,
        })
    } else {
        inner
    }
}

/// Binary operators evaluate left-then-right in the materializing
/// executor; when either subtree writes Ξ output the streaming cursors
/// must reproduce that order by buffering the left side first.
fn needs_strict_order(left: &PhysPlan, right: &PhysPlan) -> bool {
    contains_xi(left) || contains_xi(right)
}

/// Lower a physical plan into a cursor tree under an environment (the
/// environment is non-empty only for nested evaluation contexts). Every
/// cursor is wrapped in a [`Metered`] shell so `Metrics::op_tuples`
/// counts tuples produced per operator.
pub fn lower<'p>(plan: &'p PhysPlan, env: &Tuple) -> BoxCursor<'p> {
    let name = plan.op_name();
    // The parallel shell and its feed leaf are deliberately *not*
    // metered: the serial plan for the same query has no such nodes, so
    // metering them would break the parallel-vs-serial counter parity.
    // The stage operators inside the segment are metered per worker
    // under their own names, and worker metrics merge back on join.
    match plan {
        PhysPlan::Parallel { source, stages } => {
            return Box::new(par::ParallelCursor::new(source, stages, env.clone()))
        }
        PhysPlan::MorselFeed => return Box::new(par::DanglingFeed),
        _ => {}
    }
    let inner: BoxCursor<'p> = match plan {
        PhysPlan::Singleton => Box::new(Once { done: false }),
        PhysPlan::Literal(rows) => Box::new(Literal { rows, idx: 0 }),
        PhysPlan::AttrRel(a) => Box::new(AttrRel {
            attr: *a,
            env: env.clone(),
            state: None,
        }),
        PhysPlan::Select { input, pred } => Box::new(ops::Select {
            input: lower_input(plan, input, env),
            pred,
            env: env.clone(),
        }),
        PhysPlan::Project { input, op } => Box::new(ops::Project {
            input: lower(input, env),
            op,
            seen: Default::default(),
        }),
        PhysPlan::Map { input, attr, value } => Box::new(ops::Map {
            input: lower_input(plan, input, env),
            attr: *attr,
            value,
            env: env.clone(),
        }),
        PhysPlan::Cross { left, right } => Box::new(join::Cross {
            strict: needs_strict_order(left, right),
            left: Feed::Stream(lower(left, env)),
            right: Feed::Stream(lower(right, env)),
            right_rows: None,
            cur_left: None,
            ridx: 0,
        }),
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
            pad,
        } => Box::new(join::HashJoin {
            strict: needs_strict_order(left, right),
            left: Feed::Stream(lower(left, env)),
            right: Some(Feed::Stream(lower(right, env))),
            left_keys,
            right_keys,
            residual: residual.as_ref(),
            kind,
            pad,
            env: env.clone(),
            build: None,
            cur: None,
        }),
        PhysPlan::LoopJoin {
            left,
            right,
            split,
            kind,
            pad,
            ..
        } => Box::new(join::LoopJoin {
            strict: needs_strict_order(left, right),
            left: Feed::Stream(lower(left, env)),
            right: Some(Feed::Stream(lower(right, env))),
            split,
            kind,
            pad,
            env: env.clone(),
            build: None,
            cur: None,
        }),
        PhysPlan::HashGroupUnary { input, g, by, f } => Box::new(ops::HashGroupUnary {
            input: lower(input, env),
            g: *g,
            by,
            f,
            env: env.clone(),
            groups: None,
        }),
        PhysPlan::ThetaGroupUnary {
            input,
            g,
            by,
            theta,
            f,
        } => Box::new(ops::ThetaGroupUnary {
            input: lower(input, env),
            g: *g,
            by,
            theta: *theta,
            f,
            env: env.clone(),
            out: None,
        }),
        PhysPlan::HashGroupBinary {
            left,
            right,
            g,
            left_on,
            right_on,
            f,
        } => Box::new(join::HashGroupBinary {
            strict: needs_strict_order(left, right),
            left: Feed::Stream(lower(left, env)),
            right: Feed::Stream(lower(right, env)),
            g: *g,
            left_on,
            right_on,
            f,
            env: env.clone(),
            buckets: None,
        }),
        PhysPlan::ThetaGroupBinary {
            left,
            right,
            g,
            left_on,
            theta,
            right_on,
            f,
        } => Box::new(join::ThetaGroupBinary {
            left: Feed::Stream(lower(left, env)),
            right: Feed::Stream(lower(right, env)),
            g: *g,
            left_on,
            theta: *theta,
            right_on,
            f,
            env: env.clone(),
            out: None,
        }),
        PhysPlan::Unnest {
            input,
            attr,
            distinct,
            preserve_empty,
            inner_attrs,
        } => Box::new(ops::Unnest {
            input: lower(input, env),
            attr: *attr,
            distinct: *distinct,
            preserve_empty: *preserve_empty,
            inner_attrs,
            pending: Default::default(),
        }),
        PhysPlan::UnnestMap { input, attr, value } => Box::new(ops::UnnestMap {
            input: lower_input(plan, input, env),
            attr: *attr,
            value,
            env: env.clone(),
            pending: Default::default(),
        }),
        PhysPlan::XiSimple { input, cmds } => Box::new(ops::XiSimple {
            input: lower_input(plan, input, env),
            cmds,
            env: env.clone(),
        }),
        PhysPlan::XiGroup {
            input,
            by,
            head,
            body,
            tail,
        } => Box::new(ops::XiGroup {
            input: lower(input, env),
            by,
            head,
            body,
            tail,
            env: env.clone(),
            groups: None,
        }),
        PhysPlan::IndexScan {
            input,
            attr,
            uri,
            pattern,
            distinct,
        } => Box::new(ops::IndexScan {
            input: lower(input, env),
            attr: *attr,
            uri,
            pattern,
            distinct: *distinct,
            items: None,
            pending: Default::default(),
        }),
        PhysPlan::IndexJoin { left, recipe } => Box::new(join::IndexJoin {
            // A Ξ-writing residual must see the whole left byte stream
            // first, as in the materializing executor's bottom-up order.
            left: lower_input(plan, left, env),
            recipe,
            env: env.clone(),
            access: None,
            cacheable: recipe.probe_invariant(),
            cached: None,
        }),
        PhysPlan::Parallel { .. } | PhysPlan::MorselFeed => unreachable!("handled above"),
    };
    Box::new(Metered {
        inner,
        name,
        node: plan as *const PhysPlan as usize,
    })
}

/// Execute a plan by streaming it to exhaustion — the cursor-level
/// equivalent of [`crate::exec::execute`].
pub fn execute_streaming(plan: &PhysPlan, env: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
    let mut root = lower(plan, env);
    drain(root.as_mut(), ctx)
}
