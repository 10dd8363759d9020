//! The executor: a [`PhysPlan`] lowered into a tree of pull-based
//! [`Cursor`]s that produce one tuple per call ([`crate::execute`]
//! drains the root):
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
//! Ξ ordering: the reference evaluator (`nal::eval`, the §2 definitions)
//! evaluates an operator's inputs completely, bottom-up and left before
//! right, before the operator itself writes, so a plan with *multiple*
//! Ξ writers produces its output stream in that order. Lowering detects
//! the (rare) plans where pipelining would interleave Ξ writes — a Ξ
//! writer above another, or a binary operator with Ξ in a subtree — and
//! buffers the affected inputs ([`cursor::Materialize`], `strict` joins
//! over [`cursor::Feed::Buffered`]), keeping the byte stream identical
//! to the reference's.

pub mod cursor;
pub mod join;
pub mod ops;

pub use cursor::{drain, BoxCursor, Cursor};

use nal::eval::Scope;
use nal::expr::visit;
use nal::Scalar;

use crate::nested::Replays;
use crate::plan::PhysPlan;
use cursor::{AttrRel, Feed, Literal, Materialize, Meter, Metered, Once};

/// Does evaluating this scalar write Ξ output? True when a nested
/// algebraic expression inside it (a quantifier range, an aggregate
/// input) contains a Ξ operator at any depth.
fn scalar_emits_xi(s: &Scalar) -> bool {
    s.has_nested_expr()
        && visit::scalar_nested_exprs(s).into_iter().any(|nested| {
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
/// output stream — as a Ξ operator, or through Ξ nested in its scalar?
/// Asked of every node at every lowering, so it allocates nothing for
/// the operators without nested algebra.
fn node_emits_xi(plan: &PhysPlan) -> bool {
    let scalar: Option<&Scalar> = match plan {
        PhysPlan::XiSimple { .. } | PhysPlan::XiGroup { .. } => return true,
        PhysPlan::Select { pred, .. } | PhysPlan::LoopJoin { pred, .. } => Some(pred),
        PhysPlan::Map { value, .. } | PhysPlan::UnnestMap { value, .. } => Some(value),
        PhysPlan::HashJoin { residual, .. } => residual.as_ref(),
        // Recipe probe sides and replayed pipelines are replay-safe (no
        // nested algebra) by conversion; only the residual could carry Ξ.
        PhysPlan::IndexJoin { recipe, .. } => recipe.residual.as_ref(),
        PhysPlan::HashGroupUnary { f, .. }
        | PhysPlan::ThetaGroupUnary { f, .. }
        | PhysPlan::HashGroupBinary { f, .. }
        | PhysPlan::ThetaGroupBinary { f, .. } => f.filter.as_deref(),
        PhysPlan::Singleton
        | PhysPlan::Literal(_)
        | PhysPlan::AttrRel(_)
        | PhysPlan::Project { .. }
        | PhysPlan::Cross { .. }
        | PhysPlan::Unnest { .. }
        // Index scans have a pure structural subscript by construction.
        | PhysPlan::IndexScan { .. } => None,
    };
    scalar.is_some_and(scalar_emits_xi)
}

/// Does this subtree write to the output stream anywhere — through a Ξ
/// operator or through Ξ nested inside an operator's scalars?
fn contains_xi(plan: &PhysPlan) -> bool {
    node_emits_xi(plan) || plan.inputs().into_iter().flatten().any(contains_xi)
}

/// The reference evaluator evaluates a binary operator's left input
/// completely before its right; when either subtree writes Ξ output the
/// cursors must reproduce that order by buffering the left side first.
fn needs_strict_order(left: &PhysPlan, right: &PhysPlan) -> bool {
    contains_xi(left) || contains_xi(right)
}

/// Lower a physical plan into a cursor tree whose tuples are evaluated
/// in the scope `env` — empty for a top-level plan, the outer tuple's
/// for a nested block ([`crate::nested`]). Every cursor is wrapped in a
/// [`Metered`] shell — a χ/Υ run carries a [`Meter`] per operator
/// instead — so `Metrics::op_tuples` counts tuples produced per
/// operator.
pub fn lower<'p>(plan: &'p PhysPlan, env: &'p Scope<'p>) -> BoxCursor<'p> {
    Lowering { env, replays: None }.lower(plan)
}

/// One lowering: of a plan, or — with `replays` set — of a nested
/// block, whose shared subtrees are replayed from their spools
/// ([`crate::nested`]).
pub(crate) struct Lowering<'a> {
    pub(crate) env: &'a Scope<'a>,
    pub(crate) replays: Option<&'a dyn Replays>,
}

impl<'a> Lowering<'a> {
    /// Lower a pipelined unary operator's input, inserting a
    /// [`Materialize`] barrier when both the operator itself and its
    /// input subtree write Ξ output — so the input's whole byte stream
    /// precedes the parent's first write, as in the reference
    /// evaluator's bottom-up order.
    fn lower_input(&mut self, parent: &'a PhysPlan, input: &'a PhysPlan) -> BoxCursor<'a> {
        let inner = self.lower(input);
        if node_emits_xi(parent) && contains_xi(input) {
            Box::new(Materialize {
                input: inner,
                buffered: None,
            })
        } else {
            inner
        }
    }

    /// χ and Υ: the run of operators `top` heads — itself, and below it
    /// every χ/Υ reached through a `fused` mark, up to the run's second Υ
    /// — as one cursor, which meters its operators itself. (The index
    /// rewrite can put another operator in the middle of a marked run: it
    /// ends there, and its lower part is a run of its own.)
    fn lower_run(&mut self, top: &'a PhysPlan) -> BoxCursor<'a> {
        let binding = |node: &'a PhysPlan| match node {
            PhysPlan::Map {
                input,
                attr,
                value,
                blocks,
                fused,
                keep,
            } => Some((&**input, *attr, value, blocks, *fused, keep, false)),
            PhysPlan::UnnestMap {
                input,
                attr,
                value,
                blocks,
                fused,
                keep,
            } => Some((&**input, *attr, value, blocks, *fused, keep, true)),
            _ => None,
        };
        let (.., keep, _) = binding(top).expect("a run is headed by a χ or Υ");
        // Top-down.
        let (mut binders, mut fanout) = (vec![], None);
        let mut node = top;
        let input = loop {
            let (input, attr, value, blocks, fused, _, fans_out) = binding(node).expect("checked");
            if fans_out {
                fanout = Some(binders.len());
            }
            binders.push(ops::Binder {
                attr,
                value,
                blocks: blocks.spooled(),
                meter: Meter::of(node),
            });
            // A shared subtree is replayed, not joined: the run ends above it.
            let joins = fused
                && !self.replays.is_some_and(|r| r.spools(input))
                && binding(input).is_some_and(|(.., fans_out)| !(fans_out && fanout.is_some()));
            if !joins {
                break self.lower_input(node, input);
            }
            node = input;
        };
        binders.reverse();
        let fanout = fanout.map(|at| binders.len() - 1 - at);
        let run = ops::MapRun::new(input, binders, fanout, keep.attrs(), self.env);
        Box::new(run)
    }

    pub(crate) fn lower(&mut self, plan: &'a PhysPlan) -> BoxCursor<'a> {
        if let Some(replay) = self.replays.and_then(|r| r.replay(plan)) {
            return replay;
        }
        let env = self.env;
        fn metered<'p, C: Cursor + 'p>(plan: &'p PhysPlan, inner: C) -> BoxCursor<'p> {
            Box::new(Metered {
                inner,
                meter: Meter::of(plan),
            })
        }
        match plan {
            PhysPlan::Singleton => metered(plan, Once { done: false }),
            PhysPlan::Literal(rows) => metered(plan, Literal { rows, idx: 0 }),
            PhysPlan::AttrRel(a) => metered(
                plan,
                AttrRel {
                    attr: *a,
                    env,
                    state: None,
                },
            ),
            PhysPlan::Select {
                input,
                pred,
                blocks,
            } => metered(
                plan,
                ops::Select {
                    input: self.lower_input(plan, input),
                    pred,
                    blocks: blocks.spooled(),
                    env,
                },
            ),
            PhysPlan::Project { input, op } => metered(
                plan,
                ops::Project {
                    input: self.lower(input),
                    op,
                    seen: Default::default(),
                },
            ),
            PhysPlan::Map { .. } | PhysPlan::UnnestMap { .. } => self.lower_run(plan),
            PhysPlan::Cross { left, right, keep } => metered(
                plan,
                join::Cross {
                    strict: needs_strict_order(left, right),
                    left: Feed::Stream(self.lower(left)),
                    right: self.lower(right),
                    keep: keep.attrs(),
                    right_rows: None,
                    cur_left: None,
                    ridx: 0,
                },
            ),
            PhysPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
                blocks,
                kind,
                pad,
                keep,
            } => metered(
                plan,
                join::HashJoin {
                    strict: needs_strict_order(left, right),
                    left: Feed::Stream(self.lower(left)),
                    right: self.lower(right),
                    left_keys,
                    right_keys,
                    residual: residual.as_ref(),
                    blocks: blocks.spooled(),
                    kind,
                    pad,
                    keep: keep.attrs(),
                    env,
                    scratch: String::new(),
                    build: None,
                    cur: None,
                },
            ),
            PhysPlan::LoopJoin {
                left,
                right,
                split,
                kind,
                pad,
                keep,
                ..
            } => metered(
                plan,
                join::LoopJoin {
                    strict: needs_strict_order(left, right),
                    left: Feed::Stream(self.lower(left)),
                    right: self.lower(right),
                    split,
                    blocks: split.blocks.spooled(),
                    kind,
                    pad,
                    keep: keep.attrs(),
                    env,
                    build: None,
                    cur: None,
                },
            ),
            PhysPlan::HashGroupUnary {
                input,
                g,
                by,
                f,
                blocks,
            } => metered(
                plan,
                ops::HashGroupUnary {
                    input: self.lower(input),
                    g: *g,
                    by,
                    f,
                    blocks: blocks.spooled(),
                    emits: by.iter().chain([g]).copied().collect(),
                    env,
                    scratch: String::new(),
                    groups: None,
                },
            ),
            PhysPlan::ThetaGroupUnary {
                input,
                g,
                by,
                theta,
                f,
            } => metered(
                plan,
                ops::ThetaGroupUnary {
                    input: self.lower(input),
                    g: *g,
                    by,
                    theta: *theta,
                    f,
                    env,
                    out: None,
                },
            ),
            PhysPlan::HashGroupBinary {
                left,
                right,
                g,
                left_on,
                right_on,
                f,
                blocks,
                keep,
            } => metered(
                plan,
                join::HashGroupBinary {
                    strict: needs_strict_order(left, right),
                    left: Feed::Stream(self.lower(left)),
                    right: self.lower(right),
                    g: *g,
                    left_on,
                    right_on,
                    f,
                    blocks: blocks.spooled(),
                    keep: keep.attrs(),
                    env,
                    scratch: String::new(),
                    buckets: None,
                },
            ),
            PhysPlan::ThetaGroupBinary {
                left,
                right,
                g,
                left_on,
                theta,
                right_on,
                f,
            } => metered(
                plan,
                join::ThetaGroupBinary {
                    left: self.lower(left),
                    right: self.lower(right),
                    g: *g,
                    left_on,
                    theta: *theta,
                    right_on,
                    f,
                    env,
                    out: None,
                },
            ),
            PhysPlan::Unnest {
                input,
                attr,
                distinct,
                preserve_empty,
                inner_attrs,
                keep,
            } => metered(
                plan,
                ops::Unnest {
                    input: self.lower(input),
                    attr: *attr,
                    distinct: *distinct,
                    preserve_empty: *preserve_empty,
                    inner_attrs,
                    keep: keep.attrs(),
                    pending: Default::default(),
                },
            ),
            PhysPlan::XiSimple { input, cmds } => metered(
                plan,
                ops::XiSimple {
                    input: self.lower_input(plan, input),
                    cmds,
                    env,
                },
            ),
            PhysPlan::XiGroup {
                input,
                by,
                head,
                body,
                tail,
            } => metered(
                plan,
                ops::XiGroup {
                    input: self.lower(input),
                    by,
                    head,
                    body,
                    tail,
                    env,
                    scratch: String::new(),
                    groups: None,
                },
            ),
            PhysPlan::IndexScan {
                input,
                attr,
                uri,
                pattern,
                distinct,
                keep,
            } => metered(
                plan,
                ops::IndexScan {
                    items: None,
                    input: self.lower(input),
                    attr: *attr,
                    uri,
                    pattern,
                    distinct: *distinct,
                    keep: keep.attrs(),
                    cur: None,
                },
            ),
            PhysPlan::IndexJoin { left, recipe } => metered(
                plan,
                join::IndexJoin {
                    // A Ξ-writing residual must see the whole left byte stream
                    // first, as in the reference evaluator's bottom-up order.
                    left: self.lower_input(plan, left),
                    recipe,
                    blocks: recipe.blocks.spooled(),
                    env,
                    access: None,
                    cacheable: recipe.probe_invariant(),
                    cached: None,
                },
            ),
        }
    }
}
