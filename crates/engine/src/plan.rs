//! Physical plans, compiled from logical NAL expressions.
//!
//! The compiler mirrors the paper's implementation notes (§2, "one word
//! on implementation"): equality predicates get hash-based
//! order-preserving operators (our in-memory stand-in for the
//! Grace-hash-join + re-sort the authors used, with the order-preserving
//! hash join of Claussen et al. as the conceptual model); non-equality
//! predicates compile to loop joins, which keep the definitional
//! *result* but not the definitional pair loop — their predicate is
//! split by side here ([`ThetaSplit`]) so that execution decides
//! one-sided conjuncts once and probes an ordered build for range
//! conjuncts ([`crate::theta`]). Scalar subscripts are evaluated with the
//! reference evaluator's scalar semantics; the nested algebra blocks
//! inside them — what makes a *nested plan* nested — are compiled here,
//! with the plan, and run on the engine ([`crate::nested`]).

use nal::expr::attrs::{attr_set, nested_attrs};
use nal::expr::visit;
use nal::{Expr, GroupFn, ProjOp, Scalar, Sym, Value, XiCmd};

use crate::nested::Blocks;
use crate::theta::ThetaSplit;

/// What a tuple-producing operator emits of the tuple it builds —
/// written by the dead-attribute pass ([`crate::live`]), honoured by
/// the cursors and the index-join replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Keep {
    /// The attributes emitted, sorted; `None`: everything built. An
    /// attribute outside the list is never placed in the output block,
    /// so every operator above works on a narrower tuple.
    pub only: Option<Vec<Sym>>,
    /// The `Π_A`/`Π_{Ā}` operators that sat directly above this one and
    /// were folded into `only` (innermost first). EXPLAIN shows them;
    /// execution never reads them.
    pub absorbed: Vec<ProjOp>,
}

impl Keep {
    /// The emitted attributes, if restricted.
    pub fn attrs(&self) -> Option<&[Sym]> {
        self.only.as_deref()
    }

    /// Is `a`, when built, emitted?
    pub fn emits(&self, a: Sym) -> bool {
        match &self.only {
            None => true,
            Some(only) => only.contains(&a),
        }
    }
}

/// How a binary matching operator consumes its matches.
#[derive(Clone, Debug, PartialEq)]
pub enum JoinKind {
    /// Emit concatenated pairs for every match.
    Inner,
    /// Emit each left tuple with at least one match (⋉).
    Semi,
    /// Emit each left tuple with no match (▷).
    Anti,
    /// Left outer join (⟕): unmatched left tuples pad the right
    /// attributes with NULL and bind `g` to `default`.
    Outer {
        /// The grouped/padded attribute.
        g: Sym,
        /// `g`'s value on unmatched left tuples.
        default: Value,
    },
}

/// A physical operator tree.
#[derive(Clone, Debug)]
pub enum PhysPlan {
    /// `□` — the one-empty-tuple relation.
    Singleton,
    /// A literal tuple sequence (tests, rewrites).
    Literal(Vec<nal::Tuple>),
    /// `rel(a)` — the group sequence bound to attribute `a`.
    AttrRel(Sym),
    /// σ — keep tuples satisfying `pred`.
    Select {
        /// Input operator.
        input: Box<PhysPlan>,
        /// The selection predicate.
        pred: Scalar,
        /// The predicate's nested blocks, compiled.
        blocks: Blocks,
    },
    /// Π / Π^D — column projection, renaming, dropping.
    Project {
        /// Input operator.
        input: Box<PhysPlan>,
        /// The projection operation.
        op: ProjOp,
    },
    /// χ — bind `attr` to `value` per tuple.
    Map {
        /// Input operator.
        input: Box<PhysPlan>,
        /// The bound attribute.
        attr: Sym,
        /// The subscript computing its value.
        value: Scalar,
        /// The subscript's nested blocks, compiled.
        blocks: Blocks,
        /// Evaluate this χ against the tuple its *input* χ/Υ receives and
        /// build both bindings into one output block: set when the
        /// subscript reads nothing the run of χ/Υ below it binds (and
        /// none of them embeds nested algebra).
        fused: bool,
        /// What of the built tuple is emitted.
        keep: Keep,
    },
    /// × — ordered cross product.
    Cross {
        /// Outer (slow-varying) input.
        left: Box<PhysPlan>,
        /// Inner input.
        right: Box<PhysPlan>,
        /// What of the built tuple is emitted.
        keep: Keep,
    },
    /// Hash-based order-preserving join: build on the right, probe the
    /// left in order; bucket order preserves right order.
    HashJoin {
        /// Probe side.
        left: Box<PhysPlan>,
        /// Build side.
        right: Box<PhysPlan>,
        /// Probe-side key attributes (parallel to `right_keys`).
        left_keys: Vec<Sym>,
        /// Build-side key attributes.
        right_keys: Vec<Sym>,
        /// Non-equi conjuncts evaluated per bucket match.
        residual: Option<Scalar>,
        /// The residual's nested blocks, compiled.
        blocks: Blocks,
        /// How matches are consumed.
        kind: JoinKind,
        /// `A(right) \ {g}` — outer-join NULL padding (precomputed).
        pad: Vec<Sym>,
        /// What of the joined tuple is emitted (inner/outer joins only).
        keep: Keep,
    },
    /// Join for non-equi predicates: the definitional nested loop's
    /// result, computed by the shared θ-probe ([`crate::theta`]).
    LoopJoin {
        /// Probe side.
        left: Box<PhysPlan>,
        /// Build side, materialized once.
        right: Box<PhysPlan>,
        /// The join predicate.
        pred: Scalar,
        /// `pred`'s conjuncts by the side they mention (what executes).
        split: ThetaSplit,
        /// How matches are consumed.
        kind: JoinKind,
        /// Outer-join NULL padding.
        pad: Vec<Sym>,
        /// What of the joined tuple is emitted (inner/outer joins only).
        keep: Keep,
    },
    /// Single-pass hash grouping (θ = '='), first-occurrence key order.
    HashGroupUnary {
        /// Input operator.
        input: Box<PhysPlan>,
        /// Attribute receiving each group's aggregate.
        g: Sym,
        /// Grouping attributes.
        by: Vec<Sym>,
        /// The aggregate applied per group.
        f: GroupFn,
        /// The nested blocks of `f`'s filter, compiled.
        blocks: Blocks,
    },
    /// θ-grouping fallback (distinct keys × input scan).
    ThetaGroupUnary {
        /// Input operator.
        input: Box<PhysPlan>,
        /// Attribute receiving each group's aggregate.
        g: Sym,
        /// Grouping attributes.
        by: Vec<Sym>,
        /// The grouping comparison.
        theta: nal::CmpOp,
        /// The aggregate applied per group.
        f: GroupFn,
    },
    /// Binary grouping with hash lookup of each left tuple's group.
    HashGroupBinary {
        /// The kept side (each tuple receives its group).
        left: Box<PhysPlan>,
        /// The grouped side.
        right: Box<PhysPlan>,
        /// Attribute receiving the group aggregate.
        g: Sym,
        /// Left-side match attributes.
        left_on: Vec<Sym>,
        /// Right-side match attributes.
        right_on: Vec<Sym>,
        /// The aggregate applied per group.
        f: GroupFn,
        /// The nested blocks of `f`'s filter, compiled.
        blocks: Blocks,
        /// What of the built tuple is emitted.
        keep: Keep,
    },
    /// Binary θ-grouping fallback (non-equality comparisons).
    ThetaGroupBinary {
        /// The kept side.
        left: Box<PhysPlan>,
        /// The grouped side.
        right: Box<PhysPlan>,
        /// Attribute receiving the group aggregate.
        g: Sym,
        /// Left-side match attributes.
        left_on: Vec<Sym>,
        /// The grouping comparison.
        theta: nal::CmpOp,
        /// Right-side match attributes.
        right_on: Vec<Sym>,
        /// The aggregate applied per group.
        f: GroupFn,
    },
    /// μ / μ^D — unnest a sequence-valued attribute.
    Unnest {
        /// Input operator.
        input: Box<PhysPlan>,
        /// The sequence-valued attribute to flatten.
        attr: Sym,
        /// μ^D: atomize and deduplicate the flattened items.
        distinct: bool,
        /// Keep tuples whose sequence is empty (outer-join provenance).
        preserve_empty: bool,
        /// Attributes of the nested tuples (precomputed schema).
        inner_attrs: Vec<Sym>,
        /// What of the built tuple is emitted.
        keep: Keep,
    },
    /// Υ — bind `attr` to each item of the subscript's sequence.
    UnnestMap {
        /// Input operator.
        input: Box<PhysPlan>,
        /// The bound attribute.
        attr: Sym,
        /// The sequence-producing subscript.
        value: Scalar,
        /// The subscript's nested blocks, compiled.
        blocks: Blocks,
        /// Like [`PhysPlan::Map`]'s: this Υ is evaluated with the run of
        /// χ below it (a run has one fan-out at most).
        fused: bool,
        /// What of the built tuple is emitted.
        keep: Keep,
    },
    /// Ξ — serialize per input tuple (identity output).
    XiSimple {
        /// Input operator.
        input: Box<PhysPlan>,
        /// Serialization commands per tuple.
        cmds: Vec<XiCmd>,
    },
    /// Grouped Ξ — head/body/tail serialization per key group.
    XiGroup {
        /// Input operator.
        input: Box<PhysPlan>,
        /// Group-key attributes.
        by: Vec<Sym>,
        /// Commands once per group, before the body.
        head: Vec<XiCmd>,
        /// Commands per tuple of the group.
        body: Vec<XiCmd>,
        /// Commands once per group, after the body.
        tail: Vec<XiCmd>,
    },
    /// Index-backed document path scan: replaces an `UnnestMap` whose
    /// subscript is a document-rooted structural path. The node sequence
    /// comes from the catalog's [`xmldb::PathIndex`] (document order, no
    /// tree traversal); each input tuple fans out over it exactly as the
    /// replaced Υ would. Produced only by
    /// [`crate::access::apply_indexes`].
    IndexScan {
        /// Input operator (each tuple fans out over the node sequence).
        input: Box<PhysPlan>,
        /// The bound attribute.
        attr: Sym,
        /// Document URI resolved through the catalog.
        uri: String,
        /// Index-side form of the path (resolvable by the path index).
        pattern: xmldb::PathPattern,
        /// `true` when the subscript was wrapped in `distinct-values`:
        /// emit first-occurrence distinct *atomized* values instead of
        /// nodes.
        distinct: bool,
        /// What of the built tuple is emitted.
        keep: Keep,
    },
    /// Index-backed semi/anti quantifier join: replaces a hash or loop
    /// semi/anti join whose build side is a document path scan (possibly
    /// wrapped in filters, computed columns, and fan-outs) with a probe
    /// of the catalog's value indexes, never executing the build side at
    /// all. *Everything* about the access path — point, composite-key,
    /// or ordered range probing; ancestor reconstruction (fixed-depth
    /// parent hops or variable-depth trail matching); the replayed
    /// pipeline and residual — is carried by the declarative
    /// [`crate::access::AccessRecipe`], which the executor and the
    /// cost model consume unchanged. Produced only by
    /// [`crate::access::apply_indexes`].
    IndexJoin {
        /// Probe side.
        left: Box<PhysPlan>,
        /// The declarative access path (driver, reconstruction, replay).
        recipe: std::sync::Arc<crate::access::AccessRecipe>,
    },
}

impl PhysPlan {
    /// Operator name for explain output.
    pub fn op_name(&self) -> &'static str {
        match self {
            PhysPlan::Singleton => "Singleton",
            PhysPlan::Literal(_) => "Literal",
            PhysPlan::AttrRel(_) => "AttrRel",
            PhysPlan::Select { .. } => "Select",
            PhysPlan::Project { .. } => "Project",
            PhysPlan::Map { .. } => "Map",
            PhysPlan::Cross { .. } => "Cross",
            PhysPlan::HashJoin { kind, .. } => match kind {
                JoinKind::Inner => "HashJoin",
                JoinKind::Semi => "HashSemiJoin",
                JoinKind::Anti => "HashAntiJoin",
                JoinKind::Outer { .. } => "HashOuterJoin",
            },
            PhysPlan::LoopJoin { kind, .. } => match kind {
                JoinKind::Inner => "LoopJoin",
                JoinKind::Semi => "LoopSemiJoin",
                JoinKind::Anti => "LoopAntiJoin",
                JoinKind::Outer { .. } => "LoopOuterJoin",
            },
            PhysPlan::HashGroupUnary { .. } => "HashGroup",
            PhysPlan::ThetaGroupUnary { .. } => "ThetaGroup",
            PhysPlan::HashGroupBinary { .. } => "HashNestJoin",
            PhysPlan::ThetaGroupBinary { .. } => "ThetaNestJoin",
            PhysPlan::Unnest { .. } => "Unnest",
            PhysPlan::UnnestMap { .. } => "UnnestMap",
            PhysPlan::XiSimple { .. } => "Xi",
            PhysPlan::XiGroup { .. } => "XiGroup",
            PhysPlan::IndexScan { .. } => "IndexScan",
            PhysPlan::IndexJoin { recipe, .. } => recipe.op_name(),
        }
    }

    /// Indented operator-tree rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(self.op_name());
        out.push_str(&self.detail());
        out.push('\n');
        for c in self.children() {
            c.explain_into(depth + 1, out);
        }
    }

    /// What [`Self::op_name`] leaves out and the dead-attribute pass
    /// decided, for EXPLAIN: the attribute a binder binds, the
    /// attributes a producer emits (`keep{…}`) with the projections
    /// folded into it, and whether a χ is evaluated with the run below
    /// it — e.g. `[t1] keep{t1} absorbed Π[t1]`; last, the shared
    /// subtrees of the operator's nested blocks ([`crate::nested`]), each
    /// named by its root — ` shared{Υ[b2]}`. Empty for the operators
    /// that have none of these.
    pub fn detail(&self) -> String {
        let list = |syms: &[Sym]| {
            let names: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
            names.join(",")
        };
        let shared = self.blocks().map_or_else(String::new, Blocks::mark);
        let (bound, keep, fused) = match self {
            PhysPlan::Map {
                attr, keep, fused, ..
            }
            | PhysPlan::UnnestMap {
                attr, keep, fused, ..
            } => (Some(*attr), keep, *fused),
            PhysPlan::IndexScan { attr, keep, .. } | PhysPlan::Unnest { attr, keep, .. } => {
                (Some(*attr), keep, false)
            }
            PhysPlan::HashGroupBinary { g, keep, .. } => (Some(*g), keep, false),
            PhysPlan::Cross { keep, .. }
            | PhysPlan::HashJoin { keep, .. }
            | PhysPlan::LoopJoin { keep, .. } => (None, keep, false),
            _ => return shared,
        };
        let mut out = String::new();
        if let Some(a) = bound {
            out.push_str(&format!("[{a}]"));
        }
        if let Some(only) = &keep.only {
            out.push_str(&format!(" keep{{{}}}", list(only)));
        }
        for op in &keep.absorbed {
            match op {
                ProjOp::Cols(cols) => out.push_str(&format!(" absorbed Π[{}]", list(cols))),
                ProjOp::Drop(cols) => out.push_str(&format!(" absorbed Π[-{}]", list(cols))),
                other => unreachable!("only Π_A and Π_Ā are absorbed, not {other:?}"),
            }
        }
        if fused {
            out.push_str(" fused");
        }
        out.push_str(&shared);
        out
    }

    /// The compiled nested blocks of the node's subscript, if it has a
    /// subscript that can hold any.
    pub(crate) fn blocks(&self) -> Option<&Blocks> {
        match self {
            PhysPlan::Select { blocks, .. }
            | PhysPlan::Map { blocks, .. }
            | PhysPlan::UnnestMap { blocks, .. }
            | PhysPlan::HashJoin { blocks, .. }
            | PhysPlan::HashGroupUnary { blocks, .. }
            | PhysPlan::HashGroupBinary { blocks, .. } => Some(blocks),
            PhysPlan::LoopJoin { split, .. } => Some(&split.blocks),
            PhysPlan::IndexJoin { recipe, .. } => Some(&recipe.blocks),
            _ => None,
        }
    }

    /// The node's direct plan inputs, in left-to-right order (the probe
    /// side only for [`PhysPlan::IndexJoin`] — the build side is never
    /// executed). Used by explain rendering and per-node cost/trace
    /// walks.
    pub fn children(&self) -> Vec<&PhysPlan> {
        self.inputs().into_iter().flatten().collect()
    }

    /// [`Self::children`] without the allocation, for the walks that
    /// run per compilation or per execution.
    pub(crate) fn inputs(&self) -> [Option<&PhysPlan>; 2] {
        match self {
            PhysPlan::Singleton | PhysPlan::Literal(_) | PhysPlan::AttrRel(_) => [None, None],
            PhysPlan::Select { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Map { input, .. }
            | PhysPlan::HashGroupUnary { input, .. }
            | PhysPlan::ThetaGroupUnary { input, .. }
            | PhysPlan::Unnest { input, .. }
            | PhysPlan::UnnestMap { input, .. }
            | PhysPlan::XiSimple { input, .. }
            | PhysPlan::XiGroup { input, .. }
            | PhysPlan::IndexScan { input, .. } => [Some(input), None],
            PhysPlan::IndexJoin { left, .. } => [Some(left), None],
            PhysPlan::Cross { left, right, .. }
            | PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::LoopJoin { left, right, .. }
            | PhysPlan::HashGroupBinary { left, right, .. }
            | PhysPlan::ThetaGroupBinary { left, right, .. } => [Some(left), Some(right)],
        }
    }

    /// [`Self::children`] by mutable reference — what the rewrite passes
    /// walk.
    pub(crate) fn children_mut(&mut self) -> Vec<&mut PhysPlan> {
        match self {
            PhysPlan::Singleton | PhysPlan::Literal(_) | PhysPlan::AttrRel(_) => vec![],
            PhysPlan::Select { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Map { input, .. }
            | PhysPlan::HashGroupUnary { input, .. }
            | PhysPlan::ThetaGroupUnary { input, .. }
            | PhysPlan::Unnest { input, .. }
            | PhysPlan::UnnestMap { input, .. }
            | PhysPlan::XiSimple { input, .. }
            | PhysPlan::XiGroup { input, .. }
            | PhysPlan::IndexScan { input, .. } => vec![input],
            PhysPlan::IndexJoin { left, .. } => vec![left],
            PhysPlan::Cross { left, right, .. }
            | PhysPlan::HashJoin { left, right, .. }
            | PhysPlan::LoopJoin { left, right, .. }
            | PhysPlan::HashGroupBinary { left, right, .. }
            | PhysPlan::ThetaGroupBinary { left, right, .. } => vec![left, right],
        }
    }
}

/// Compile a logical expression into a physical plan: the operator
/// choice of [`compile_unpruned`], then the dead-attribute pass
/// ([`crate::live::prune`]) — so every plan an executor, the plan cache
/// or the index rewrite sees builds only the attributes something
/// reads. Nested blocks in subscripts are compiled the same way.
pub fn compile(e: &Expr) -> PhysPlan {
    let mut plan = choose(e, compile);
    crate::live::prune(&mut plan);
    plan
}

/// [`compile`] without the dead-attribute pass: every operator emits
/// everything it builds and every `Π` is its own operator, in nested
/// blocks too. The reference the pass is differentially tested against
/// (`tests/live_attrs.rs`) and nothing else: pricing, caching and
/// execution all see [`compile`]'s plan.
#[doc(hidden)]
pub fn compile_unpruned(e: &Expr) -> PhysPlan {
    choose(e, compile_unpruned)
}

/// The operator choice for `e`; the nested blocks of its subscripts are
/// compiled with `block`.
fn choose(e: &Expr, block: fn(&Expr) -> PhysPlan) -> PhysPlan {
    let input = |e: &Expr| Box::new(choose(e, block));
    match e {
        Expr::Singleton => PhysPlan::Singleton,
        Expr::Literal(rows) => PhysPlan::Literal(rows.clone()),
        Expr::AttrRel(a) => PhysPlan::AttrRel(*a),
        Expr::Select { input: i, pred } => PhysPlan::Select {
            input: input(i),
            pred: pred.clone(),
            blocks: Blocks::of(pred, block),
        },
        Expr::Project { input: i, op } => PhysPlan::Project {
            input: input(i),
            op: op.clone(),
        },
        Expr::Map {
            input: i,
            attr,
            value,
        } => PhysPlan::Map {
            input: input(i),
            attr: *attr,
            value: value.clone(),
            blocks: Blocks::of(value, block),
            fused: false,
            keep: Keep::default(),
        },
        Expr::Cross { left, right } => PhysPlan::Cross {
            left: input(left),
            right: input(right),
            keep: Keep::default(),
        },
        Expr::Join { left, right, pred } => join(left, right, pred, JoinKind::Inner, &[], block),
        Expr::SemiJoin { left, right, pred } => join(left, right, pred, JoinKind::Semi, &[], block),
        Expr::AntiJoin { left, right, pred } => join(left, right, pred, JoinKind::Anti, &[], block),
        Expr::OuterJoin {
            left,
            right,
            pred,
            g,
            default,
        } => {
            let pad: Vec<Sym> = attr_set(right).into_iter().filter(|a| a != g).collect();
            join(
                left,
                right,
                pred,
                JoinKind::Outer {
                    g: *g,
                    default: default.clone(),
                },
                &pad,
                block,
            )
        }
        Expr::GroupUnary {
            input: i,
            g,
            by,
            theta,
            f,
        } => {
            let input = input(i);
            if *theta == nal::CmpOp::Eq {
                PhysPlan::HashGroupUnary {
                    input,
                    g: *g,
                    by: by.clone(),
                    f: f.clone(),
                    blocks: filter_blocks(f, block),
                }
            } else {
                PhysPlan::ThetaGroupUnary {
                    input,
                    g: *g,
                    by: by.clone(),
                    theta: *theta,
                    f: f.clone(),
                }
            }
        }
        Expr::GroupBinary {
            left,
            right,
            g,
            left_on,
            theta,
            right_on,
            f,
        } => {
            let (left, right) = (input(left), input(right));
            if *theta == nal::CmpOp::Eq {
                PhysPlan::HashGroupBinary {
                    left,
                    right,
                    g: *g,
                    left_on: left_on.clone(),
                    right_on: right_on.clone(),
                    f: f.clone(),
                    blocks: filter_blocks(f, block),
                    keep: Keep::default(),
                }
            } else {
                PhysPlan::ThetaGroupBinary {
                    left,
                    right,
                    g: *g,
                    left_on: left_on.clone(),
                    theta: *theta,
                    right_on: right_on.clone(),
                    f: f.clone(),
                }
            }
        }
        Expr::Unnest {
            input: i,
            attr,
            distinct,
            preserve_empty,
        } => PhysPlan::Unnest {
            inner_attrs: nal::expr::attrs::nested_attrs(i, *attr).unwrap_or_default(),
            input: input(i),
            attr: *attr,
            distinct: *distinct,
            preserve_empty: *preserve_empty,
            keep: Keep::default(),
        },
        Expr::UnnestMap {
            input: i,
            attr,
            value,
        } => PhysPlan::UnnestMap {
            input: input(i),
            attr: *attr,
            value: value.clone(),
            blocks: Blocks::of(value, block),
            fused: false,
            keep: Keep::default(),
        },
        Expr::XiSimple { input: i, cmds } => PhysPlan::XiSimple {
            input: input(i),
            cmds: cmds.clone(),
        },
        Expr::XiGroup {
            input: i,
            by,
            head,
            body,
            tail,
        } => PhysPlan::XiGroup {
            input: input(i),
            by: by.clone(),
            head: head.clone(),
            body: body.clone(),
            tail: tail.clone(),
        },
    }
}

/// The nested blocks of a group function's filter.
fn filter_blocks(f: &GroupFn, block: fn(&Expr) -> PhysPlan) -> Blocks {
    f.filter
        .as_deref()
        .map_or(Blocks::NONE, |p| Blocks::of(p, block))
}

/// Split a join predicate into hashable equi-pairs and a residual; choose
/// the hash or loop operator accordingly.
fn join(
    left: &Expr,
    right: &Expr,
    pred: &Scalar,
    kind: JoinKind,
    pad: &[Sym],
    block: fn(&Expr) -> PhysPlan,
) -> PhysPlan {
    let l = Box::new(choose(left, block));
    let r = Box::new(choose(right, block));
    let a_l = attr_set(left);
    let a_r = attr_set(right);

    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();
    for c in pred.conjuncts() {
        match c {
            Scalar::Cmp(nal::CmpOp::Eq, x, y) => match (x.as_ref(), y.as_ref()) {
                (Scalar::Attr(xa), Scalar::Attr(ya)) if a_l.contains(xa) && a_r.contains(ya) => {
                    left_keys.push(*xa);
                    right_keys.push(*ya);
                }
                (Scalar::Attr(xa), Scalar::Attr(ya)) if a_r.contains(xa) && a_l.contains(ya) => {
                    left_keys.push(*ya);
                    right_keys.push(*xa);
                }
                _ => residual.push((*c).clone()),
            },
            other => residual.push(other.clone()),
        }
    }
    if left_keys.is_empty() {
        let known = schema_known(left) && schema_known(right);
        PhysPlan::LoopJoin {
            left: l,
            right: r,
            pred: pred.clone(),
            split: ThetaSplit::of(pred, &a_l, &a_r, known, Blocks::of(pred, block)),
            kind,
            pad: pad.to_vec(),
            keep: Keep::default(),
        }
    } else {
        let residual = (!residual.is_empty()).then(|| Scalar::conjoin(residual));
        PhysPlan::HashJoin {
            left: l,
            right: r,
            left_keys,
            right_keys,
            blocks: residual
                .as_ref()
                .map_or(Blocks::NONE, |p| Blocks::of(p, block)),
            residual,
            kind,
            pad: pad.to_vec(),
            keep: Keep::default(),
        }
    }
}

/// Is `attr_set(e)` complete — does it name every attribute `e`'s
/// tuples can carry? Not when a relation's schema is unknown statically
/// (`rel(a)`, a literal without rows, or a μ over an attribute whose
/// nested schema cannot be inferred); a predicate conjunct could then
/// mention the side without it showing.
fn schema_known(e: &Expr) -> bool {
    let mut known = true;
    visit::walk_deep(e, &mut |n| match n {
        Expr::AttrRel(_) => known = false,
        Expr::Literal(rows) if rows.is_empty() => known = false,
        Expr::Unnest { input, attr, .. } if nested_attrs(input, *attr).is_none() => known = false,
        _ => {}
    });
    known
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::CmpOp;

    #[test]
    fn equi_joins_compile_to_hash_operators() {
        let l = singleton().map("a", Scalar::int(1));
        let r = singleton().map("b", Scalar::int(2));
        let j = l.clone().semijoin(
            r.clone(),
            Scalar::attr_cmp(CmpOp::Eq, "a", "b").and(Scalar::cmp(
                CmpOp::Gt,
                Scalar::attr("b"),
                Scalar::int(0),
            )),
        );
        let plan = compile(&j);
        let PhysPlan::HashJoin {
            kind,
            residual,
            left_keys,
            ..
        } = &plan
        else {
            panic!("{}", plan.explain())
        };
        assert_eq!(*kind, JoinKind::Semi);
        assert!(residual.is_some());
        assert_eq!(left_keys, &vec![Sym::new("a")]);
    }

    #[test]
    fn non_equi_joins_fall_back_to_loops() {
        let l = singleton().map("a", Scalar::int(1));
        let r = singleton().map("b", Scalar::int(2));
        let j = l.join(r, Scalar::attr_cmp(CmpOp::Lt, "a", "b"));
        assert!(matches!(compile(&j), PhysPlan::LoopJoin { .. }));
    }

    fn split_of(e: &Expr) -> ThetaSplit {
        match compile(e) {
            PhysPlan::LoopJoin { split, .. } => split,
            other => panic!("{}", other.explain()),
        }
    }

    #[test]
    fn loop_join_predicates_split_by_side() {
        let l = singleton()
            .map("a", Scalar::int(1))
            .map("x", Scalar::int(2));
        let r = singleton().map("b", Scalar::int(3));
        let floor = Scalar::cmp(CmpOp::Le, Scalar::attr("b"), Scalar::int(5));
        let outer = Scalar::cmp(CmpOp::Gt, Scalar::attr("o"), Scalar::int(0));
        let left = Scalar::cmp(CmpOp::Ne, Scalar::attr("x"), Scalar::int(3));
        let range = Scalar::attr_cmp(CmpOp::Lt, "a", "b");
        let ne = Scalar::attr_cmp(CmpOp::Ne, "x", "b");
        let pred = Scalar::conjoin(vec![
            floor.clone(),
            left.clone(),
            range.clone(),
            outer.clone(),
            ne.clone(),
        ]);
        let split = split_of(&l.clone().antijoin(r.clone(), pred));
        // Constants and outer-scope attributes (`o`) count as neither
        // side: they filter the build with the right-only part.
        assert_eq!(split.right_only, Some(floor.clone().and(outer)));
        assert_eq!(split.left_only, Some(left));
        assert_eq!(split.pair, Some(range.and(ne)));
        let (key, probes) = split.range.expect("a < b is a range conjunct");
        assert_eq!(key, Sym::new("b"));
        assert_eq!(probes.len(), 1, "≠ is no range");
        assert_eq!(probes[0].op, CmpOp::Lt);

        // The q8 shape: nothing left to evaluate per pair.
        let q8 = split_of(&l.antijoin(r, floor.clone()));
        assert_eq!(q8.right_only, Some(floor));
        assert!(q8.left_only.is_none() && q8.pair.is_none() && q8.range.is_none());
    }

    #[test]
    fn split_is_declined_when_skipped_evaluations_could_show() {
        let l = singleton().map("a", Scalar::int(1));
        let r = singleton().map("b", Scalar::int(3));
        let floor = Scalar::cmp(CmpOp::Le, Scalar::attr("b"), Scalar::int(5));
        let whole = |s: &ThetaSplit, pred: &Scalar| {
            s.pair.as_ref() == Some(pred)
                && s.right_only.is_none()
                && s.left_only.is_none()
                && s.range.is_none()
        };
        // Arithmetic can raise an error: not replay-safe.
        let sum = Scalar::Arith(
            nal::ArithOp::Add,
            Box::new(Scalar::attr("a")),
            Box::new(Scalar::int(1)),
        );
        let pred = floor
            .clone()
            .and(Scalar::cmp(CmpOp::Lt, sum, Scalar::attr("b")));
        assert!(whole(
            &split_of(&l.clone().join(r.clone(), pred.clone())),
            &pred
        ));
        // A side whose schema is not statically known could bind `b`.
        let unknown = Expr::AttrRel(Sym::new("g"));
        assert!(whole(&split_of(&unknown.join(r, floor.clone())), &floor));
    }

    #[test]
    fn grouping_picks_hash_for_equality() {
        let e = singleton().map("a", Scalar::int(1)).group_unary(
            "g",
            &["a"],
            CmpOp::Eq,
            nal::GroupFn::count(),
        );
        assert!(matches!(compile(&e), PhysPlan::HashGroupUnary { .. }));
        let e = singleton().map("a", Scalar::int(1)).group_unary(
            "g",
            &["a"],
            CmpOp::Lt,
            nal::GroupFn::count(),
        );
        assert!(matches!(compile(&e), PhysPlan::ThetaGroupUnary { .. }));
    }

    #[test]
    fn explain_renders_tree() {
        let l = singleton().map("a", Scalar::int(1));
        let r = singleton().map("b", Scalar::int(2));
        let j = l.join(r, Scalar::attr_cmp(CmpOp::Eq, "a", "b"));
        let ex = compile(&j).explain();
        assert!(ex.starts_with("HashJoin"), "{ex}");
        assert!(ex.contains("\n  Map"), "{ex}");
    }
}
