//! Physical plans, compiled from logical NAL expressions.
//!
//! The compiler mirrors the paper's implementation notes (§2, "one word
//! on implementation"). ×, ⋈, ⋉, ▷ and ⟕ are one operator,
//! [`PhysPlan::Join`], whose [`JoinKind`] says what a left tuple and its
//! matches emit and whose [`JoinOn`] is the build strategy picked from
//! the predicate: equality predicates hash the build side
//! order-preservingly (our in-memory stand-in for the Grace-hash-join +
//! re-sort the authors used, with the order-preserving hash join of
//! Claussen et al. as the conceptual model); any other predicate — × is
//! the empty one — keeps the definitional loop's *result* but not its
//! pair loop: it is split by side here ([`ThetaSplit`]) so that
//! execution decides one-sided conjuncts once and probes an ordered
//! build for range conjuncts ([`crate::theta`]). Grouping is one
//! operator per arity whatever its θ — [`PhysPlan::Group`] and
//! [`PhysPlan::NestJoin`] — which finds a group's members by hash for
//! `=` and by scan otherwise. EXPLAIN names still say which strategy
//! runs (`HashSemiJoin`, `LoopJoin`, `Cross`, `ThetaGroup`, …). Scalar
//! subscripts are evaluated with the reference evaluator's scalar
//! semantics; the nested algebra blocks inside them — what makes a
//! *nested plan* nested — are compiled here, with the plan, and run on
//! the engine ([`crate::nested`]).
//!
//! **One attribute analysis.** What an operator's tuples carry — §2's
//! A(e), over the compiled plan — is one per-node transfer function,
//! [`PhysPlan::carries`], folded bottom-up by [`PhysPlan::schema`]: a
//! [`Schema`] of the attributes every tuple carries (`sure`, after
//! `keep` and Π) and an upper bound of what any can carry (`may`, none
//! when a relation below has no static schema). The θ-split and the
//! hash-key choice here, the dead-attribute pass, the nested blocks'
//! sharing and laziness rules and the index tracer all ask it; nothing
//! is stored on the nodes, which passes rewrite after compilation.

use nal::expr::attrs::attr_set;
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

/// What a node's tuples carry ([`PhysPlan::carries`]). Each set is a
/// list without repeats, in no particular order: an operator's tuples
/// carry a handful of attributes, and a compilation folds the sets of
/// every join side.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    /// The attributes every emitted tuple carries.
    pub sure: Vec<Sym>,
    /// An upper bound of the attributes a tuple can carry; `None` when
    /// some relation below — build sides included — has no static
    /// schema: `rel(a)`, an empty literal, a μ whose nested schema is
    /// unknown.
    pub may: Option<Vec<Sym>>,
}

impl Schema {
    /// Apply `f` to both sets.
    fn map(mut self, f: impl Fn(&mut Vec<Sym>)) -> Schema {
        f(&mut self.sure);
        self.may.iter_mut().for_each(&f);
        self
    }

    /// With `a` bound on every tuple.
    fn with(self, a: Sym) -> Schema {
        self.map(|set| extend(set, &[a]))
    }

    /// Unknown in `may` when `build`, a side joined for its matches
    /// only, is.
    fn probing(self, build: &Schema) -> Schema {
        Schema {
            may: self.may.filter(|_| build.may.is_some()),
            ..self
        }
    }

    /// Only the attributes `attrs` lists.
    fn only(self, attrs: &[Sym]) -> Schema {
        self.map(|set| set.retain(|a| attrs.contains(a)))
    }

    /// Only what `keep` lets through.
    fn kept(self, keep: &Keep) -> Schema {
        match keep.attrs() {
            None => self,
            Some(only) => self.only(only),
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
        /// `A(right) \ {g}`, the attributes padded with NULL
        /// (precomputed).
        pad: Vec<Sym>,
    },
}

/// How a [`PhysPlan::Join`] finds a probe tuple's matches: the build
/// strategy §2's implementation note picks from the predicate.
#[derive(Clone, Debug)]
pub enum JoinOn {
    /// Equi-pairs: the build is bucketed by `right_keys` and a probe
    /// looks up its `left_keys`; bucket order is right arrival order.
    Hash {
        /// Probe-side key attributes (parallel to `right_keys`).
        left_keys: Vec<Sym>,
        /// Build-side key attributes.
        right_keys: Vec<Sym>,
        /// Non-equi conjuncts evaluated per bucket match.
        residual: Option<Scalar>,
        /// The residual's nested blocks, compiled.
        blocks: Blocks,
    },
    /// Any other predicate, probed by the θ-probe ([`crate::theta`]).
    /// × is the empty predicate: a split with no part.
    Theta {
        /// The join predicate (`true` for ×).
        pred: Scalar,
        /// `pred`'s conjuncts by the side they mention (what executes).
        split: ThetaSplit,
    },
}

impl JoinOn {
    /// Is this ×?
    pub fn is_cross(&self) -> bool {
        matches!(self, JoinOn::Theta { split, .. } if split.is_empty())
    }

    /// The predicate beside the hashed keys — a hash join's residual, a
    /// θ-join's whole predicate: what the analyses of a node's scalar
    /// read.
    pub fn pred(&self) -> Option<&Scalar> {
        match self {
            JoinOn::Hash { residual, .. } => residual.as_ref(),
            JoinOn::Theta { pred, .. } => Some(pred),
        }
    }

    /// The hashed key attributes of the probe and the build side (none
    /// for a θ-join).
    pub fn keys(&self) -> (&[Sym], &[Sym]) {
        match self {
            JoinOn::Hash {
                left_keys,
                right_keys,
                ..
            } => (left_keys, right_keys),
            JoinOn::Theta { .. } => (&[], &[]),
        }
    }

    /// The compiled nested blocks of [`Self::pred`].
    pub(crate) fn blocks(&self) -> &Blocks {
        match self {
            JoinOn::Hash { blocks, .. } => blocks,
            JoinOn::Theta { split, .. } => &split.blocks,
        }
    }

    /// The operator name of a join of `kind` with this strategy.
    pub(crate) fn op_name(&self, kind: &JoinKind) -> &'static str {
        match (self, kind) {
            (JoinOn::Hash { .. }, JoinKind::Inner) => "HashJoin",
            (JoinOn::Hash { .. }, JoinKind::Semi) => "HashSemiJoin",
            (JoinOn::Hash { .. }, JoinKind::Anti) => "HashAntiJoin",
            (JoinOn::Hash { .. }, JoinKind::Outer { .. }) => "HashOuterJoin",
            (JoinOn::Theta { .. }, JoinKind::Inner) if self.is_cross() => "Cross",
            (JoinOn::Theta { .. }, JoinKind::Inner) => "LoopJoin",
            (JoinOn::Theta { .. }, JoinKind::Semi) => "LoopSemiJoin",
            (JoinOn::Theta { .. }, JoinKind::Anti) => "LoopAntiJoin",
            (JoinOn::Theta { .. }, JoinKind::Outer { .. }) => "LoopOuterJoin",
        }
    }
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
    /// ×, ⋈, ⋉, ▷ and ⟕: build on the right, probe the left in order;
    /// every join emits the definitional nested loop's sequence.
    Join {
        /// Probe side.
        left: Box<PhysPlan>,
        /// Build side, materialized once.
        right: Box<PhysPlan>,
        /// The build strategy and the predicate it probes.
        on: JoinOn,
        /// How matches are consumed.
        kind: JoinKind,
        /// What of the joined tuple is emitted (inner/outer joins only).
        keep: Keep,
    },
    /// Γ — unary grouping, first-occurrence key order: one hash pass
    /// for `=`, a scan per distinct key for another θ.
    Group {
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
        /// The nested blocks of `f`'s filter, compiled.
        blocks: Blocks,
    },
    /// Binary Γ (the nest join): each left tuple receives the aggregate
    /// of its group of right tuples, found by hash lookup for `=` and by
    /// a scan for another θ.
    NestJoin {
        /// The kept side (each tuple receives its group).
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
        /// The nested blocks of `f`'s filter, compiled.
        blocks: Blocks,
        /// What of the built tuple is emitted.
        keep: Keep,
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
            PhysPlan::Join { on, kind, .. } => on.op_name(kind),
            PhysPlan::Group { theta, .. } => match theta {
                nal::CmpOp::Eq => "HashGroup",
                _ => "ThetaGroup",
            },
            PhysPlan::NestJoin { theta, .. } => match theta {
                nal::CmpOp::Eq => "HashNestJoin",
                _ => "ThetaNestJoin",
            },
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
            PhysPlan::NestJoin { g, keep, .. } => (Some(*g), keep, false),
            PhysPlan::Join { keep, .. } => (None, keep, false),
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
    pub fn blocks(&self) -> Option<&Blocks> {
        match self {
            PhysPlan::Select { blocks, .. }
            | PhysPlan::Map { blocks, .. }
            | PhysPlan::UnnestMap { blocks, .. }
            | PhysPlan::Group { blocks, .. }
            | PhysPlan::NestJoin { blocks, .. } => Some(blocks),
            PhysPlan::Join { on, .. } => Some(on.blocks()),
            PhysPlan::IndexJoin { recipe, .. } => Some(&recipe.blocks),
            _ => None,
        }
    }

    /// The subscript whose nested blocks [`Self::blocks`] holds: a σ's
    /// or a join's predicate, a χ's or Υ's value, a Γ's filter.
    pub(crate) fn subscript(&self) -> Option<&Scalar> {
        match self {
            PhysPlan::Select { pred, .. } => Some(pred),
            PhysPlan::Map { value, .. } | PhysPlan::UnnestMap { value, .. } => Some(value),
            PhysPlan::Join { on, .. } => on.pred(),
            PhysPlan::Group { f, .. } | PhysPlan::NestJoin { f, .. } => f.filter.as_deref(),
            PhysPlan::IndexJoin { recipe, .. } => recipe.residual.as_ref(),
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
            | PhysPlan::Group { input, .. }
            | PhysPlan::Unnest { input, .. }
            | PhysPlan::UnnestMap { input, .. }
            | PhysPlan::XiSimple { input, .. }
            | PhysPlan::XiGroup { input, .. }
            | PhysPlan::IndexScan { input, .. } => [Some(input), None],
            PhysPlan::IndexJoin { left, .. } => [Some(left), None],
            PhysPlan::Join { left, right, .. } | PhysPlan::NestJoin { left, right, .. } => {
                [Some(left), Some(right)]
            }
        }
    }

    /// Visit the plan's nodes in pre-order, inputs left to right (not
    /// the nested blocks of subscripts).
    pub fn walk<'p>(&'p self, visit: &mut impl FnMut(&'p PhysPlan)) {
        visit(self);
        for input in self.inputs().into_iter().flatten() {
            input.walk(visit);
        }
    }

    /// What this node's tuples carry, folded bottom-up with
    /// [`Self::carries`].
    pub fn schema(&self) -> Schema {
        self.carries(self.inputs().map(|input| input.map(PhysPlan::schema)))
    }

    /// Is this a relation without a static schema: `rel(a)`, an empty
    /// literal, a μ whose nested schema is unknown? No [`Schema::may`]
    /// is known above one.
    pub(crate) fn unbounded(&self) -> bool {
        match self {
            PhysPlan::AttrRel(_) => true,
            PhysPlan::Literal(rows) => rows.is_empty(),
            PhysPlan::Unnest { inner_attrs, .. } => inner_attrs.is_empty(),
            _ => false,
        }
    }

    /// What this node's tuples carry, given its inputs' schemas (in
    /// [`Self::children`] order): the one transfer function every pass
    /// that asks "what does this input carry?" goes through. It takes
    /// the inputs' sets over, so a fold copies none of them.
    pub fn carries(&self, [l, r]: [Option<Schema>; 2]) -> Schema {
        // A leaf has no inputs; the defaults go unread.
        let (l, mut r) = (l.unwrap_or_default(), r.unwrap_or_default());
        let mut schema = match self {
            PhysPlan::Singleton => Schema {
                sure: Vec::new(),
                may: Some(Vec::new()),
            },
            PhysPlan::Literal(rows) => {
                let mut may = Vec::new();
                for (a, _) in rows.iter().flat_map(|t| t.iter()) {
                    extend(&mut may, &[a]);
                }
                let sure = may
                    .iter()
                    .filter(|a| rows.iter().all(|t| t.get(**a).is_some()));
                Schema {
                    sure: sure.copied().collect(),
                    may: Some(may),
                }
            }
            PhysPlan::AttrRel(_) => Schema::default(),
            PhysPlan::Select { .. } | PhysPlan::XiSimple { .. } | PhysPlan::IndexJoin { .. } => l,
            PhysPlan::Project { op, .. } => l.map(|set| project(op, set)),
            PhysPlan::Map { attr, keep, .. }
            | PhysPlan::UnnestMap { attr, keep, .. }
            | PhysPlan::IndexScan { attr, keep, .. } => l.with(*attr).kept(keep),
            PhysPlan::Unnest {
                input,
                attr,
                inner_attrs,
                keep,
                ..
            } => {
                let mut s = l.map(|set| set.retain(|a| a != attr));
                // Each nested tuple of a lifted sequence carries its one
                // attribute, and so does the padding of an empty one.
                if lifted(input, *attr) {
                    extend(&mut s.sure, inner_attrs);
                }
                (s.may.iter_mut()).for_each(|may| extend(may, inner_attrs));
                s.kept(keep)
            }
            // A build side counts towards `may`.
            PhysPlan::Join {
                kind: JoinKind::Semi | JoinKind::Anti,
                ..
            } => l.probing(&r),
            PhysPlan::Join { kind, keep, .. } => {
                if let JoinKind::Outer { g, pad, .. } = kind {
                    // An unmatched tuple carries the padding and `g`, not
                    // the right side's other attributes.
                    r.sure.retain(|a| pad.contains(a) || a == g);
                    if let Some(may) = &mut r.may {
                        extend(may, pad);
                        extend(may, &[*g]);
                    }
                }
                let may = l.may.zip(r.may).map(|(mut may, r)| {
                    extend(&mut may, &r);
                    may
                });
                let mut sure = l.sure;
                extend(&mut sure, &r.sure);
                Schema { sure, may }.kept(keep)
            }
            PhysPlan::Group { g, by, .. } => l.only(by).with(*g),
            PhysPlan::NestJoin { g, keep, .. } => l.probing(&r).with(*g).kept(keep),
            PhysPlan::XiGroup { by, .. } => l.only(by),
        };
        if self.unbounded() {
            schema.may = None;
        }
        schema
    }

    /// [`Self::children`] by mutable reference — what the rewrite passes
    /// walk.
    pub(crate) fn children_mut(&mut self) -> Vec<&mut PhysPlan> {
        match self {
            PhysPlan::Singleton | PhysPlan::Literal(_) | PhysPlan::AttrRel(_) => vec![],
            PhysPlan::Select { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Map { input, .. }
            | PhysPlan::Group { input, .. }
            | PhysPlan::Unnest { input, .. }
            | PhysPlan::UnnestMap { input, .. }
            | PhysPlan::XiSimple { input, .. }
            | PhysPlan::XiGroup { input, .. }
            | PhysPlan::IndexScan { input, .. } => vec![input],
            PhysPlan::IndexJoin { left, .. } => vec![left],
            PhysPlan::Join { left, right, .. } | PhysPlan::NestJoin { left, right, .. } => {
                vec![left, right]
            }
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
        Expr::Cross { left, right } => PhysPlan::Join {
            left: input(left),
            right: input(right),
            // The empty predicate.
            on: JoinOn::Theta {
                pred: Scalar::conjoin(Vec::new()),
                split: ThetaSplit::default(),
            },
            kind: JoinKind::Inner,
            keep: Keep::default(),
        },
        Expr::Join { left, right, pred }
        | Expr::SemiJoin { left, right, pred }
        | Expr::AntiJoin { left, right, pred }
        | Expr::OuterJoin {
            left, right, pred, ..
        } => {
            let kind = match e {
                Expr::Join { .. } => JoinKind::Inner,
                Expr::SemiJoin { .. } => JoinKind::Semi,
                Expr::AntiJoin { .. } => JoinKind::Anti,
                Expr::OuterJoin { g, default, .. } => JoinKind::Outer {
                    g: *g,
                    default: default.clone(),
                    pad: attr_set(right).into_iter().filter(|a| a != g).collect(),
                },
                _ => unreachable!("matched above"),
            };
            join(input(left), input(right), pred, kind, block)
        }
        Expr::GroupUnary {
            input: i,
            g,
            by,
            theta,
            f,
        } => PhysPlan::Group {
            input: input(i),
            g: *g,
            by: by.clone(),
            theta: *theta,
            f: f.clone(),
            blocks: filter_blocks(f, block),
        },
        Expr::GroupBinary {
            left,
            right,
            g,
            left_on,
            theta,
            right_on,
            f,
        } => PhysPlan::NestJoin {
            left: input(left),
            right: input(right),
            g: *g,
            left_on: left_on.clone(),
            theta: *theta,
            right_on: right_on.clone(),
            f: f.clone(),
            blocks: filter_blocks(f, block),
            keep: Keep::default(),
        },
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
/// the hash strategy when there is a pair, the θ strategy otherwise.
fn join(
    left: Box<PhysPlan>,
    right: Box<PhysPlan>,
    pred: &Scalar,
    kind: JoinKind,
    block: fn(&Expr) -> PhysPlan,
) -> PhysPlan {
    let (l, r) = (&left.schema(), &right.schema());
    // An equi-pair is a hash key only when every tuple of each side
    // carries its attribute: a missing key would match nothing where the
    // reference fails on the comparison.
    let key = |c: &Scalar| match c {
        Scalar::Cmp(nal::CmpOp::Eq, x, y) => match (x.as_ref(), y.as_ref()) {
            (Scalar::Attr(x), Scalar::Attr(y)) if l.sure.contains(x) && r.sure.contains(y) => {
                Some((*x, *y))
            }
            (Scalar::Attr(x), Scalar::Attr(y)) if r.sure.contains(x) && l.sure.contains(y) => {
                Some((*y, *x))
            }
            _ => None,
        },
        _ => None,
    };
    let conjuncts = pred.conjuncts();
    let (left_keys, right_keys): (Vec<Sym>, Vec<Sym>) =
        conjuncts.iter().filter_map(|c| key(c)).unzip();
    let on = if left_keys.is_empty() {
        JoinOn::Theta {
            pred: pred.clone(),
            split: ThetaSplit::of(pred, l, r, Blocks::of(pred, block)),
        }
    } else {
        let residual: Vec<Scalar> = (conjuncts.into_iter())
            .filter(|c| key(c).is_none())
            .cloned()
            .collect();
        let residual = (!residual.is_empty()).then(|| Scalar::conjoin(residual));
        JoinOn::Hash {
            left_keys,
            right_keys,
            blocks: residual
                .as_ref()
                .map_or(Blocks::NONE, |p| Blocks::of(p, block)),
            residual,
        }
    };
    PhysPlan::Join {
        left,
        right,
        on,
        kind,
        keep: Keep::default(),
    }
}

/// Is `attr` bound below `plan` by a χ that lifts each item of a
/// sequence into a one-attribute tuple (`e[a]`)?
fn lifted(plan: &PhysPlan, attr: Sym) -> bool {
    match plan {
        PhysPlan::Map {
            input,
            attr: a,
            value,
            ..
        } => match *a == attr {
            true => matches!(value, Scalar::Lift(..)),
            false => lifted(input, attr),
        },
        PhysPlan::UnnestMap { input, attr: a, .. } | PhysPlan::IndexScan { input, attr: a, .. } => {
            *a != attr && lifted(input, attr)
        }
        PhysPlan::Select { input, .. } => lifted(input, attr),
        _ => false,
    }
}

/// Add `more` to the set `set`, skipping what it holds.
fn extend(set: &mut Vec<Sym>, more: &[Sym]) {
    for a in more {
        if !set.contains(a) {
            set.push(*a);
        }
    }
}

/// What a projection leaves of the attribute set `attrs`.
fn project(op: &ProjOp, attrs: &mut Vec<Sym>) {
    let renamed = |pairs: &[(Sym, Sym)], a: Sym| {
        let pair = pairs.iter().find(|(_, old)| *old == a);
        pair.map_or(a, |(new, _)| *new)
    };
    match op {
        ProjOp::Cols(cols) | ProjOp::DistinctCols(cols) => attrs.retain(|a| cols.contains(a)),
        ProjOp::Drop(cols) => attrs.retain(|a| !cols.contains(a)),
        ProjOp::Rename(pairs) => {
            let old = std::mem::take(attrs);
            for a in old {
                extend(attrs, &[renamed(pairs, a)]);
            }
        }
        ProjOp::DistinctRename(pairs) => {
            *attrs = (pairs.iter())
                .filter(|(_, old)| attrs.contains(old))
                .map(|(new, _)| *new)
                .collect()
        }
    }
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
        let PhysPlan::Join {
            on:
                JoinOn::Hash {
                    residual,
                    left_keys,
                    ..
                },
            ..
        } = &plan
        else {
            panic!("{}", plan.explain())
        };
        assert!(residual.is_some());
        assert_eq!(left_keys, &vec![Sym::new("a")]);
    }

    /// What xqbench and EXPLAIN read of a join: each of the nine shapes
    /// keeps its name, its children's order and its detail text.
    #[test]
    fn join_shapes_keep_their_names() {
        let l = singleton()
            .map("a", Scalar::int(1))
            .map("x", Scalar::int(2));
        let r = Expr::Literal(vec![nal::Tuple::from_pairs(vec![
            (Sym::new("b"), Value::Int(3)),
            (Sym::new("y"), Value::Int(4)),
        ])]);
        let eq = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
        let lt = Scalar::attr_cmp(CmpOp::Lt, "a", "b");
        let range = Expr::Literal(vec![nal::Tuple::singleton(Sym::new("w"), Value::Int(5))])
            .project_syms(vec![Sym::new("w")])
            .select(Scalar::cmp(CmpOp::Ge, Scalar::attr("w"), Scalar::int(0)));
        // A quantifier over an invariant range: its block is spooled,
        // and indexed on `q > y`.
        let quant = Scalar::Exists {
            var: Sym::new("q"),
            range: Box::new(range),
            pred: Box::new(Scalar::attr_cmp(CmpOp::Gt, "q", "y")),
        };
        let (xy, xg) = (
            |e: Expr| e.project(&["x", "y"]),
            |e: Expr| e.project(&["x", "g"]),
        );
        let outer = |p: &Scalar| {
            l.clone()
                .outerjoin(r.clone(), p.clone(), "g", Value::Int(0))
        };
        let kept = " keep{x,y} absorbed Π[x,y]";
        let padded = " keep{g,x} absorbed Π[x,g]";
        let shapes = [
            (xy(l.clone().cross(r.clone())), "Cross", kept),
            (xy(l.clone().join(r.clone(), eq.clone())), "HashJoin", kept),
            (
                l.clone().semijoin(r.clone(), eq.clone().and(quant.clone())),
                "HashSemiJoin",
                " shared{σ ∃ indexed(w >)}",
            ),
            (
                l.clone().antijoin(r.clone(), eq.clone()),
                "HashAntiJoin",
                "",
            ),
            (xg(outer(&eq)), "HashOuterJoin", padded),
            (xy(l.clone().join(r.clone(), lt.clone())), "LoopJoin", kept),
            (
                l.clone().semijoin(r.clone(), lt.clone().and(quant)),
                "LoopSemiJoin",
                " shared{σ ∃ indexed(w >)}",
            ),
            (
                l.clone().antijoin(r.clone(), lt.clone()),
                "LoopAntiJoin",
                "",
            ),
            (xg(outer(&lt)), "LoopOuterJoin", padded),
        ];
        for (e, name, detail) in shapes {
            let plan = compile(&e);
            let children: Vec<_> = plan.children().iter().map(|c| c.op_name()).collect();
            assert_eq!(plan.op_name(), name, "{e}");
            assert_eq!(children, ["Map", "Literal"], "{name}");
            assert_eq!(plan.detail(), detail, "{name}");
        }
    }

    /// A semi join of either strategy over document scans still becomes
    /// an index join.
    #[test]
    fn semi_joins_of_both_strategies_convert_to_index_joins() {
        let mut cat = xmldb::Catalog::new();
        cat.register(xmldb::gen::gen_bib(&xmldb::gen::BibConfig {
            books: 10,
            ..Default::default()
        }));
        let titles = xpath::parse_path("//book/title").unwrap();
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(titles.clone()));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(titles))
            .project(&["t2"]);
        for (op, scan, index) in [
            (CmpOp::Eq, "HashSemiJoin", "IndexSemiJoin"),
            (CmpOp::Lt, "LoopSemiJoin", "IndexRangeSemiJoin"),
        ] {
            let e = probe
                .clone()
                .semijoin(build.clone(), Scalar::attr_cmp(op, "t1", "t2"));
            assert_eq!(compile(&e).op_name(), scan);
            let plan = crate::access::apply_indexes(compile(&e), &cat);
            assert_eq!(plan.op_name(), index, "{}", plan.explain());
        }
    }

    fn split_of(e: &Expr) -> ThetaSplit {
        match compile(e) {
            PhysPlan::Join {
                on: JoinOn::Theta { split, .. },
                ..
            } => split,
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
        // A row of the right side may lack `b`: `b ≤ 5` fails on it.
        let ragged = Expr::Literal(vec![
            nal::Tuple::singleton(Sym::new("b"), Value::Int(3)),
            nal::Tuple::singleton(Sym::new("y"), Value::Int(4)),
        ]);
        assert!(whole(&split_of(&l.join(ragged, floor.clone())), &floor));
    }

    #[test]
    fn grouping_picks_hash_for_equality() {
        let group = |theta| {
            let e = singleton().map("a", Scalar::int(1));
            compile(&e.group_unary("g", &["a"], theta, nal::GroupFn::count()))
        };
        assert_eq!(group(CmpOp::Eq).op_name(), "HashGroup");
        assert_eq!(group(CmpOp::Lt).op_name(), "ThetaGroup");
        let nest = |theta| {
            let (l, r) = (
                singleton().map("a", Scalar::int(1)),
                singleton().map("b", Scalar::int(2)),
            );
            compile(&l.group_binary(r, "g", &["a"], theta, &["b"], nal::GroupFn::count()))
        };
        assert_eq!(nest(CmpOp::Eq).op_name(), "HashNestJoin");
        assert_eq!(nest(CmpOp::Ge).op_name(), "ThetaNestJoin");
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
