//! Nested algebra blocks — the quantifier ranges and aggregate inputs
//! inside subscripts, which is what makes a *nested* plan nested — run
//! on the engine.
//!
//! [`crate::compile`] compiles every block of a subscript once, with the
//! plan that carries it ([`Blocks`], kept next to the subscript in its
//! [`PhysPlan`] node), so a cached plan keeps its blocks. Per outer tuple
//! the block is lowered under a two-level scope — the outer tuple's
//! attributes, then whatever scope that tuple was evaluated in — and
//! pulled, so no operator of the block copies the outer tuple into its
//! rows; the scalar semantics (`nal::eval::eval_scalar`, quantifier
//! binding and decision included) is the reference evaluator's own.
//!
//! **Lazy only where it cannot be observed.** A quantifier stops at its
//! first witness (∃) or counterexample (∀). Its range is pulled only
//! that far when nothing the rest of the block would do can be seen:
//! every subscript in it is [`Scalar::replay_safe`] (no nested algebra,
//! no erroring arithmetic or `decimal()` — the totality assumption the
//! index conversions make), and it has no Ξ, no μ and no `rel(a)`.
//! Any other range is drained first, exactly as `nal::eval` evaluates
//! it, and decided over the drained rows — so an error the rest of the
//! range raises, and every Ξ byte it writes, come out as in the
//! reference. An aggregate always reads its whole input.
//!
//! **Shared subtrees: the invariant part runs once.** Most of a block
//! reads nothing of the outer tuple — `Υ[b2: d2//book](χ[d2: doc(…)](□))`
//! under a correlated σ — and re-running it per outer tuple re-walks the
//! document each time. At compile time each block records its *shared
//! subtrees*: the maximal subtrees that read no attribute from outside
//! themselves and write no Ξ, neither directly nor in the blocks of their
//! own subscripts (Rao & Ross's invariants). A bare `□` or literal is
//! not worth sharing. "Reads" is decided per operator position: what its
//! subscript reads ([`Scalar`] attributes, a quantifier's variable and
//! an aggregate's members excluded, its blocks' own reads included)
//! minus what every tuple of its input is sure to carry, after `keep`
//! and Π — so `rel(a)`, and an attribute a Π dropped that the outer
//! scope also binds, count as outer reads. An operator the analysis does
//! not model counts as correlated.
//!
//! The cursor that evaluates a subscript owns one spool per shared
//! subtree of the subscript's blocks (`Spooled`). The first outer tuple that
//! reaches a spool lowers the subtree under the empty scope; rows are
//! pulled from it on demand, kept, and replayed to every later outer
//! tuple, in the subtree's own order. A lazy range therefore never pulls
//! further than the furthest any outer tuple needed, a drained one fills
//! the spool on its first use, an error surfaces at the pull that raised
//! it, and an empty outer relation never starts the subtree. Spools live
//! and die with their cursor — with one execution: nothing is kept on
//! the plan, which cached plans share across snapshots and threads.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::ptr;
use std::sync::Arc;

use nal::eval::scalar::{aggregate, eval_scalar, truthy, Nested};
use nal::eval::{EvalCtx, EvalError, EvalResult, Scope};
use nal::expr::visit;
use nal::{Expr, GroupFn, ProjOp, Scalar, Seq, Sym, Tuple, Value};

use crate::pipeline::cursor::Materialize;
use crate::pipeline::{drain, lower, BoxCursor, Cursor, Lowering};
use crate::plan::{JoinKind, Keep, PhysPlan};

/// The nested blocks of one subscript, compiled, in the order
/// [`visit::find_nested_expr`] reaches them. Empty — nothing allocated,
/// nothing consulted — for a subscript without nested algebra; shared,
/// not copied, by the plan's clones.
#[derive(Clone, Debug, Default)]
pub struct Blocks(Option<Arc<[Block]>>);

/// One compiled block.
#[derive(Clone, Debug)]
pub struct Block {
    /// The block's plan, compiled as the plan that carries it was:
    /// pruned by [`crate::compile`], not by `compile_unpruned`.
    pub plan: PhysPlan,
    /// May a quantifier pull it only as far as its decision?
    pub lazy: bool,
    /// The pre-order positions of the roots of its shared subtrees.
    shared: Box<[usize]>,
}

impl Block {
    /// The roots of the block's shared subtrees, in pre-order.
    pub fn shared(&self) -> Vec<&PhysPlan> {
        let mut roots = Vec::with_capacity(self.shared.len());
        if !self.shared.is_empty() {
            let mut at = 0;
            preorder(&self.plan, &mut |node| {
                if self.shared.contains(&at) {
                    roots.push(node);
                }
                at += 1;
            });
        }
        roots
    }
}

/// Visit `plan`'s nodes in pre-order, inputs left to right.
fn preorder<'p>(plan: &'p PhysPlan, visit: &mut impl FnMut(&'p PhysPlan)) {
    visit(plan);
    for input in plan.inputs().into_iter().flatten() {
        preorder(input, visit);
    }
}

impl Blocks {
    /// The blocks of a subscript without nested algebra.
    pub(crate) const NONE: Blocks = Blocks(None);

    /// Compile the nested blocks of `s` with `compile`.
    pub(crate) fn of(s: &Scalar, compile: fn(&Expr) -> PhysPlan) -> Blocks {
        if !s.has_nested_expr() {
            return Blocks::NONE;
        }
        let mut blocks = Vec::new();
        visit::find_nested_expr(s, &mut |e| {
            let plan = compile(e);
            blocks.push(Block {
                shared: shared_subtrees(&plan),
                plan,
                lazy: unobservable(e),
            });
            false
        });
        Blocks(Some(blocks.into()))
    }

    /// The compiled blocks.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.0.iter().flat_map(|blocks| blocks.iter())
    }

    /// The blocks as one cursor evaluates them: with an empty spool per
    /// shared subtree.
    pub(crate) fn spooled(&self) -> Spooled<'_> {
        let spools = self.iter().flat_map(Block::shared).map(|node| Spool {
            node,
            filled: RefCell::default(),
        });
        Spooled {
            blocks: self,
            spools: spools.collect(),
        }
    }

    /// EXPLAIN's mark of the shared subtrees, each named by its root —
    /// ` shared{Υ[b2]}` — or nothing.
    pub(crate) fn mark(&self) -> String {
        let roots: Vec<String> = self.iter().flat_map(Block::shared).map(label).collect();
        match roots.is_empty() {
            true => String::new(),
            false => format!(" shared{{{}}}", roots.join(",")),
        }
    }
}

/// A shared subtree's root, as its mark names it.
fn label(root: &PhysPlan) -> String {
    match root {
        PhysPlan::Map { attr, .. } => format!("χ[{attr}]"),
        PhysPlan::UnnestMap { attr, .. } => format!("Υ[{attr}]"),
        PhysPlan::Unnest { attr, .. } => format!("μ[{attr}]"),
        PhysPlan::Select { .. } => "σ".to_string(),
        PhysPlan::Project { .. } => "Π".to_string(),
        other => other.op_name().to_string(),
    }
}

/// A subscript's compiled blocks as one cursor evaluates them, with a
/// spool per shared subtree that lives as long as the cursor.
pub(crate) struct Spooled<'p> {
    blocks: &'p Blocks,
    spools: Vec<Spool<'p>>,
}

/// One shared subtree's rows so far.
struct Spool<'p> {
    /// The subtree.
    node: &'p PhysPlan,
    filled: RefCell<Filled<'p>>,
}

#[derive(Default)]
struct Filled<'p> {
    /// The subtree's cursor, lowered on the first pull, dropped at its end.
    source: Option<BoxCursor<'p>>,
    /// Every row pulled from it, in order.
    rows: Vec<Tuple>,
    /// Has the source ended?
    done: bool,
}

impl Spooled<'static> {
    /// A subscript without nested algebra.
    pub(crate) const NONE: Spooled<'static> = Spooled {
        blocks: &Blocks::NONE,
        spools: Vec::new(),
    };
}

impl<'p> Spooled<'p> {
    /// `s`, the subscript these blocks were compiled for, over `row` in
    /// the scope `outer`.
    pub(crate) fn eval(
        &self,
        s: &Scalar,
        row: &Tuple,
        outer: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<Value> {
        eval_scalar(s, &Scope::Row(row, outer), &self.of_root(Some(s)), ctx)
    }

    /// [`Self::eval`] as a predicate.
    pub(crate) fn truthy(
        &self,
        s: &Scalar,
        row: &Tuple,
        outer: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<bool> {
        truthy(s, &Scope::Row(row, outer), &self.of_root(Some(s)), ctx)
    }

    /// `f` over a group, its filter — the subscript these blocks were
    /// compiled for — evaluated per member in `outer`.
    pub(crate) fn aggregate(
        &self,
        f: &GroupFn,
        group: &[Tuple],
        outer: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<Value> {
        aggregate(f, group, outer, &self.of_root(f.filter.as_deref()), ctx)
    }

    fn spool(&self, node: &PhysPlan) -> Option<&Spool<'p>> {
        self.spools.iter().find(|s| ptr::eq(s.node, node))
    }

    fn of_root<'a>(&'a self, root: Option<&'a Scalar>) -> Compiled<'a, 'p> {
        Compiled {
            root,
            spooled: self,
        }
    }
}

/// What lowering a block asks of the blocks it belongs to: which of its
/// nodes are shared subtrees, and a cursor replaying one.
pub(crate) trait Replays {
    /// Is `node` a shared subtree?
    fn spools(&self, node: &PhysPlan) -> bool;
    /// A cursor over `node`'s spool, if it is a shared subtree.
    fn replay(&self, node: &PhysPlan) -> Option<BoxCursor<'_>>;
}

impl Replays for Spooled<'_> {
    fn spools(&self, node: &PhysPlan) -> bool {
        self.spool(node).is_some()
    }

    fn replay(&self, node: &PhysPlan) -> Option<BoxCursor<'_>> {
        let spool = self.spool(node)?;
        Some(Box::new(Replay { spool, at: 0 }))
    }
}

/// One outer tuple's pass over a spool: the rows already pulled, then
/// whatever the subtree produces next, kept for the passes after it.
/// Unmetered — the subtree's own cursors count each row once.
struct Replay<'s, 'p> {
    spool: &'s Spool<'p>,
    at: usize,
}

impl Cursor for Replay<'_, '_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        let filled = &mut *self.spool.filled.borrow_mut();
        if self.at == filled.rows.len() && !filled.done {
            let node = self.spool.node;
            let source = filled
                .source
                .get_or_insert_with(|| lower(node, &Scope::Empty));
            match source.next(ctx)? {
                Some(t) => filled.rows.push(t),
                None => {
                    filled.done = true;
                    filled.source = None;
                }
            }
        }
        let row = filled.rows.get(self.at).cloned();
        self.at += usize::from(row.is_some());
        Ok(row)
    }

    fn op_name(&self) -> &'static str {
        "Replay"
    }
}

/// A subscript's compiled blocks as `eval_scalar` reaches them: a block
/// is found by its position among the subscript's nested expressions.
struct Compiled<'a, 'p> {
    /// The subscript (none: a group function without a filter).
    root: Option<&'a Scalar>,
    spooled: &'a Spooled<'p>,
}

impl Compiled<'_, '_> {
    fn block(&self, block: &Expr) -> EvalResult<&Block> {
        let mut at = 0;
        let found = self.root.is_some_and(|root| {
            visit::find_nested_expr(root, &mut |e| {
                let here = ptr::eq(e, block);
                at += usize::from(!here);
                here
            })
        });
        found
            .then(|| self.spooled.blocks.iter().nth(at))
            .flatten()
            .ok_or_else(|| EvalError::new(format!("nested block not compiled: {block}")))
    }

    /// `block` lowered under `scope`, its shared subtrees replayed.
    fn lower<'s>(&'s self, block: &'s Block, scope: &'s Scope<'s>) -> BoxCursor<'s> {
        Lowering {
            env: scope,
            replays: Some(self.spooled),
        }
        .lower(&block.plan)
    }
}

impl Nested for Compiled<'_, '_> {
    fn rows(&self, block: &Expr, scope: &Scope<'_>, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
        let block = self.block(block)?;
        drain(self.lower(block, scope).as_mut(), ctx)
    }

    fn decide(
        &self,
        block: &Expr,
        scope: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
        each: &mut dyn FnMut(Tuple, &mut EvalCtx<'_>) -> EvalResult<bool>,
    ) -> EvalResult<()> {
        let block = self.block(block)?;
        let mut range = self.lower(block, scope);
        if !block.lazy {
            // Drained on the first pull, as the reference evaluates it.
            range = Box::new(Materialize {
                input: range,
                buffered: None,
            });
        }
        while let Some(t) = range.next(ctx)? {
            if !each(t, ctx)? {
                break;
            }
        }
        Ok(())
    }
}

/// Can pulling only a prefix of `block` go unnoticed — can it neither
/// fail nor write Ξ output? (The rule in the module documentation.)
fn unobservable(block: &Expr) -> bool {
    let mut quiet = true;
    visit::walk(block, &mut |e| {
        quiet &= match e {
            Expr::XiSimple { .. }
            | Expr::XiGroup { .. }
            | Expr::Unnest { .. }
            | Expr::AttrRel(_) => false,
            _ => visit::scalars(e).into_iter().all(Scalar::replay_safe),
        }
    });
    quiet
}

/// What evaluating a subtree reads from the scope it is evaluated in,
/// and the attributes every tuple it emits is sure to carry.
#[derive(Clone, Default)]
struct Closure {
    reads: BTreeSet<Sym>,
    emits: BTreeSet<Sym>,
}

impl Closure {
    fn closed(&self) -> bool {
        self.reads.is_empty()
    }

    /// Also read what `s` (with its `blocks`) reads of the scope when it
    /// is evaluated over rows carrying `row` — `None` when that is not
    /// understood.
    fn reading(mut self, s: &Scalar, blocks: &Blocks, row: &BTreeSet<Sym>) -> Option<Closure> {
        let mut read = BTreeSet::new();
        scalar_reads(s, &mut blocks.iter(), &mut read)?;
        self.reads.extend(read.difference(row));
        Some(self)
    }

    /// Emit only what `keep` lets through.
    fn keeping(mut self, keep: &Keep) -> Closure {
        if let Some(only) = keep.attrs() {
            self.emits.retain(|a| only.contains(a));
        }
        self
    }
}

/// The pre-order positions of `plan`'s shared subtrees: the rule in the
/// module documentation.
fn shared_subtrees(plan: &PhysPlan) -> Box<[usize]> {
    let mut shared = Vec::new();
    let root = closure(plan, &mut 0, &mut shared);
    if root.is_some_and(|c| c.closed()) && !bare(plan) {
        return Box::new([0]);
    }
    shared.into()
}

/// A leaf whose replay costs what running it does.
fn bare(plan: &PhysPlan) -> bool {
    matches!(plan, PhysPlan::Singleton | PhysPlan::Literal(_))
}

/// The [`Closure`] of the subtree at pre-order position `at` (advanced
/// past it), or `None` when it cannot be shared at any outer tuple; the
/// positions of its maximal closed inputs, and theirs, go to `shared`.
fn closure(plan: &PhysPlan, at: &mut usize, shared: &mut Vec<usize>) -> Option<Closure> {
    *at += 1;
    let [l, r] = plan.inputs().map(|input| {
        input.map(|input| {
            let position = *at;
            (position, input, closure(input, at, shared))
        })
    });
    let here = node_closure(
        plan,
        l.as_ref().and_then(|(.., c)| c.as_ref()),
        r.as_ref().and_then(|(.., c)| c.as_ref()),
    );
    if !here.as_ref().is_some_and(Closure::closed) {
        for (position, input, c) in [l, r].into_iter().flatten() {
            if c.is_some_and(|c| c.closed()) && !bare(input) {
                shared.push(position);
            }
        }
    }
    here
}

/// One operator's [`Closure`] from its inputs' (`None` for an input the
/// analysis gave up on, or one the operator does not have).
fn node_closure(plan: &PhysPlan, l: Option<&Closure>, r: Option<&Closure>) -> Option<Closure> {
    let both = |l: &Closure, r: &Closure| Closure {
        reads: l.reads.union(&r.reads).copied().collect(),
        emits: l.emits.union(&r.emits).copied().collect(),
    };
    Some(match plan {
        PhysPlan::Singleton => Closure::default(),
        PhysPlan::Literal(rows) => {
            let mut rows = rows.iter().map(|t| t.attrs().into_iter().collect());
            let first: BTreeSet<Sym> = rows.next().unwrap_or_default();
            let emits = rows.fold(first, |all, row: BTreeSet<Sym>| &all & &row);
            Closure {
                reads: BTreeSet::new(),
                emits,
            }
        }
        PhysPlan::AttrRel(a) => Closure {
            reads: BTreeSet::from([*a]),
            emits: BTreeSet::new(),
        },
        PhysPlan::Select { pred, blocks, .. } => {
            let input = l?;
            input.clone().reading(pred, blocks, &input.emits)?
        }
        PhysPlan::Project { op, .. } => {
            let mut c = l?.clone();
            c.emits = projected(op, c.emits);
            c
        }
        PhysPlan::Map {
            attr,
            value,
            blocks,
            keep,
            ..
        }
        | PhysPlan::UnnestMap {
            attr,
            value,
            blocks,
            keep,
            ..
        } => {
            let input = l?;
            let mut c = input.clone().reading(value, blocks, &input.emits)?;
            c.emits.insert(*attr);
            c.keeping(keep)
        }
        PhysPlan::Unnest { attr, keep, .. } => {
            let mut c = l?.clone();
            c.emits.remove(attr);
            c.keeping(keep)
        }
        PhysPlan::Cross { keep, .. } => both(l?, r?).keeping(keep),
        PhysPlan::HashJoin {
            residual,
            blocks,
            kind,
            pad,
            keep,
            ..
        } => join(l?, r?, residual.as_ref(), blocks, kind, pad, keep)?,
        PhysPlan::LoopJoin {
            pred,
            split,
            kind,
            pad,
            keep,
            ..
        } => join(l?, r?, Some(pred), &split.blocks, kind, pad, keep)?,
        // A θ-grouping hands its filter's blocks to `nal::eval`: with
        // none compiled, a filter with nested algebra is not understood.
        PhysPlan::HashGroupUnary {
            g, by, f, blocks, ..
        } => group(l?, *g, by, f, blocks)?,
        PhysPlan::ThetaGroupUnary { g, by, f, .. } => group(l?, *g, by, f, &Blocks::NONE)?,
        PhysPlan::HashGroupBinary {
            g, f, blocks, keep, ..
        } => nest_join(l?, r?, *g, f, blocks, keep)?,
        PhysPlan::ThetaGroupBinary { g, f, .. } => {
            nest_join(l?, r?, *g, f, &Blocks::NONE, &Keep::default())?
        }
        // Ξ writes; the rest never sits in a block.
        PhysPlan::XiSimple { .. }
        | PhysPlan::XiGroup { .. }
        | PhysPlan::IndexScan { .. }
        | PhysPlan::IndexJoin { .. } => return None,
    })
}

/// What a projection leaves of the attributes `emits` its input
/// certainly carries.
fn projected(op: &ProjOp, mut emits: BTreeSet<Sym>) -> BTreeSet<Sym> {
    let renamed = |pairs: &[(Sym, Sym)], a: Sym| {
        pairs
            .iter()
            .find(|(_, old)| *old == a)
            .map_or(a, |(new, _)| *new)
    };
    match op {
        ProjOp::Cols(cols) | ProjOp::DistinctCols(cols) => emits.retain(|a| cols.contains(a)),
        ProjOp::Drop(cols) => emits.retain(|a| !cols.contains(a)),
        ProjOp::Rename(pairs) => emits = emits.into_iter().map(|a| renamed(pairs, a)).collect(),
        ProjOp::DistinctRename(pairs) => {
            emits = pairs
                .iter()
                .filter(|(_, old)| emits.contains(old))
                .map(|(new, _)| *new)
                .collect()
        }
    }
    emits
}

/// A join: both sides' reads, and the predicate's over the joined pair.
fn join(
    l: &Closure,
    r: &Closure,
    pred: Option<&Scalar>,
    blocks: &Blocks,
    kind: &JoinKind,
    pad: &[Sym],
    keep: &Keep,
) -> Option<Closure> {
    let pair: BTreeSet<Sym> = l.emits.union(&r.emits).copied().collect();
    let mut c = Closure {
        reads: l.reads.union(&r.reads).copied().collect(),
        emits: BTreeSet::new(),
    };
    if let Some(pred) = pred {
        c = c.reading(pred, blocks, &pair)?;
    }
    c.emits = match kind {
        JoinKind::Inner => pair,
        JoinKind::Semi | JoinKind::Anti => l.emits.clone(),
        // An unmatched tuple carries the padding and `g`, not the right
        // side's attributes.
        JoinKind::Outer { g, .. } => {
            let padded = |a: &&Sym| pad.contains(*a) || *a == g;
            let right = r.emits.iter().filter(padded);
            l.emits.iter().chain(right).copied().collect()
        }
    };
    Some(c.keeping(keep))
}

/// Unary Γ: its filter reads the scope over each member.
fn group(input: &Closure, g: Sym, by: &[Sym], f: &GroupFn, blocks: &Blocks) -> Option<Closure> {
    let mut c = Closure {
        reads: input.reads.clone(),
        emits: BTreeSet::new(),
    };
    if let Some(filter) = &f.filter {
        c = c.reading(filter, blocks, &input.emits)?;
    }
    c.emits = input
        .emits
        .iter()
        .filter(|a| by.contains(a))
        .copied()
        .collect();
    c.emits.insert(g);
    Some(c)
}

/// Binary Γ: its filter reads the scope over each member of the grouped
/// (right) side; each left tuple gains `g`.
fn nest_join(
    l: &Closure,
    r: &Closure,
    g: Sym,
    f: &GroupFn,
    blocks: &Blocks,
    keep: &Keep,
) -> Option<Closure> {
    let mut c = Closure {
        reads: l.reads.union(&r.reads).copied().collect(),
        emits: BTreeSet::new(),
    };
    if let Some(filter) = &f.filter {
        c = c.reading(filter, blocks, &r.emits)?;
    }
    c.emits = l.emits.clone();
    c.emits.insert(g);
    Some(c.keeping(keep))
}

/// Add to `out` what `s` reads of the scope it is evaluated in, its
/// nested blocks taken from `blocks` in [`visit::find_nested_expr`]
/// order: a quantifier reads its range's reads and its predicate's but
/// its variable; an aggregate its input's reads and its filter's but the
/// members' attributes. `None`: not understood (a block without a
/// closure, or none compiled).
fn scalar_reads<'b>(
    s: &Scalar,
    blocks: &mut impl Iterator<Item = &'b Block>,
    out: &mut BTreeSet<Sym>,
) -> Option<()> {
    let block_closure = |block: &Block| closure(&block.plan, &mut 0, &mut Vec::new());
    match s {
        Scalar::Const(_) | Scalar::Doc(_) => {}
        Scalar::Attr(a) => {
            out.insert(*a);
        }
        Scalar::Cmp(_, l, r)
        | Scalar::In(l, r)
        | Scalar::And(l, r)
        | Scalar::Or(l, r)
        | Scalar::Arith(_, l, r) => {
            scalar_reads(l, blocks, out)?;
            scalar_reads(r, blocks, out)?;
        }
        Scalar::Not(x) | Scalar::Lift(x, _) | Scalar::DistinctItems(x) | Scalar::Path(x, _) => {
            scalar_reads(x, blocks, out)?
        }
        Scalar::Call(_, args) => {
            for a in args {
                scalar_reads(a, blocks, out)?;
            }
        }
        Scalar::Exists { var, pred, .. } | Scalar::Forall { var, pred, .. } => {
            out.extend(block_closure(blocks.next()?)?.reads);
            let mut bound = BTreeSet::new();
            scalar_reads(pred, blocks, &mut bound)?;
            bound.remove(var);
            out.extend(bound);
        }
        Scalar::Agg { f, .. } => {
            let input = block_closure(blocks.next()?)?;
            out.extend(input.reads);
            if let Some(filter) = &f.filter {
                let mut member = BTreeSet::new();
                scalar_reads(filter, blocks, &mut member)?;
                out.extend(member.difference(&input.emits));
            }
        }
    }
    Some(())
}
