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
//! What a block's operators carry is the plan's one attribute analysis
//! ([`crate::plan::Schema`]), folded along the walk that finds the
//! shared subtrees.
//!
//! **Lazy only where it cannot be observed.** A quantifier stops at its
//! first witness (∃) or counterexample (∀). Its range is pulled only
//! that far when nothing the rest of the block would do can be seen:
//! every subscript in it is [`Scalar::replay_safe`] (no nested algebra,
//! no erroring arithmetic or `decimal()` — the totality assumption the
//! index conversions make), it has no Ξ, no μ and no `rel(a)`, and no
//! node's rows may lack an attribute others carry (`may`, where known,
//! is `sure`): a range over such rows could fail on a later row. This
//! is decided on the compiled block, along the walk that finds its
//! shared subtrees. Any other range is drained first, exactly as
//! `nal::eval` evaluates it, and decided over the drained rows — so an
//! error the rest of the range raises, and every Ξ byte it writes, come
//! out as in the reference. An aggregate always reads its whole input.
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
//! minus its input's `sure` (for a join, the pair's; for a nest join,
//! a grouped member's) — so `rel(a)`, and an attribute a Π dropped that the outer
//! scope also binds, count as outer reads. An operator the analysis does
//! not model counts as correlated.
//!
//! **Closed conjuncts join the spool.** A correlated σ over a shared
//! subtree — q4's `σ[contains(a2, "an") ∧ b1 = b2]` over
//! `Υ[a2](Υ[b2](…))` — would still test its invariant conjuncts once per
//! outer tuple and row. So when a block's σ has an input that reads
//! nothing from outside, its *closed* conjuncts — those without nested
//! algebra that read only attributes in the input's `sure` — move
//! into a σ of their own below it, and that σ over the input is the
//! shared subtree. A conjunct may move only where its errors stay the
//! reference's: when every conjunct before it moves too (σ evaluates a
//! leading run first on every row either way), or when it and every
//! conjunct it jumps over are [`Scalar::replay_safe`] (they never fail,
//! so which rows each sees cannot be observed). `decimal(y) > 0` after
//! `x = t` stays where it is: it may fail on a row `x = t` rejects. Only
//! the engine's compiled block is rewritten; `nal::eval` evaluates the
//! expression as written.
//!
//! The cursor that evaluates a subscript owns one spool per shared
//! subtree of the subscript's blocks (`Spooled`). The first outer tuple
//! that reaches a spool lowers the subtree under the empty scope; rows are
//! pulled from it on demand, kept, and replayed to every later outer
//! tuple, in the subtree's own order. On a spool's first use a lazy range
//! therefore never pulls further than its decision needs (an indexed
//! spool, below, fills at its second use), a drained one fills the spool,
//! an error surfaces at the pull that raised it, and an empty outer
//! relation never starts the subtree. Spools live and die with their
//! cursor — with one execution: nothing is kept on the plan, which cached
//! plans share across snapshots and threads.
//!
//! **Indexed spools: a correlated σ probes instead of replaying.** What a
//! replay leaves per outer tuple is a pass over every spooled row through
//! the correlation — `tv = t1`, `a1 ∈ av` — which keeps the nested plan
//! quadratic. Rao & Ross keep the invariant result *indexed on the
//! correlation attribute*; so, at compile time, when a block's σ sits
//! right on a shared subtree and one of its conjuncts is `side θ k` or
//! `side ∈ k` (either way round; θ ∈ {=, <, ≤, >, ≥}), where `k` is in
//! the subtree's `sure` and `side` reads none of its attributes, the
//! spool is indexed on `k` for that conjunct — the first one such that
//! it and every conjunct before it are [`Scalar::replay_safe`], because
//! the σ evaluates those on each row a probe skips. EXPLAIN marks it:
//! `shared{χ[tv] indexed(tv =)}`. The σ lowers to one probing cursor.
//! Its first pass replays as above, so a spool used once costs what it
//! did; the second fills the spool (the rest of a lazy range is
//! replay-safe, so pulling it is unobservable) and orders `k`'s items
//! once (`OrderedKeys`, the θ-join's ordered keys; a sequence key has
//! an entry per item), and every pass from then on evaluates `side`
//! once, in the outer tuple's scope, and runs the σ — the whole
//! predicate, which alone decides — over the rows of the key window
//! `side` selects, in spool order. It replays instead wherever
//! the index might skip a row the σ would keep or fail on: a row that
//! carries an attribute `side` reads (it would see another `side`), a
//! scope that does not bind everything those leading conjuncts read of
//! it (the reference would fail), an empty spool (the reference never
//! evaluates `side`), and whatever the ordered views cannot answer — a
//! boolean or sequence `side`, text against typed-number keys, a key
//! item that is no string, node or number.
//!
//! **An ∃ decided by its range's index.** Where the correlation sits in
//! an ∃'s `satisfies` rather than in a σ over its range — q3's `some $t2
//! in …//entry/title satisfies $t1 = $t2` — every outer tuple would
//! replay the whole spool through it. So when an ∃'s whole range is one
//! shared subtree whose rows carry exactly one attribute `k` (`sure` =
//! `may` = {k}: binding the variable fails on any other row, so none may
//! be skipped), a leading conjunct of its predicate of the form `side θ
//! var` or `side ∈ var` (either way round, `side` replay-safe and not
//! reading `var`) indexes the spool on `k`: `shared{Υ[q] ∃ indexed(q
//! =)}`. Only a leading one: a conjunct before it would be evaluated on
//! every row the window skips, and [`Scalar::replay_safe`] does not make
//! it total there (a path step over a string fails). Its passes are the
//! σ's: the first replays, the second fills the spool and orders `k`,
//! and every later one evaluates `side` once in the quantifier's scope
//! — where the reference evaluates it on the first row, failing alike —
//! and hands the quantifier only the rows of the window, in spool
//! order, each decided by the whole predicate; or it replays, where the
//! views cannot answer or the scope leaves `side`'s attributes unbound.
//! A ∀ never probes: the rows outside the window are its
//! counterexamples.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::ops::Range;
use std::ptr;
use std::sync::Arc;

use nal::eval::scalar::{aggregate, eval_scalar, truthy, Nested};
use nal::eval::{EvalCtx, EvalError, EvalResult, Scope};
use nal::expr::visit;
use nal::{CmpOp, Expr, GroupFn, Scalar, Seq, Sym, Tuple, Value};

use crate::access::RangeProbe;
use crate::pipeline::cursor::{Materialize, Meter, Metered};
use crate::pipeline::{contains_xi, drain, lower, BoxCursor, Cursor, Lowering};
use crate::plan::{PhysPlan, Schema};
use crate::theta::{as_range_conjunct, range_sides, OrderedKeys, View};

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
    /// Does running it write Ξ output, in its plan or its own blocks?
    writes_xi: bool,
    /// Its shared subtrees.
    shared: Shared,
    /// The conjunct of its ∃'s `satisfies` that its spool is indexed
    /// on, when it is an ∃'s range spooled whole (the rule in the module
    /// documentation).
    exists: Option<Indexed>,
}

/// The pre-order positions of the roots of a block's shared subtrees,
/// each with the conjunct its index answers for the σ right above it.
type Shared = Box<[(usize, Option<Indexed>)]>;

/// A conjunct `side θ k` or `side ∈ k` over a shared subtree's rows,
/// which the subtree's spool is indexed on — a correlated σ's, `k` an
/// attribute every spooled row carries and `side` reading none of them,
/// or an ∃'s, `k` its range's one attribute as its variable binds it
/// and `side` not reading the variable (the rules in the module
/// documentation).
#[derive(Clone, Debug)]
struct Indexed {
    key: Sym,
    /// `side θ k`; `∈` is `=`, as it compares.
    probe: RangeProbe,
    member: bool,
    /// What the conjuncts up to this one read that a spooled row (an
    /// ∃'s variable) does not bind: a probe needs the scope to bind all
    /// of it.
    outer: Box<[Sym]>,
    /// What `side` reads of a spooled row: one that carries any of it
    /// would see another `side`. None for an ∃, whose predicate sees a
    /// row only through its variable.
    side_reads: Box<[Sym]>,
}

/// A shared subtree's root and, when the σ right above it probes its
/// index, that σ and the conjunct.
type Root<'p> = (&'p PhysPlan, Option<(&'p PhysPlan, &'p Indexed)>);

impl Block {
    /// The roots of the block's shared subtrees, in pre-order.
    pub fn shared(&self) -> Vec<&PhysPlan> {
        self.roots().into_iter().map(|(root, _)| root).collect()
    }

    /// The shared subtrees' roots, in pre-order, with their indexed σs.
    fn roots(&self) -> Vec<Root<'_>> {
        let mut roots = Vec::with_capacity(self.shared.len());
        if !self.shared.is_empty() {
            let (mut at, mut above) = (0, &self.plan);
            self.plan.walk(&mut |node| {
                if let Some((_, index)) = self.shared.iter().find(|(p, _)| *p == at) {
                    // A σ's input follows it in pre-order.
                    roots.push((node, index.as_ref().map(|index| (above, index))));
                }
                (at, above) = (at + 1, node);
            });
        }
        roots
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
        visit::find_nested_block(s, &mut |holder, e| {
            let mut plan = compile(e);
            hoist_closed_conjuncts(&mut plan);
            let (shared, lazy) = shared_and_lazy(&plan);
            let exists = match holder {
                Scalar::Exists { var, pred, .. } if matches!(*shared, [(0, None)]) => {
                    exists_indexed(&plan, *var, pred)
                }
                _ => None,
            };
            blocks.push(Block {
                shared,
                lazy,
                writes_xi: contains_xi(&plan),
                exists,
                plan,
            });
            false
        });
        Blocks(Some(blocks.into()))
    }

    /// Does evaluating the subscript write Ξ output?
    pub(crate) fn writes_xi(&self) -> bool {
        self.iter().any(|b| b.writes_xi)
    }

    /// The compiled blocks.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.0.iter().flat_map(|blocks| blocks.iter())
    }

    /// The blocks as one cursor evaluates them: with an empty spool per
    /// shared subtree.
    pub(crate) fn spooled(&self) -> Spooled<'_> {
        let spools = self
            .iter()
            .flat_map(Block::roots)
            .map(|(node, probed)| Spool {
                node,
                probed,
                filled: RefCell::default(),
            });
        Spooled {
            blocks: self,
            spools: spools.collect(),
        }
    }

    /// EXPLAIN's mark of the shared subtrees, each named by its root
    /// and the conjunct its index answers — ` shared{Υ[b2]}`,
    /// ` shared{χ[tv] indexed(tv =)}`, ` shared{Υ[q] ∃ indexed(q =)}` —
    /// or nothing.
    pub(crate) fn mark(&self) -> String {
        let roots: Vec<String> = self
            .iter()
            .flat_map(|block| {
                block.roots().into_iter().map(move |(root, probed)| {
                    // An ∃'s index is its range's, the block's only root.
                    let index = match (probed, &block.exists) {
                        (Some((_, index)), _) => format!(" {}", index.mark()),
                        (None, Some(index)) => format!(" ∃ {}", index.mark()),
                        (None, None) => String::new(),
                    };
                    format!("{}{index}", label(root))
                })
            })
            .collect();
        match roots.is_empty() {
            true => String::new(),
            false => format!(" shared{{{}}}", roots.join(",")),
        }
    }
}

impl Indexed {
    /// `indexed(k θ)`, θ read from `k`'s side.
    fn mark(&self) -> String {
        let op = match self.member {
            true => "∈",
            false => self.probe.op.flip().symbol(),
        };
        format!("indexed({} {op})", self.key)
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
    /// The σ right above it and the conjunct it probes the rows on.
    probed: Option<(&'p PhysPlan, &'p Indexed)>,
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
    /// The passes the indexed σ above has started.
    passes: usize,
    /// The rows' index, built for the σ's second pass (inside, `None`:
    /// a row carries an attribute `side` reads, so every pass replays).
    index: Option<Option<OrderedKeys>>,
}

impl<'p> Spool<'p> {
    /// The `at`-th row, pulled from the subtree if it is the next one.
    fn row(&self, at: usize, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        let filled = &mut *self.filled.borrow_mut();
        if at == filled.rows.len() && !filled.done {
            filled.pull(self.node, ctx)?;
        }
        Ok(filled.rows.get(at).cloned())
    }

    /// The rows a pass that probes the spool on `index` examines.
    fn probing<'s>(
        &'s self,
        index: &Indexed,
        env: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<SpoolPass<'s, 'p>> {
        let pass = self.pass(index, env, ctx)?;
        Ok(SpoolPass { spool: self, pass })
    }

    /// Which rows a pass that probes the spool on `index` — the indexed
    /// σ above's, or an ∃'s over it — examines: every row as it is
    /// pulled on the first pass; then the rows the index names for
    /// `side` in `env`, unless it cannot answer.
    fn pass(&self, index: &Indexed, env: &Scope<'_>, ctx: &mut EvalCtx<'_>) -> EvalResult<Pass> {
        let filled = &mut *self.filled.borrow_mut();
        filled.passes += 1;
        if filled.passes == 1 {
            return Ok(Pass::Replay(0));
        }
        if filled.index.is_none() {
            // Pulling the rest of a lazy range is unobservable.
            filled.fill(self.node, ctx)?;
            let rows = &filled.rows;
            let own_side =
                (rows.iter()).any(|r| index.side_reads.iter().any(|a| r.get(*a).is_some()));
            filled.index =
                Some((!own_side).then(|| OrderedKeys::build(rows, index.key, ctx.catalog)));
        }
        // A σ over no row reads nothing of the scope.
        let bound = index.outer.iter().all(|a| env.get(*a).is_some());
        let keys = filled.index.as_ref().expect("built above");
        let Some(keys) = keys.as_ref().filter(|_| bound && !filled.rows.is_empty()) else {
            return Ok(Pass::Replay(0));
        };
        // Replay-safe (total, as a lazy range assumes), and every
        // attribute it reads bound: it cannot fail.
        let side = eval_scalar(&index.probe.side, env, &Spooled::NONE.of_root(None), ctx)?;
        let Some((view, window)) = keys.window(index.probe.op, &side, ctx.catalog) else {
            return Ok(Pass::Replay(0));
        };
        ctx.metrics.spool_probes += 1;
        Ok(match index.probe.op {
            // Equal keys are in row order already.
            CmpOp::Eq => Pass::Window(view, window, None),
            _ => Pass::Listed(keys.listed(view, window).into_iter()),
        })
    }
}

impl<'p> Filled<'p> {
    /// Pull every row of `node`, the subtree, that is not in the spool.
    fn fill(&mut self, node: &'p PhysPlan, ctx: &mut EvalCtx<'_>) -> EvalResult<()> {
        while !self.done {
            self.pull(node, ctx)?;
        }
        Ok(())
    }

    /// Pull the next row of `node`, the subtree, into the spool.
    fn pull(&mut self, node: &'p PhysPlan, ctx: &mut EvalCtx<'_>) -> EvalResult<()> {
        let source = self
            .source
            .get_or_insert_with(|| lower(node, &Scope::Empty));
        match source.next(ctx)? {
            Some(t) => self.rows.push(t),
            None => {
                self.done = true;
                self.source = None;
            }
        }
        Ok(())
    }
}

/// The rows one pass over an indexed spool examines.
enum Pass {
    /// Every row, in order, from the `usize`-th.
    Replay(usize),
    /// The rows of an `=` window, in row order (a sequence key's row
    /// may follow itself: the row last examined is skipped).
    Window(View, Range<usize>, Option<usize>),
    /// The rows of another window, in row order, each once.
    Listed(std::vec::IntoIter<usize>),
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
    /// A cursor over `node`'s spool, if it is a shared subtree, or
    /// probing the spool below it, if it is an indexed σ over one —
    /// evaluated in `env`.
    fn replay<'a>(&'a self, node: &PhysPlan, env: &'a Scope<'a>) -> Option<BoxCursor<'a>>;
}

impl Replays for Spooled<'_> {
    fn spools(&self, node: &PhysPlan) -> bool {
        self.spool(node).is_some()
    }

    fn replay<'a>(&'a self, node: &PhysPlan, env: &'a Scope<'a>) -> Option<BoxCursor<'a>> {
        if let Some(spool) = self.spool(node) {
            let pass = Pass::Replay(0);
            return Some(Box::new(SpoolPass { spool, pass }));
        }
        let (spool, select, index) = self.spools.iter().find_map(|spool| {
            let (select, index) = spool.probed?;
            ptr::eq(select, node).then_some((spool, select, index))
        })?;
        let PhysPlan::Select { pred, blocks, .. } = select else {
            unreachable!("an indexed spool is probed by a σ");
        };
        let probe = Probe {
            spool,
            index,
            pred,
            blocks: blocks.spooled(),
            env,
            candidates: None,
        };
        Some(Box::new(Metered {
            inner: probe,
            meter: Meter::of(select),
        }))
    }
}

/// One pass over a spool: the rows [`Pass`] names — on a replay, the
/// rows already pulled, then whatever the subtree produces next, kept
/// for the passes after it. Unmetered — the subtree's own cursors count
/// each row once.
struct SpoolPass<'s, 'p> {
    spool: &'s Spool<'p>,
    pass: Pass,
}

impl Cursor for SpoolPass<'_, '_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        let pos = match &mut self.pass {
            Pass::Replay(at) => {
                let row = self.spool.row(*at, ctx)?;
                *at += usize::from(row.is_some());
                return Ok(row);
            }
            Pass::Window(view, window, last) => {
                let filled = self.spool.filled.borrow();
                let keys = filled.index.as_ref().and_then(Option::as_ref);
                let keys = keys.expect("a window is the index's");
                let next = window.find(|at| Some(keys.row(*view, *at)) != *last);
                *last = next.map(|at| keys.row(*view, at));
                *last
            }
            Pass::Listed(rows) => rows.next(),
        };
        Ok(pos.map(|pos| self.spool.filled.borrow().rows[pos].clone()))
    }

    fn op_name(&self) -> &'static str {
        "Replay"
    }
}

/// One outer tuple's pass of an indexed σ over its spool: the σ, over
/// the rows [`Spool::pass`] chose, each checked against the whole
/// predicate.
struct Probe<'s, 'p> {
    spool: &'s Spool<'p>,
    index: &'p Indexed,
    pred: &'p Scalar,
    /// The predicate's nested blocks and their spools.
    blocks: Spooled<'p>,
    env: &'s Scope<'s>,
    /// Chosen on the first pull.
    candidates: Option<SpoolPass<'s, 'p>>,
}

impl Cursor for Probe<'_, '_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        let candidates = match &mut self.candidates {
            Some(candidates) => candidates,
            none => none.insert(self.spool.probing(self.index, self.env, ctx)?),
        };
        while let Some(t) = candidates.next(ctx)? {
            if self.blocks.truthy(self.pred, &t, self.env, ctx)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    fn op_name(&self) -> &'static str {
        "Select"
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
        // An ∃ over an indexed range examines the rows its spool's
        // index names for it, each still decided by the whole predicate.
        let spool = |index| Some((index, self.spooled.spool(&block.plan)?));
        if let Some((index, spool)) = block.exists.as_ref().and_then(spool) {
            if !block.lazy {
                // Drained first, as the reference evaluates it.
                spool.filled.borrow_mut().fill(spool.node, ctx)?;
            }
            return hand_each(&mut spool.probing(index, scope, ctx)?, ctx, each);
        }
        let mut range = self.lower(block, scope);
        if !block.lazy {
            // Drained on the first pull, as the reference evaluates it.
            range = Box::new(Materialize {
                input: range,
                buffered: None,
            });
        }
        hand_each(range.as_mut(), ctx, each)
    }
}

/// Hand `range`'s rows to `each` until it answers `false`.
fn hand_each(
    range: &mut dyn Cursor,
    ctx: &mut EvalCtx<'_>,
    each: &mut dyn FnMut(Tuple, &mut EvalCtx<'_>) -> EvalResult<bool>,
) -> EvalResult<()> {
    while let Some(t) = range.next(ctx)? {
        if !each(t, ctx)? {
            break;
        }
    }
    Ok(())
}

/// Move the closed conjuncts of each correlated σ over a closed input
/// into a σ of their own below it, where the input's shared subtree
/// takes them in: the rule in the module documentation.
fn hoist_closed_conjuncts(plan: &mut PhysPlan) {
    for input in plan.children_mut() {
        hoist_closed_conjuncts(input);
    }
    let PhysPlan::Select { input, pred, .. } = plan else {
        return;
    };
    let (below, Some(c)) = closure(input, &mut 0, &mut Vec::new()) else {
        return;
    };
    if !c.closed() {
        return;
    }
    let (mut closed, mut open) = (Vec::new(), Vec::new());
    // Is every conjunct kept above so far total — can a later one jump it?
    let mut total_above = true;
    for c in pred.conjuncts() {
        let reads_input =
            !c.has_nested_expr() && c.free_attrs().iter().all(|a| below.sure.contains(a));
        let leading = open.is_empty();
        if reads_input && (leading || (total_above && c.replay_safe())) {
            closed.push(c.clone());
        } else {
            total_above &= c.replay_safe();
            open.push(c.clone());
        }
    }
    if closed.is_empty() || open.is_empty() {
        return;
    }
    *pred = Scalar::conjoin(open);
    let e = std::mem::replace(&mut **input, PhysPlan::Singleton);
    **input = PhysPlan::Select {
        input: Box::new(e),
        pred: Scalar::conjoin(closed),
        blocks: Blocks::NONE,
    };
}

/// What evaluating a subtree reads from the scope it is evaluated in,
/// and whether pulling only a prefix of it goes unnoticed.
#[derive(Clone, Default)]
struct Closure {
    reads: BTreeSet<Sym>,
    /// It can neither fail nor write Ξ output (the rule in the module
    /// documentation), and no node's rows may lack an attribute its
    /// other rows carry (`may` is `sure` where it is known): such a row
    /// could fail where the drained rest of a range does.
    quiet: bool,
}

impl Closure {
    fn closed(&self) -> bool {
        self.reads.is_empty()
    }
}

/// The pre-order positions of `plan`'s shared subtrees, with their
/// indexed conjuncts, and whether a quantifier may pull `plan` only as
/// far as its decision: the rules in the module documentation.
fn shared_and_lazy(plan: &PhysPlan) -> (Shared, bool) {
    let mut shared = Vec::new();
    let (_, root) = closure(plan, &mut 0, &mut shared);
    let lazy = root.as_ref().is_some_and(|c| c.quiet);
    if root.is_some_and(|c| c.closed()) && !bare(plan) {
        shared = vec![(0, None)];
    }
    (shared.into(), lazy)
}

/// The leading conjunct of an ∃'s `pred`, when an index of its range
/// answers it ([`indexed`], `var` the one attribute it binds) and the
/// range's rows carry exactly one attribute, `k`, the key: on any other
/// row the quantifier fails binding `var`, so no row may be skipped.
/// Only the leading one: the quantifier would evaluate a conjunct before
/// it on every row the window skips, and a replay-safe conjunct can
/// still fail there — a path step over a string, say.
fn exists_indexed(range: &PhysPlan, var: Sym, pred: &Scalar) -> Option<Indexed> {
    let Schema { sure, may } = range.schema();
    let [key] = sure[..] else {
        return None;
    };
    if may.as_deref() != Some(&[key]) {
        return None;
    }
    Some(Indexed {
        key,
        side_reads: Box::default(),
        ..indexed(pred.conjuncts()[0], &[var])?
    })
}

/// The first conjunct of a σ over rows sure to carry `emits` that an
/// index of them answers — `side θ k` or `side ∈ k`, either way round,
/// θ not `≠` — where it and every conjunct before it are replay-safe:
/// the σ evaluates those on each row a probe skips.
fn indexed(pred: &Scalar, emits: &[Sym]) -> Option<Indexed> {
    let mut reads = BTreeSet::new();
    for c in pred.conjuncts() {
        if !c.replay_safe() {
            return None;
        }
        reads.extend(c.free_attrs());
        let (found, member) = match c {
            Scalar::In(x, y) => (range_sides(CmpOp::Eq, x, y, emits), true),
            _ => (as_range_conjunct(c, emits), false),
        };
        if let Some((key, probe)) = found {
            return Some(Indexed {
                key,
                side_reads: probe.side.free_attrs().into_iter().collect(),
                probe,
                member,
                outer: reads.into_iter().filter(|a| !emits.contains(a)).collect(),
            });
        }
    }
    None
}

/// A leaf whose replay costs what running it does.
fn bare(plan: &PhysPlan) -> bool {
    matches!(plan, PhysPlan::Singleton | PhysPlan::Literal(_))
}

/// The [`Schema`] of the subtree at pre-order position `at` (advanced
/// past it) and its [`Closure`], `None` when it cannot be shared at any
/// outer tuple; the positions of its maximal closed inputs, and theirs,
/// go to `shared`, an input of a σ with the conjunct its index answers.
fn closure(
    plan: &PhysPlan,
    at: &mut usize,
    shared: &mut Vec<(usize, Option<Indexed>)>,
) -> (Schema, Option<Closure>) {
    *at += 1;
    let [l, r] = plan.inputs().map(|input| {
        input.map(|input| {
            let position = *at;
            let (schema, c) = closure(input, at, shared);
            (position, input, schema, c)
        })
    });
    let [lc, rc] = [&l, &r].map(|i| i.as_ref().and_then(|(.., s, c)| Some((s, c.as_ref()?))));
    let mut here = node_closure(plan, lc, rc);
    let mut schemas = [None, None];
    for (slot, input) in schemas.iter_mut().zip([l, r]) {
        let Some((position, input, below, c)) = input else {
            continue;
        };
        let shareable = c.is_some_and(|c| c.closed()) && !bare(input);
        if shareable && !here.as_ref().is_some_and(Closure::closed) {
            let index = match plan {
                PhysPlan::Select { pred, .. } => indexed(pred, &below.sure),
                _ => None,
            };
            shared.push((position, index));
        }
        *slot = Some(below);
    }
    let schema = plan.carries(schemas);
    if let Some(here) = &mut here {
        let sure = |a: &Sym| schema.sure.contains(a);
        here.quiet &= schema.may.as_ref().is_none_or(|may| may.iter().all(sure));
    }
    (schema, here)
}

/// One operator's [`Closure`] from its inputs' schemas and closures
/// (`None` for an input the analysis gave up on, or one the operator
/// does not have): its inputs' reads, and what its subscript reads that
/// the row it is evaluated over does not carry — an input's tuple, a
/// join's pair, a member of a nest join's grouped (right) side. Quiet
/// as far as its inputs and subscript go; [`closure`] checks its rows.
fn node_closure(
    plan: &PhysPlan,
    l: Option<(&Schema, &Closure)>,
    r: Option<(&Schema, &Closure)>,
) -> Option<Closure> {
    let (reads, quiet) = match plan {
        PhysPlan::Singleton | PhysPlan::Literal(_) => (BTreeSet::new(), true),
        PhysPlan::AttrRel(a) => (BTreeSet::from([*a]), false),
        // Ξ writes; the rest never sits in a block.
        PhysPlan::XiSimple { .. }
        | PhysPlan::XiGroup { .. }
        | PhysPlan::IndexScan { .. }
        | PhysPlan::IndexJoin { .. } => return None,
        _ => {
            let (ls, lc) = l?;
            let right = match plan.inputs()[1] {
                Some(_) => Some(r?),
                None => None,
            };
            let mut reads = lc.reads.clone();
            reads.extend(right.iter().flat_map(|(_, rc)| &rc.reads));
            let carried = |a: &Sym| match (plan, right) {
                (PhysPlan::Join { .. }, Some((rs, _))) => {
                    ls.sure.contains(a) || rs.sure.contains(a)
                }
                (PhysPlan::NestJoin { .. }, Some((rs, _))) => rs.sure.contains(a),
                _ => ls.sure.contains(a),
            };
            if let (Some(s), Some(blocks)) = (plan.subscript(), plan.blocks()) {
                let mut read = BTreeSet::new();
                scalar_reads(s, &mut blocks.iter(), &mut read)?;
                reads.extend(read.into_iter().filter(|a| !carried(a)));
            }
            let quiet = lc.quiet
                && right.is_none_or(|(_, rc)| rc.quiet)
                && !matches!(plan, PhysPlan::Unnest { .. })
                && plan.subscript().is_none_or(Scalar::replay_safe);
            (reads, quiet)
        }
    };
    Some(Closure { reads, quiet })
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
    let block_closure = |block: &Block| {
        let (schema, c) = closure(&block.plan, &mut 0, &mut Vec::new());
        Some((schema, c?))
    };
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
            out.extend(block_closure(blocks.next()?)?.1.reads);
            let mut bound = BTreeSet::new();
            scalar_reads(pred, blocks, &mut bound)?;
            bound.remove(var);
            out.extend(bound);
        }
        Scalar::Agg { f, .. } => {
            let (members, input) = block_closure(blocks.next()?)?;
            out.extend(input.reads);
            if let Some(filter) = &f.filter {
                let mut member = BTreeSet::new();
                scalar_reads(filter, blocks, &mut member)?;
                out.extend(member.into_iter().filter(|a| !members.sure.contains(a)));
            }
        }
    }
    Some(())
}
