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

use std::ptr;
use std::sync::Arc;

use nal::eval::scalar::{aggregate, eval_scalar, truthy, Nested};
use nal::eval::{EvalCtx, EvalError, EvalResult, Scope};
use nal::expr::visit;
use nal::{Expr, GroupFn, Scalar, Seq, Tuple, Value};

use crate::pipeline::cursor::Materialize;
use crate::pipeline::{drain, lower};
use crate::plan::PhysPlan;

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
            blocks.push(Block {
                plan: compile(e),
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

    fn of_root<'a>(&'a self, root: Option<&'a Scalar>) -> Compiled<'a> {
        Compiled { root, blocks: self }
    }
}

/// A subscript's compiled blocks as `eval_scalar` reaches them: a block
/// is found by its position among the subscript's nested expressions.
struct Compiled<'a> {
    /// The subscript (none: a group function without a filter).
    root: Option<&'a Scalar>,
    blocks: &'a Blocks,
}

impl Compiled<'_> {
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
            .then(|| self.blocks.iter().nth(at))
            .flatten()
            .ok_or_else(|| EvalError::new(format!("nested block not compiled: {block}")))
    }
}

impl Nested for Compiled<'_> {
    fn rows(&self, block: &Expr, scope: &Scope<'_>, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
        let block = self.block(block)?;
        drain(lower(&block.plan, scope).as_mut(), ctx)
    }

    fn decide(
        &self,
        block: &Expr,
        scope: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
        each: &mut dyn FnMut(Tuple, &mut EvalCtx<'_>) -> EvalResult<bool>,
    ) -> EvalResult<()> {
        let block = self.block(block)?;
        let mut range = lower(&block.plan, scope);
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
