//! The pull-based cursor abstraction and the source cursors.
//!
//! A [`Cursor`] produces one tuple per [`Cursor::next`] call — the
//! iterator model of Volcano-style engines, adapted to this repo's
//! evaluation contexts: `next` threads the shared [`EvalCtx`] so nested
//! scalar evaluation, Ξ output, and metrics work exactly as in the
//! reference evaluator (`nal::eval`).

use std::sync::Arc;

use nal::eval::{EvalCtx, EvalError, EvalResult, OpId, Scope};
use nal::{Seq, Sym, Tuple, Value};

use crate::plan::PhysPlan;

/// A pull-based tuple stream.
pub trait Cursor {
    /// Produce the next tuple, or `None` when the stream is exhausted.
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>>;

    /// Operator display name (used for per-operator metrics).
    fn op_name(&self) -> &'static str;
}

/// Cursors borrow the plan they were lowered from.
pub type BoxCursor<'p> = Box<dyn Cursor + 'p>;

/// Pull a cursor to exhaustion, materializing its output.
pub fn drain(cur: &mut dyn Cursor, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
    let mut out = Vec::new();
    while let Some(t) = cur.next(ctx)? {
        out.push(t);
    }
    Ok(out)
}

/// One plan node's counter slot ([`OpId`], resolved from the operator's
/// name when its cursor is built, so counting a tuple is an array
/// increment) and its identity — the node's address, which the
/// execution trace attributes work to.
#[derive(Clone, Copy)]
pub struct Meter {
    op: OpId,
    node: usize,
}

/// A pull being measured: its start and the index-probe counters then.
/// Only traced runs ([`EvalCtx::enable_trace`]) measure.
pub struct Pull {
    start: std::time::Instant,
    lookups: u64,
    hits: u64,
}

impl Pull {
    /// Start measuring, if the run is traced.
    pub fn start(ctx: &EvalCtx<'_>) -> Option<Pull> {
        ctx.trace.as_ref().map(|_| Pull {
            start: std::time::Instant::now(),
            lookups: ctx.metrics.index_lookups,
            hits: ctx.metrics.index_hits,
        })
    }
}

impl Meter {
    /// The meter of `plan`.
    pub fn of(plan: &PhysPlan) -> Meter {
        let op = OpId::of(plan.op_name()).expect("every metered operator has a counter slot");
        // A plan node's identity is its address.
        Meter {
            op,
            node: plan as *const PhysPlan as usize,
        }
    }

    /// The operator's display name.
    pub fn name(&self) -> &'static str {
        self.op.name()
    }

    /// Account for one pull of the node: a tuple `produced` or the
    /// stream's end. A traced run also records the pull's inclusive time
    /// and index-probe deltas under the node's identity — children are
    /// pulled inside it, so the recorded time is inclusive of the
    /// subtree.
    pub fn pulled(&self, ctx: &mut EvalCtx<'_>, pull: &Option<Pull>, produced: bool) {
        if let (Some(pull), Some(trace)) = (pull, ctx.trace.as_mut()) {
            let elapsed_ns = pull.start.elapsed().as_nanos() as u64;
            let lookups = ctx.metrics.index_lookups - pull.lookups;
            let hits = ctx.metrics.index_hits - pull.hits;
            trace.record(self.node, produced as u64, elapsed_ns, lookups, hits);
        }
        if produced {
            ctx.metrics.tuples_produced += 1;
            ctx.metrics.op_tuples.bump(self.op);
        }
    }
}

/// Wrapper that counts tuples as they stream past — this is what makes
/// short-circuiting observable: a semi join that stops probing early
/// produces visibly fewer tuples downstream than the input cardinality.
pub struct Metered<C> {
    /// The wrapped cursor.
    pub inner: C,
    /// The plan node this cursor stands for.
    pub meter: Meter,
}

impl<C: Cursor> Cursor for Metered<C> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        let pull = Pull::start(ctx);
        let item = self.inner.next(ctx)?;
        self.meter.pulled(ctx, &pull, item.is_some());
        Ok(item)
    }

    fn op_name(&self) -> &'static str {
        self.meter.name()
    }
}

/// The probe (left) side of a binary operator: normally a pipelined
/// stream, but switchable to a pre-materialized buffer when side-effect
/// order (Ξ output in a subtree) requires the reference evaluator's
/// strict left-then-right evaluation order: `nal::eval` evaluates the
/// left input completely, then the right, and only then the operator.
pub enum Feed<'p> {
    /// A live pipelined stream.
    Stream(BoxCursor<'p>),
    /// A pre-materialized buffer.
    Buffered(std::vec::IntoIter<Tuple>),
}

impl Feed<'_> {
    /// Produce the next tuple from the stream or the buffer.
    pub fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        match self {
            Feed::Stream(c) => c.next(ctx),
            Feed::Buffered(it) => Ok(it.next()),
        }
    }

    /// Drain the underlying stream now (a no-op when already buffered).
    pub fn buffer_now(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<()> {
        if let Feed::Stream(c) = self {
            let rows = drain(c.as_mut(), ctx)?;
            *self = Feed::Buffered(rows.into_iter());
        }
        Ok(())
    }
}

/// A pass-through that drains its input on the first pull and then
/// streams from the buffer. Lowering inserts it below an operator whose
/// own scalars write Ξ output when the input subtree also writes Ξ: the
/// reference evaluator (`nal::eval`) evaluates strictly bottom-up, so the
/// input's entire byte stream must precede the parent's first write.
pub struct Materialize<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// The drained input, once the first pull materialized it.
    pub buffered: Option<std::vec::IntoIter<Tuple>>,
}

impl Cursor for Materialize<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.buffered.is_none() {
            self.buffered = Some(drain(self.input.as_mut(), ctx)?.into_iter());
        }
        Ok(self.buffered.as_mut().expect("drained above").next())
    }

    fn op_name(&self) -> &'static str {
        "Materialize"
    }
}

/// `□` — the singleton sequence of the empty tuple.
pub struct Once {
    /// Whether the one tuple was already emitted.
    pub done: bool,
}

impl Cursor for Once {
    fn next(&mut self, _ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(Some(Tuple::empty()))
    }

    fn op_name(&self) -> &'static str {
        "Singleton"
    }
}

/// A literal relation, streamed without copying the backing slice.
pub struct Literal<'p> {
    /// The backing rows.
    pub rows: &'p [Tuple],
    /// Next row to emit.
    pub idx: usize,
}

impl Cursor for Literal<'_> {
    fn next(&mut self, _ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        let item = self.rows.get(self.idx).cloned();
        self.idx += item.is_some() as usize;
        Ok(item)
    }

    fn op_name(&self) -> &'static str {
        "Literal"
    }
}

/// `rel(a)` — stream the nested relation bound to an environment
/// attribute. Resolution is deferred to the first `next` call so lowering
/// stays infallible.
pub struct AttrRel<'p> {
    /// The bound attribute.
    pub attr: Sym,
    /// Outer-scope bindings visible to subscript evaluation.
    pub env: &'p Scope<'p>,
    /// Resolved relation + position (first pull).
    pub state: Option<(Arc<[Tuple]>, usize)>,
}

impl Cursor for AttrRel<'_> {
    fn next(&mut self, _ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.state.is_none() {
            let a = self.attr;
            match self.env.get(a) {
                Some(Value::Tuples(ts)) => self.state = Some((ts.clone(), 0)),
                Some(Value::Null) | None => {
                    return Err(EvalError::new(format!(
                        "rel({a}): attribute not bound to a nested relation (env {})",
                        self.env
                    )))
                }
                Some(other) => {
                    return Err(EvalError::new(format!(
                        "rel({a}): attribute is not tuple-valued: {other}"
                    )))
                }
            }
        }
        let (rows, idx) = self.state.as_mut().expect("resolved above");
        let item = rows.get(*idx).cloned();
        *idx += item.is_some() as usize;
        Ok(item)
    }

    fn op_name(&self) -> &'static str {
        "AttrRel"
    }
}
