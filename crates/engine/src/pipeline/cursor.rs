//! The pull-based cursor abstraction and the source cursors.
//!
//! A [`Cursor`] produces one tuple per [`Cursor::next`] call — the
//! iterator model of Volcano-style engines, adapted to this repo's
//! evaluation contexts: `next` threads the shared [`EvalCtx`] so nested
//! scalar evaluation, Ξ output, and metrics work exactly as in the
//! materializing executor.

use std::sync::Arc;

use nal::eval::{EvalCtx, EvalError, EvalResult};
use nal::{Seq, Sym, Tuple, Value};

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

/// Wrapper that counts tuples as they stream past — this is what makes
/// short-circuiting observable: a semi join that stops probing early
/// produces visibly fewer tuples downstream than the input cardinality.
pub struct Metered<'p> {
    /// The wrapped cursor.
    pub inner: BoxCursor<'p>,
    /// Operator name the counts are attributed to.
    pub name: &'static str,
    /// Plan-node identity (the node's address) the execution trace
    /// attributes this cursor's work to when tracing is enabled.
    pub node: usize,
}

impl Cursor for Metered<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if ctx.trace.is_none() {
            let item = self.inner.next(ctx)?;
            if item.is_some() {
                ctx.metrics.tuples_produced += 1;
                ctx.metrics.bump_op(self.name, 1);
            }
            return Ok(item);
        }
        // Traced run: per-pull inclusive timing plus index-probe deltas,
        // accumulated under the plan node's identity. Children are pulled
        // inside `inner.next`, so like the materializing executor the
        // recorded time is inclusive of the subtree.
        let start = std::time::Instant::now();
        let (lookups0, hits0) = (ctx.metrics.index_lookups, ctx.metrics.index_hits);
        let item = self.inner.next(ctx)?;
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let lookups = ctx.metrics.index_lookups - lookups0;
        let hits = ctx.metrics.index_hits - hits0;
        if let Some(trace) = ctx.trace.as_mut() {
            trace.record(self.node, item.is_some() as u64, elapsed_ns, lookups, hits);
        }
        if item.is_some() {
            ctx.metrics.tuples_produced += 1;
            ctx.metrics.bump_op(self.name, 1);
        }
        Ok(item)
    }

    fn op_name(&self) -> &'static str {
        self.name
    }
}

/// An input side of a binary operator: normally a pipelined stream, but
/// switchable to a pre-materialized buffer when side-effect order (Ξ
/// output in a subtree) requires the materializing executor's strict
/// left-then-right evaluation order.
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

    /// Consume the feed entirely, returning everything it has left.
    pub fn take_all(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
        match self {
            Feed::Stream(c) => drain(c.as_mut(), ctx),
            Feed::Buffered(it) => Ok(it.by_ref().collect()),
        }
    }
}

/// A pass-through that drains its input on the first pull and then
/// streams from the buffer. Lowering inserts it below an operator whose
/// own scalars write Ξ output when the input subtree also writes Ξ: the
/// materializing executor evaluates strictly bottom-up, so the input's
/// entire byte stream must precede the parent's first write.
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
pub struct AttrRel {
    /// The bound attribute.
    pub attr: Sym,
    /// Outer-scope bindings visible to subscript evaluation.
    pub env: Tuple,
    /// Resolved relation + position (first pull).
    pub state: Option<(Arc<[Tuple]>, usize)>,
}

impl Cursor for AttrRel {
    fn next(&mut self, _ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.state.is_none() {
            match self.env.get(self.attr) {
                Some(Value::Tuples(ts)) => self.state = Some((ts.clone(), 0)),
                other => {
                    return Err(EvalError::new(format!(
                        "rel({}): not a nested relation: {other:?}",
                        self.attr
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
