//! Streaming unary operators and the blocking (materialize-inside,
//! stream-out) grouping and Ξ operators.

use std::collections::HashSet;
use std::collections::VecDeque;

use nal::eval::scalar::{eval_scalar, truthy};
use nal::eval::{apply_groupfn, atomize_tuple, eval, xi, EvalCtx, EvalResult};
use nal::{GroupFn, ProjOp, Scalar, Sym, Tuple, Value, XiCmd};

use super::cursor::{drain, BoxCursor, Cursor};
use crate::exec::{hash_groups, scoped, unnest_tuple};

/// σ — filter, one pull per surviving tuple.
pub struct Select<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// The predicate.
    pub pred: &'p Scalar,
    /// Outer-scope bindings visible to subscript evaluation.
    pub env: Tuple,
}

impl Cursor for Select<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        while let Some(t) = self.input.next(ctx)? {
            if truthy(self.pred, &scoped(&self.env, &t), ctx)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    fn op_name(&self) -> &'static str {
        "Select"
    }
}

/// Π / Π^D — projections. The distinct variants dedup incrementally (a
/// first-occurrence filter is order-preserving, so no materialization is
/// needed).
pub struct Project<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// The projection operation.
    pub op: &'p ProjOp,
    /// First-occurrence dedup state (distinct variants).
    pub seen: HashSet<Vec<Value>>,
}

impl Cursor for Project<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        loop {
            let Some(t) = self.input.next(ctx)? else {
                return Ok(None);
            };
            let out = match self.op {
                ProjOp::Cols(cols) => return Ok(Some(t.project(cols))),
                ProjOp::Drop(cols) => return Ok(Some(t.without(cols))),
                ProjOp::Rename(pairs) => return Ok(Some(t.rename(pairs))),
                ProjOp::DistinctCols(cols) => atomize_tuple(&t.project(cols), ctx.catalog),
                ProjOp::DistinctRename(pairs) => {
                    let old: Vec<Sym> = pairs.iter().map(|(_, o)| *o).collect();
                    atomize_tuple(&t.project(&old).rename(pairs), ctx.catalog)
                }
            };
            let key: Vec<Value> = out.values().cloned().collect();
            if self.seen.insert(key) {
                return Ok(Some(out));
            }
        }
    }

    fn op_name(&self) -> &'static str {
        "Project"
    }
}

/// χ — extend each tuple with one computed attribute.
pub struct Map<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// The bound attribute.
    pub attr: Sym,
    /// The subscript computing the attribute’s value.
    pub value: &'p Scalar,
    /// Outer-scope bindings visible to subscript evaluation.
    pub env: Tuple,
}

impl Cursor for Map<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        let Some(t) = self.input.next(ctx)? else {
            return Ok(None);
        };
        let v = eval_scalar(self.value, &scoped(&self.env, &t), ctx)?;
        Ok(Some(t.extend(self.attr, v)))
    }

    fn op_name(&self) -> &'static str {
        "Map"
    }
}

/// μ / μ^D — unnest a tuple-valued attribute; a small pending queue holds
/// the fan-out of the current input tuple.
pub struct Unnest<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// The bound attribute.
    pub attr: Sym,
    /// Atomize and deduplicate the fanned-out items.
    pub distinct: bool,
    /// Keep tuples with an empty nested sequence.
    pub preserve_empty: bool,
    /// Attributes of the nested tuples (NULL padding schema).
    pub inner_attrs: &'p [Sym],
    /// Fan-out queue of the current input tuple.
    pub pending: VecDeque<Tuple>,
}

impl Cursor for Unnest<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Ok(Some(t));
            }
            let Some(t) = self.input.next(ctx)? else {
                return Ok(None);
            };
            unnest_tuple(
                &t,
                self.attr,
                self.distinct,
                self.preserve_empty,
                self.inner_attrs,
                ctx,
                |u| self.pending.push_back(u),
            )?;
        }
    }

    fn op_name(&self) -> &'static str {
        "Unnest"
    }
}

/// Υ — unnest-map: evaluate a scalar per tuple and fan out its items.
pub struct UnnestMap<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// The bound attribute.
    pub attr: Sym,
    /// The subscript computing the attribute’s value.
    pub value: &'p Scalar,
    /// Outer-scope bindings visible to subscript evaluation.
    pub env: Tuple,
    /// Fan-out queue of the current input tuple.
    pub pending: VecDeque<Tuple>,
}

impl Cursor for UnnestMap<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Ok(Some(t));
            }
            let Some(t) = self.input.next(ctx)? else {
                return Ok(None);
            };
            let v = eval_scalar(self.value, &scoped(&self.env, &t), ctx)?;
            for item in v.as_items() {
                self.pending.push_back(t.extend(self.attr, item.clone()));
            }
        }
    }

    fn op_name(&self) -> &'static str {
        "UnnestMap"
    }
}

/// Index-backed Υ: the item list comes from the path index (resolved
/// once, on the first pull — the path is document-rooted, so it is the
/// same for every input tuple) and fans out per input tuple exactly as
/// the replaced scan would.
pub struct IndexScan<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// The bound attribute.
    pub attr: Sym,
    /// Document URI resolved through the catalog.
    pub uri: &'p str,
    /// Index-side pattern of the scanned path.
    pub pattern: &'p xmldb::PathPattern,
    /// Atomize and deduplicate the fanned-out items.
    pub distinct: bool,
    /// The resolved item sequence (fetched on first pull).
    pub items: Option<Vec<Value>>,
    /// Fan-out queue of the current input tuple.
    pub pending: VecDeque<Tuple>,
}

impl Cursor for IndexScan<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.items.is_none() {
            self.items = Some(crate::access::scan_items(
                self.uri,
                self.pattern,
                self.distinct,
                ctx,
            )?);
        }
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Ok(Some(t));
            }
            let Some(t) = self.input.next(ctx)? else {
                return Ok(None);
            };
            let items = self.items.as_ref().expect("resolved above");
            for item in items {
                self.pending.push_back(t.extend(self.attr, item.clone()));
            }
        }
    }

    fn op_name(&self) -> &'static str {
        "IndexScan"
    }
}

/// Ξ — result construction, fully pipelined: each pulled tuple is
/// serialized and passed through. When the input subtree itself writes Ξ
/// output, lowering inserts a `Materialize` barrier below this cursor so
/// the byte stream matches the materializing executor's strict bottom-up
/// order.
pub struct XiSimple<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// Serialization commands per tuple.
    pub cmds: &'p [XiCmd],
    /// Outer-scope bindings visible to subscript evaluation.
    pub env: Tuple,
}

impl Cursor for XiSimple<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        let Some(t) = self.input.next(ctx)? else {
            return Ok(None);
        };
        xi::run_cmds(self.cmds, &scoped(&self.env, &t), ctx)?;
        Ok(Some(t))
    }

    fn op_name(&self) -> &'static str {
        "Xi"
    }
}

/// Grouped Ξ — blocking on the input (grouping needs all tuples), then
/// streams one key tuple per group, emitting head/body/tail as pulled.
pub struct XiGroup<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// Group-key attributes.
    pub by: &'p [Sym],
    /// Commands once per group, before the body.
    pub head: &'p [XiCmd],
    /// Commands per tuple of the group.
    pub body: &'p [XiCmd],
    /// Commands once per group, after the body.
    pub tail: &'p [XiCmd],
    /// Outer-scope bindings visible to subscript evaluation.
    pub env: Tuple,
    /// Materialized groups, streamed out one per pull.
    pub groups: Option<std::vec::IntoIter<(Tuple, Vec<Tuple>)>>,
}

impl Cursor for XiGroup<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.groups.is_none() {
            let rows = drain(self.input.as_mut(), ctx)?;
            self.groups = Some(hash_groups(&rows, self.by, ctx).into_iter());
        }
        let Some((key_tuple, members)) = self.groups.as_mut().expect("grouped above").next() else {
            return Ok(None);
        };
        let key_env = self.env.concat(&key_tuple);
        xi::run_cmds(self.head, &key_env, ctx)?;
        for t in &members {
            xi::run_cmds(self.body, &scoped(&self.env, t), ctx)?;
        }
        xi::run_cmds(self.tail, &key_env, ctx)?;
        Ok(Some(key_tuple))
    }

    fn op_name(&self) -> &'static str {
        "XiGroup"
    }
}

/// Hash Γ — blocking build of the group table, then one aggregated tuple
/// per group streamed out (the group function runs lazily per pull).
pub struct HashGroupUnary<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// Attribute receiving the group aggregate.
    pub g: Sym,
    /// Group-key attributes.
    pub by: &'p [Sym],
    /// The aggregate applied per group.
    pub f: &'p GroupFn,
    /// Outer-scope bindings visible to subscript evaluation.
    pub env: Tuple,
    /// Materialized groups, streamed out one per pull.
    pub groups: Option<std::vec::IntoIter<(Tuple, Vec<Tuple>)>>,
}

impl Cursor for HashGroupUnary<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.groups.is_none() {
            let rows = drain(self.input.as_mut(), ctx)?;
            self.groups = Some(hash_groups(&rows, self.by, ctx).into_iter());
        }
        let Some((key_tuple, members)) = self.groups.as_mut().expect("grouped above").next() else {
            return Ok(None);
        };
        let v = apply_groupfn(self.f, &members, &self.env, ctx)?;
        Ok(Some(key_tuple.extend(self.g, v)))
    }

    fn op_name(&self) -> &'static str {
        "HashGroup"
    }
}

/// θ-grouping fallback: materialize, delegate to the reference semantics
/// (as the materializing executor does), stream the result.
pub struct ThetaGroupUnary<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// Attribute receiving the group aggregate.
    pub g: Sym,
    /// Group-key attributes.
    pub by: &'p [Sym],
    /// The grouping comparison.
    pub theta: nal::CmpOp,
    /// The aggregate applied per group.
    pub f: &'p GroupFn,
    /// Outer-scope bindings visible to subscript evaluation.
    pub env: Tuple,
    /// Materialized result, streamed out.
    pub out: Option<std::vec::IntoIter<Tuple>>,
}

impl Cursor for ThetaGroupUnary<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.out.is_none() {
            let rows = drain(self.input.as_mut(), ctx)?;
            let logical = nal::Expr::GroupUnary {
                input: Box::new(nal::Expr::Literal(rows)),
                g: self.g,
                by: self.by.to_vec(),
                theta: self.theta,
                f: self.f.clone(),
            };
            self.out = Some(eval(&logical, &self.env, ctx)?.into_iter());
        }
        Ok(self.out.as_mut().expect("evaluated above").next())
    }

    fn op_name(&self) -> &'static str {
        "ThetaGroup"
    }
}
