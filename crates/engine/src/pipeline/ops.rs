//! Streaming unary operators and the blocking (materialize-inside,
//! stream-out) grouping and Ξ operators.

use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

use nal::eval::{atomize_tuple, eval, xi, EvalCtx, EvalResult, Scope};
use nal::hash::FastBuild;
use nal::{GroupFn, ProjOp, Scalar, Sym, Tuple, Value, XiCmd};

use super::cursor::{drain, BoxCursor, Cursor, Meter, Pull};
use crate::exec::{group_key, hash_groups, unnest_tuple, Groups};
use crate::nested::Spooled;

/// σ — filter, one pull per surviving tuple.
pub struct Select<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// The predicate.
    pub pred: &'p Scalar,
    /// The predicate's nested blocks and their spools.
    pub(crate) blocks: Spooled<'p>,
    /// The scope the input's tuples are evaluated in.
    pub env: &'p Scope<'p>,
}

impl Cursor for Select<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        while let Some(t) = self.input.next(ctx)? {
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

/// Π / Π^D — projections. The distinct variants dedup incrementally (a
/// first-occurrence filter is order-preserving, so no materialization is
/// needed).
pub struct Project<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// The projection operation.
    pub op: &'p ProjOp,
    /// First-occurrence dedup state (distinct variants): the atomized
    /// output tuples themselves — equal columns, so equal tuples are
    /// equal value lists, and sharing the block costs no allocation.
    pub seen: HashSet<Tuple, FastBuild>,
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
            if self.seen.insert(out.clone()) {
                return Ok(Some(out));
            }
        }
    }

    fn op_name(&self) -> &'static str {
        "Project"
    }
}

/// One χ or Υ of a [`MapRun`].
pub struct Binder<'p> {
    /// The bound attribute.
    pub attr: Sym,
    /// The subscript computing the attribute's value (χ) or items (Υ).
    pub value: &'p Scalar,
    /// The subscript's nested blocks and their spools.
    pub(crate) blocks: Spooled<'p>,
    /// The operator's counter slot and trace identity.
    pub meter: Meter,
}

/// χ and Υ — a run of χ operators with at most one Υ among them, none of
/// whose subscripts reads a binding of the run
/// ([`crate::plan::PhysPlan::Map`]'s `fused`; a χ or Υ on its own is a
/// run of one). Every subscript is evaluated against the run's *input*
/// tuple and all bindings land in the output block with one merge,
/// instead of one block per operator. Each operator still does, and
/// counts, what it would on its own: a χ below the Υ is evaluated and
/// produces a tuple once per input tuple — also one the Υ fans out to
/// nothing — the Υ and a χ above it once per item.
pub struct MapRun<'p> {
    /// Input cursor of the run's bottom operator.
    pub input: BoxCursor<'p>,
    /// The run's operators, bottom-up.
    pub binders: Vec<Binder<'p>>,
    /// The position of the run's Υ among them, if it has one.
    pub fanout: Option<usize>,
    /// The attributes the run's top operator emits (`None`: all).
    pub keep: Option<&'p [Sym]>,
    /// The scope the input's tuples are evaluated in.
    pub env: &'p Scope<'p>,
    /// The run's bindings for the tuple being built, sorted by
    /// attribute; refilled per output tuple.
    pub bound: Vec<(Sym, Value)>,
    /// The input tuple being fanned out, the Υ's items and the next one.
    pub cur: Option<(Tuple, Value, usize)>,
}

impl<'p> MapRun<'p> {
    /// A run cursor over `input`.
    pub fn new(
        input: BoxCursor<'p>,
        binders: Vec<Binder<'p>>,
        fanout: Option<usize>,
        keep: Option<&'p [Sym]>,
        env: &'p Scope<'p>,
    ) -> MapRun<'p> {
        let mut bound: Vec<(Sym, Value)> = binders.iter().map(|b| (b.attr, Value::Null)).collect();
        bound.sort_by_key(|(a, _)| *a);
        MapRun {
            input,
            binders,
            fanout,
            keep,
            env,
            bound,
            cur: None,
        }
    }

    /// Evaluate the χ operators `maps` against `t` into their slots of
    /// `bound`.
    fn bind(
        bound: &mut [(Sym, Value)],
        maps: &[Binder<'_>],
        t: &Tuple,
        env: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<()> {
        for map in maps {
            let v = map.blocks.eval(map.value, t, env, ctx)?;
            Self::slot(bound, map.attr).1 = v;
        }
        Ok(())
    }

    fn slot(bound: &mut [(Sym, Value)], attr: Sym) -> &mut (Sym, Value) {
        let slot = bound.iter_mut().find(|(a, _)| *a == attr);
        slot.expect("every binding of the run has a slot")
    }

    /// Account for one pull of each of `binders`.
    fn pulled(binders: &[Binder<'_>], ctx: &mut EvalCtx<'_>, pull: &Option<Pull>, produced: bool) {
        for b in binders {
            b.meter.pulled(ctx, pull, produced);
        }
    }
}

impl Cursor for MapRun<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        // The operators producing once per input tuple, and once per
        // output tuple.
        let (per_input, per_output) = self.binders.split_at(self.fanout.unwrap_or(0));
        let pull = Pull::start(ctx);
        loop {
            if let Some((t, items, idx)) = &mut self.cur {
                if let Some(item) = items.as_items().get(*idx) {
                    *idx += 1;
                    Self::slot(&mut self.bound, per_output[0].attr).1 = item.clone();
                    Self::bind(&mut self.bound, &per_output[1..], t, self.env, ctx)?;
                    Self::pulled(per_output, ctx, &pull, true);
                    return Ok(Some(t.merged(&self.bound, self.keep)));
                }
            }
            let input_pull = Pull::start(ctx);
            let Some(t) = self.input.next(ctx)? else {
                Self::pulled(per_input, ctx, &input_pull, false);
                Self::pulled(per_output, ctx, &pull, false);
                return Ok(None);
            };
            Self::bind(&mut self.bound, per_input, &t, self.env, ctx)?;
            Self::pulled(per_input, ctx, &input_pull, true);
            if self.fanout.is_none() {
                Self::bind(&mut self.bound, per_output, &t, self.env, ctx)?;
                Self::pulled(per_output, ctx, &pull, true);
                return Ok(Some(t.merged(&self.bound, self.keep)));
            }
            let fanout = &per_output[0];
            let items = fanout.blocks.eval(fanout.value, &t, self.env, ctx)?;
            self.cur = Some((t, items, 0));
        }
    }

    fn op_name(&self) -> &'static str {
        self.binders
            .last()
            .expect("a run has an operator")
            .meter
            .name()
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
    /// The attributes emitted (`None`: all).
    pub keep: Option<&'p [Sym]>,
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
                t,
                self.attr,
                self.distinct,
                self.preserve_empty,
                self.inner_attrs,
                self.keep,
                ctx,
                |u| self.pending.push_back(u),
            )?;
        }
    }

    fn op_name(&self) -> &'static str {
        "Unnest"
    }
}

/// Fault-injection switch for the differential fuzzing oracle's mutation
/// test: when set, an [`IndexScan`] fans out its items in *reverse*
/// document order — an order violation of exactly the kind the ordered
/// context forbids. Read once per scan, when its items are resolved,
/// never per tuple. Never set outside tests.
static REVERSE_INDEX_SCANS: AtomicBool = AtomicBool::new(false);

/// Enable or disable the deliberate scan-order fault (see
/// [`REVERSE_INDEX_SCANS`]). Exposed so the fuzz oracle's mutation test
/// can prove the differential matrix catches order violations;
/// production code must never call this.
#[doc(hidden)]
pub fn reverse_index_scans_for_tests(on: bool) {
    REVERSE_INDEX_SCANS.store(on, Ordering::SeqCst);
}

/// Index-backed Υ: the item list comes from the path index (resolved
/// once, on the first pull — the path is document-rooted, so it is the
/// same for every input tuple) and fans out per input tuple exactly as
/// the replaced scan would, one output tuple built per pull.
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
    /// The attributes emitted (`None`: all).
    pub keep: Option<&'p [Sym]>,
    /// The resolved item sequence (fetched on first pull).
    pub items: Option<Vec<Value>>,
    /// The input tuple being fanned out and the next item's position.
    pub cur: Option<(Tuple, usize)>,
}

impl Cursor for IndexScan<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.items.is_none() {
            let mut items = crate::access::scan_items(self.uri, self.pattern, self.distinct, ctx)?;
            if REVERSE_INDEX_SCANS.load(Ordering::Relaxed) {
                items.reverse();
            }
            self.items = Some(items);
        }
        let items = self.items.as_ref().expect("resolved above");
        loop {
            if let Some((t, idx)) = &mut self.cur {
                if let Some(item) = items.get(*idx) {
                    *idx += 1;
                    return Ok(Some(t.merged(&[(self.attr, item.clone())], self.keep)));
                }
            }
            let Some(t) = self.input.next(ctx)? else {
                return Ok(None);
            };
            self.cur = Some((t, 0));
        }
    }

    fn op_name(&self) -> &'static str {
        "IndexScan"
    }
}

/// Ξ — result construction, fully pipelined: each pulled tuple is
/// serialized and passed through. When the input subtree itself writes Ξ
/// output, lowering inserts a `Materialize` barrier below this cursor so
/// the byte stream matches the reference evaluator's strict bottom-up
/// order.
pub struct XiSimple<'p> {
    /// Input cursor.
    pub input: BoxCursor<'p>,
    /// Serialization commands per tuple.
    pub cmds: &'p [XiCmd],
    /// The scope the input's tuples are evaluated in.
    pub env: &'p Scope<'p>,
}

impl Cursor for XiSimple<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        let Some(t) = self.input.next(ctx)? else {
            return Ok(None);
        };
        xi::run_cmds(self.cmds, &Scope::Row(&t, self.env), ctx)?;
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
    /// The scope the input's tuples are evaluated in.
    pub env: &'p Scope<'p>,
    /// Key text assembled on its way into a group's key tuple.
    pub scratch: String,
    /// Materialized groups, streamed out one per pull.
    pub(crate) groups: Option<Groups>,
}

impl Cursor for XiGroup<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.groups.is_none() {
            let rows = drain(self.input.as_mut(), ctx)?;
            self.groups = Some(hash_groups(rows, self.by, ctx));
        }
        let Some(members) = self.groups.as_mut().expect("grouped above").next_group() else {
            return Ok(None);
        };
        let key_tuple = group_key(members, self.by, ctx, &mut self.scratch);
        let key_env = Scope::Row(&key_tuple, self.env);
        xi::run_cmds(self.head, &key_env, ctx)?;
        for t in members {
            xi::run_cmds(self.body, &Scope::Row(t, self.env), ctx)?;
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
    /// The nested blocks of `f`'s filter and their spools.
    pub(crate) blocks: Spooled<'p>,
    /// The attributes of an output tuple: `by` and `g`.
    pub emits: Vec<Sym>,
    /// The scope the input's tuples are evaluated in.
    pub env: &'p Scope<'p>,
    /// Key text assembled on its way into an output tuple.
    pub scratch: String,
    /// Materialized groups, streamed out one per pull.
    pub(crate) groups: Option<Groups>,
}

impl Cursor for HashGroupUnary<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.groups.is_none() {
            let rows = drain(self.input.as_mut(), ctx)?;
            self.groups = Some(hash_groups(rows, self.by, ctx));
        }
        let Some(members) = self.groups.as_mut().expect("grouped above").next_group() else {
            return Ok(None);
        };
        let v = self.blocks.aggregate(self.f, members, self.env, ctx)?;
        // The atomized key and the aggregate in one block.
        Ok(Some(members[0].merged_with(
            &[(self.g, v)],
            Some(&self.emits),
            |v| v.atomize_in(ctx.catalog, &mut self.scratch),
        )))
    }

    fn op_name(&self) -> &'static str {
        "HashGroup"
    }
}

/// θ-grouping fallback: materialize, delegate to the reference evaluator
/// (nested blocks in `f`'s filter included), stream the result.
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
    /// The scope the input's tuples are evaluated in.
    pub env: &'p Scope<'p>,
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
            self.out = Some(eval(&logical, &self.env.flatten(), ctx)?.into_iter());
        }
        Ok(self.out.as_mut().expect("evaluated above").next())
    }

    fn op_name(&self) -> &'static str {
        "ThetaGroup"
    }
}
