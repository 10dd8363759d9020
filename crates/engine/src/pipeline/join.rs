//! Streaming binary operators: ×, hash/loop joins (inner, semi, anti,
//! outer), and binary grouping.
//!
//! The probe side (left) streams; the build side (right) is materialized
//! on first pull — or arrives already built, shared by the workers of a
//! parallel segment — preserving arrival order inside each hash bucket
//! so the join emits exactly the sequence the definitional nested loop
//! would. Semi and anti joins short-circuit per probe tuple: the first
//! passing match decides the tuple's fate and the rest of the bucket is
//! never examined. Loop joins do not pair every left tuple with every
//! right row either: [`crate::theta`] filters the build by the
//! predicate's right-only part once and probes an ordered key window for
//! its range conjuncts. [`EvalCtx`]'s `probe_tuples` metric counts
//! right-side candidates actually examined, which is how tests observe
//! both savings.

use std::collections::HashMap;
use std::sync::Arc;

use nal::hash::FastBuild;

use nal::eval::{eval, EvalCtx, EvalResult, Scope};
use nal::{GroupFn, Scalar, Sym, Tuple};
use xmldb::Catalog;

use super::cursor::{drain, BoxCursor, Cursor, Feed};
use crate::key::{probe_key, Key};
use crate::nested::Spooled;
use crate::plan::JoinKind;
use crate::theta::{ThetaBuild, ThetaSplit, Walk};

/// A hash build side: rows bucketed by key, arrival order kept inside
/// each bucket (the order-preserving hash join of §2). The stored keys
/// own their text; a probe looks up with a key that borrows the probing
/// tuple's, so probing copies no string.
pub struct Buckets {
    index: HashMap<Key<'static>, usize, FastBuild>,
    rows: Vec<Vec<Tuple>>,
}

impl Buckets {
    /// Bucket `rows` by their `keys` attributes; rows with a NULL or
    /// missing key component join nothing and are dropped.
    pub fn build(rows: Vec<Tuple>, keys: &[Sym], catalog: &Catalog) -> Buckets {
        // Pre-sized from the build-side cardinality: no rehashing.
        let mut index: HashMap<Key<'static>, usize, FastBuild> =
            HashMap::with_capacity_and_hasher(rows.len(), FastBuild);
        let mut buckets: Vec<Vec<Tuple>> = Vec::new();
        let mut scratch = String::new();
        for rt in rows {
            if let Some((k, _)) = probe_key(&rt, keys, catalog, &mut scratch) {
                let slot = match index.get(&k) {
                    Some(&slot) => slot,
                    None => {
                        index.insert(k.into_owned(), buckets.len());
                        buckets.push(Vec::new());
                        buckets.len() - 1
                    }
                };
                buckets[slot].push(rt);
            }
        }
        Buckets {
            index,
            rows: buckets,
        }
    }

    /// The bucket the `keys` attributes of `t` select, if any. Key text
    /// stored in several pieces is assembled in `scratch`.
    pub fn slot_of(
        &self,
        t: &Tuple,
        keys: &[Sym],
        catalog: &Catalog,
        scratch: &mut String,
    ) -> Option<usize> {
        let (key, _) = probe_key(t, keys, catalog, scratch)?;
        self.index.get(&key).copied()
    }

    /// The rows of a bucket, in arrival order.
    pub fn bucket(&self, slot: usize) -> &[Tuple] {
        &self.rows[slot]
    }
}

/// × — materialize the right side, stream the left.
pub struct Cross<'p> {
    /// Left (probe/outer) input.
    pub left: Feed<'p>,
    /// Right (build/inner) input; `None` when `right_rows` arrives
    /// materialized.
    pub right: Option<BoxCursor<'p>>,
    /// The attributes emitted (`None`: all).
    pub keep: Option<&'p [Sym]>,
    /// Materialize left before right (Ξ in a subtree needs the
    /// reference evaluator's left-then-right evaluation order).
    pub strict: bool,
    /// Materialized right side (shared by the workers of a parallel
    /// segment).
    pub right_rows: Option<Arc<Vec<Tuple>>>,
    /// Current left tuple being crossed.
    pub cur_left: Option<Tuple>,
    /// Position within the materialized right side.
    pub ridx: usize,
}

impl Cursor for Cross<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.right_rows.is_none() {
            if self.strict {
                self.left.buffer_now(ctx)?;
            }
            let right = self.right.as_mut().expect("an inner side to drain");
            self.right_rows = Some(Arc::new(drain(right.as_mut(), ctx)?));
        }
        let right = self.right_rows.as_ref().expect("built above");
        loop {
            if let Some(lt) = &self.cur_left {
                if let Some(rt) = right.get(self.ridx) {
                    self.ridx += 1;
                    return Ok(Some(lt.concat_keep(rt, self.keep)));
                }
                self.cur_left = None;
            }
            match self.left.next(ctx)? {
                Some(lt) => {
                    self.cur_left = Some(lt);
                    self.ridx = 0;
                }
                None => return Ok(None),
            }
        }
    }

    fn op_name(&self) -> &'static str {
        "Cross"
    }
}

/// What an operator restricted to `keep` emits of a tuple it had to
/// build whole, because a residual or θ-predicate read it first.
fn narrowed(t: Tuple, keep: Option<&[Sym]>) -> Tuple {
    match keep {
        None => t,
        Some(keep) => t.project(keep),
    }
}

/// Join-kind-independent emission decision for a finished probe tuple.
fn unmatched_output(kind: &JoinKind, pad: &[Sym], lt: &Tuple) -> Option<Tuple> {
    match kind {
        JoinKind::Anti => Some(lt.clone()),
        JoinKind::Outer { g, default } => {
            Some(lt.concat(&Tuple::bottom(pad)).extend(*g, default.clone()))
        }
        JoinKind::Inner | JoinKind::Semi => None,
    }
}

/// Order-preserving hash join. Build buckets on the right (insertion
/// order within a bucket = right arrival order), probe left tuples in
/// stream order.
pub struct HashJoin<'p> {
    /// Left (probe/outer) input.
    pub left: Feed<'p>,
    /// Right (build/inner) input; `None` when `build` arrives built.
    pub right: Option<BoxCursor<'p>>,
    /// Probe-side key attributes.
    pub left_keys: &'p [Sym],
    /// Build-side key attributes.
    pub right_keys: &'p [Sym],
    /// Non-equi conjuncts evaluated per bucket match.
    pub residual: Option<&'p Scalar>,
    /// The residual's nested blocks and their spools.
    pub(crate) blocks: Spooled<'p>,
    /// How matches are consumed.
    pub kind: &'p JoinKind,
    /// Outer-join NULL padding.
    pub pad: &'p [Sym],
    /// The attributes an inner/outer join emits (`None`: all).
    pub keep: Option<&'p [Sym]>,
    /// The scope the joined tuples are evaluated in.
    pub env: &'p Scope<'p>,
    /// Materialize left before right (Ξ evaluation-order barrier).
    pub strict: bool,
    /// Probe-key text assembled for a lookup.
    pub scratch: String,
    /// The build side, bucketed on first pull (iteration state holds
    /// plain bucket slots) or handed in by a parallel segment.
    pub build: Option<Arc<Buckets>>,
    /// Inner/outer iteration state: (probe tuple, bucket, position,
    /// matched-so-far).
    pub cur: Option<(Tuple, Option<usize>, usize, bool)>,
}

impl HashJoin<'_> {
    fn residual_passes(&self, joined: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<bool> {
        match self.residual {
            None => Ok(true),
            Some(p) => self.blocks.truthy(p, joined, self.env, ctx),
        }
    }
}

impl Cursor for HashJoin<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.build.is_none() {
            if self.strict {
                self.left.buffer_now(ctx)?;
            }
            let right = self.right.as_mut().expect("a build side to drain");
            let rows = drain(right.as_mut(), ctx)?;
            self.build = Some(Arc::new(Buckets::build(rows, self.right_keys, ctx.catalog)));
        }
        let build = self.build.as_ref().expect("built above");
        loop {
            // Resume an inner/outer probe mid-bucket.
            if let Some((lt, slot, mut pos, mut matched)) = self.cur.take() {
                if let Some(slot) = slot {
                    while let Some(rt) = build.bucket(slot).get(pos) {
                        // Only a residual needs to see the whole pair.
                        let joined = match self.residual {
                            None => lt.concat_keep(rt, self.keep),
                            Some(_) => lt.concat(rt),
                        };
                        pos += 1;
                        ctx.metrics.probe_tuples += 1;
                        if self.residual_passes(&joined, ctx)? {
                            matched = true;
                            self.cur = Some((lt, Some(slot), pos, matched));
                            return Ok(Some(narrowed(joined, self.keep)));
                        }
                    }
                }
                if !matched {
                    if let Some(out) = unmatched_output(self.kind, self.pad, &lt) {
                        return Ok(Some(narrowed(out, self.keep)));
                    }
                }
                continue;
            }
            let Some(lt) = self.left.next(ctx)? else {
                return Ok(None);
            };
            let slot = build.slot_of(&lt, self.left_keys, ctx.catalog, &mut self.scratch);
            match self.kind {
                JoinKind::Inner | JoinKind::Outer { .. } => {
                    self.cur = Some((lt, slot, 0, false));
                }
                JoinKind::Semi | JoinKind::Anti => {
                    let mut matched = false;
                    if let Some(slot) = slot {
                        // Short-circuit: the first passing match decides.
                        // Only a residual needs to see the joined tuple.
                        for rt in build.bucket(slot) {
                            ctx.metrics.probe_tuples += 1;
                            if self.residual.is_none()
                                || self.residual_passes(&lt.concat(rt), ctx)?
                            {
                                matched = true;
                                break;
                            }
                        }
                    }
                    let emit = matches!(self.kind, JoinKind::Semi) == matched;
                    if emit {
                        return Ok(Some(lt));
                    }
                }
            }
        }
    }

    fn op_name(&self) -> &'static str {
        match self.kind {
            JoinKind::Inner => "HashJoin",
            JoinKind::Semi => "HashSemiJoin",
            JoinKind::Anti => "HashAntiJoin",
            JoinKind::Outer { .. } => "HashOuterJoin",
        }
    }
}

/// Join for non-equi predicates. The right side is materialized into a
/// [`ThetaBuild`] (or arrives built), the left streams, and the shared
/// θ-probe decides each left tuple: semi/anti probes stop at the first
/// verified candidate, inner/outer probes walk their candidates in
/// right arrival order.
pub struct LoopJoin<'p> {
    /// Left (probe/outer) input.
    pub left: Feed<'p>,
    /// Right (build/inner) input; `None` when `build` arrives built.
    pub right: Option<BoxCursor<'p>>,
    /// The predicate, split by side.
    pub split: &'p ThetaSplit,
    /// The pair part's nested blocks and their spools.
    pub(crate) blocks: Spooled<'p>,
    /// How matches are consumed.
    pub kind: &'p JoinKind,
    /// Outer-join NULL padding.
    pub pad: &'p [Sym],
    /// The attributes an inner/outer join emits (`None`: all).
    pub keep: Option<&'p [Sym]>,
    /// The scope the joined tuples are evaluated in.
    pub env: &'p Scope<'p>,
    /// Materialize left before right (Ξ evaluation-order barrier).
    pub strict: bool,
    /// The build side, prepared on first pull or handed in by a
    /// parallel segment.
    pub build: Option<Arc<ThetaBuild>>,
    /// The inner/outer probe being resumed.
    pub cur: Option<Walk>,
}

impl Cursor for LoopJoin<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.build.is_none() {
            if self.strict {
                self.left.buffer_now(ctx)?;
            }
            let right = self.right.as_mut().expect("a build side to drain");
            let rows = drain(right.as_mut(), ctx)?;
            self.build = Some(Arc::new(ThetaBuild::new(rows, self.split, self.env, ctx)?));
        }
        let build = self.build.as_ref().expect("built above");
        loop {
            if let Some(mut walk) = self.cur.take() {
                let next = build.next_match(self.split, &mut walk, self.env, &self.blocks, ctx)?;
                if let Some(joined) = next {
                    self.cur = Some(walk);
                    return Ok(Some(narrowed(joined, self.keep)));
                }
                if let Some(lt) = walk.unmatched() {
                    if let Some(out) = unmatched_output(self.kind, self.pad, lt) {
                        return Ok(Some(narrowed(out, self.keep)));
                    }
                }
            }
            let Some(lt) = self.left.next(ctx)? else {
                return Ok(None);
            };
            match self.kind {
                JoinKind::Inner | JoinKind::Outer { .. } => {
                    self.cur = Some(build.walk(self.split, lt, self.env, ctx)?);
                }
                JoinKind::Semi | JoinKind::Anti => {
                    let matched = build.matches(self.split, &lt, self.env, &self.blocks, ctx)?;
                    if matches!(self.kind, JoinKind::Semi) == matched {
                        return Ok(Some(lt));
                    }
                }
            }
        }
    }

    fn op_name(&self) -> &'static str {
        match self.kind {
            JoinKind::Inner => "LoopJoin",
            JoinKind::Semi => "LoopSemiJoin",
            JoinKind::Anti => "LoopAntiJoin",
            JoinKind::Outer { .. } => "LoopOuterJoin",
        }
    }
}

/// Index-backed semi/anti quantifier join: no build side at all — each
/// probe tuple is answered by the recipe's driver (point, composite, or
/// range probe of the value indexes), plus residual evaluation over
/// reconstructed candidates in document order when present.
/// Short-circuits exactly like the hash cursors: the first passing
/// candidate decides. Probe semantics and metric accounting live in the
/// recipe runtime ([`crate::access::IndexJoinAccess`]), which serial and
/// parallel runs share, so both report identical
/// `index_lookups`/`index_hits` by construction.
pub struct IndexJoin<'p> {
    /// Left (probe/outer) input.
    pub left: super::cursor::BoxCursor<'p>,
    /// The declarative access path.
    pub recipe: &'p crate::access::AccessRecipe,
    /// The residual's nested blocks and their spools.
    pub(crate) blocks: Spooled<'p>,
    /// The scope the probe tuples are evaluated in.
    pub env: &'p Scope<'p>,
    /// Resolved index state (first pull).
    pub access: Option<crate::access::IndexJoinAccess>,
    /// Whether the decision is probe-invariant (constant range bounds,
    /// no residual) — computed once at lowering.
    pub cacheable: bool,
    /// Memoized decision for probe-invariant joins.
    pub cached: Option<bool>,
    /// Inside a parallel segment, the claim-or-wait group a
    /// probe-invariant join decides through: one probe per segment, as
    /// one memoized probe per serial cursor.
    pub(crate) group: Option<Arc<super::par::ProbeGroup>>,
}

impl Cursor for IndexJoin<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.access.is_none() {
            self.access = Some(crate::access::IndexJoinAccess::resolve(self.recipe, ctx)?);
        }
        while let Some(lt) = self.left.next(ctx)? {
            let access = self.access.as_mut().expect("resolved above");
            let matched = match self.cached {
                Some(m) => m,
                None => {
                    let mut probe =
                        || access.probe_matches(self.recipe, &lt, self.env, &self.blocks, ctx);
                    let m = match &self.group {
                        Some(group) => group.decide(probe)?,
                        None => probe()?,
                    };
                    if self.cacheable {
                        self.cached = Some(m);
                    }
                    m
                }
            };
            let emit = matches!(self.recipe.kind, JoinKind::Semi) == matched;
            if emit {
                return Ok(Some(lt));
            }
        }
        Ok(None)
    }

    fn op_name(&self) -> &'static str {
        self.recipe.op_name()
    }
}

/// Binary Γ with hash lookup: build buckets on the right once, then
/// stream the left, aggregating each tuple's group lazily.
pub struct HashGroupBinary<'p> {
    /// Left (probe/outer) input.
    pub left: Feed<'p>,
    /// Right (build/inner) input.
    pub right: BoxCursor<'p>,
    /// Attribute receiving the group aggregate.
    pub g: Sym,
    /// Left-side match attributes.
    pub left_on: &'p [Sym],
    /// Right-side match attributes.
    pub right_on: &'p [Sym],
    /// The aggregate applied per group.
    pub f: &'p GroupFn,
    /// The nested blocks of `f`'s filter and their spools.
    pub(crate) blocks: Spooled<'p>,
    /// The attributes emitted (`None`: all).
    pub keep: Option<&'p [Sym]>,
    /// The scope the probe tuples are evaluated in.
    pub env: &'p Scope<'p>,
    /// Materialize left before right (Ξ evaluation-order barrier).
    pub strict: bool,
    /// Probe-key text assembled for a lookup.
    pub scratch: String,
    /// The right side bucketed by key (the groups), built on first pull.
    pub buckets: Option<Buckets>,
}

impl Cursor for HashGroupBinary<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.buckets.is_none() {
            if self.strict {
                self.left.buffer_now(ctx)?;
            }
            let rows = drain(self.right.as_mut(), ctx)?;
            self.buckets = Some(Buckets::build(rows, self.right_on, ctx.catalog));
        }
        let Some(lt) = self.left.next(ctx)? else {
            return Ok(None);
        };
        let buckets = self.buckets.as_ref().expect("built above");
        let members = buckets
            .slot_of(&lt, self.left_on, ctx.catalog, &mut self.scratch)
            .map_or(&[][..], |slot| buckets.bucket(slot));
        let v = self.blocks.aggregate(self.f, members, self.env, ctx)?;
        Ok(Some(lt.merged(&[(self.g, v)], self.keep)))
    }

    fn op_name(&self) -> &'static str {
        "HashNestJoin"
    }
}

/// θ binary grouping fallback: materialize both sides, delegate to the
/// reference evaluator (nested blocks in `f`'s filter included), stream
/// the result.
pub struct ThetaGroupBinary<'p> {
    /// Left (probe/outer) input.
    pub left: BoxCursor<'p>,
    /// Right (build/inner) input.
    pub right: BoxCursor<'p>,
    /// Attribute receiving the group aggregate.
    pub g: Sym,
    /// Left-side match attributes.
    pub left_on: &'p [Sym],
    /// The grouping comparison.
    pub theta: nal::CmpOp,
    /// Right-side match attributes.
    pub right_on: &'p [Sym],
    /// The aggregate applied per group.
    pub f: &'p GroupFn,
    /// The scope the input's tuples are evaluated in.
    pub env: &'p Scope<'p>,
    /// Materialized result, streamed out.
    pub out: Option<std::vec::IntoIter<Tuple>>,
}

impl Cursor for ThetaGroupBinary<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.out.is_none() {
            // Left first — matching the reference evaluator's
            // evaluation order for any side effects.
            let l = drain(self.left.as_mut(), ctx)?;
            let r = drain(self.right.as_mut(), ctx)?;
            let logical = nal::Expr::GroupBinary {
                left: Box::new(nal::Expr::Literal(l)),
                right: Box::new(nal::Expr::Literal(r)),
                g: self.g,
                left_on: self.left_on.to_vec(),
                theta: self.theta,
                right_on: self.right_on.to_vec(),
                f: self.f.clone(),
            };
            self.out = Some(eval(&logical, &self.env.flatten(), ctx)?.into_iter());
        }
        Ok(self.out.as_mut().expect("evaluated above").next())
    }

    fn op_name(&self) -> &'static str {
        "ThetaNestJoin"
    }
}
