//! Streaming binary operators: the join (×, ⋈, ⋉, ▷ and ⟕, one cursor
//! for both build strategies) and the nest join (binary Γ, one cursor
//! for every θ).
//!
//! The probe side (left) streams; the build side (right) is materialized
//! on first pull — into hash [`Buckets`] for equi-joins, into a
//! [`ThetaBuild`] for any other predicate — preserving right arrival
//! order so the join emits exactly the sequence the definitional nested
//! loop would. Both builds answer the same three questions: the
//! candidates of a probe tuple, the `i`-th of them, and (by the cursor)
//! whether one passes. Semi and anti joins short-circuit per probe
//! tuple: the first passing candidate decides the tuple's fate and the
//! rest are never examined. θ-joins do not pair every left tuple with
//! every right row either: [`crate::theta`] filters the build by the
//! predicate's right-only part once and probes an ordered key window for
//! its range conjuncts. [`EvalCtx`]'s `probe_tuples` metric counts
//! right-side candidates actually examined, which is how tests observe
//! both savings.

use std::collections::HashMap;

use nal::hash::FastBuild;

use nal::eval::{EvalCtx, EvalResult, Scope};
use nal::{CmpOp, GroupFn, Scalar, Sym, Tuple};
use xmldb::Catalog;

use super::cursor::{drain, BoxCursor, Cursor, Feed};
use crate::exec::keys_match;
use crate::key::{probe_key, Key};
use crate::nested::Spooled;
use crate::plan::{JoinKind, JoinOn};
use crate::theta::{Candidates, ThetaBuild, ThetaSplit};

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

/// What an operator restricted to `keep` emits of a tuple it had to
/// build whole, because a residual or θ-predicate read it first.
fn narrowed(t: Tuple, keep: Option<&[Sym]>) -> Tuple {
    match keep {
        None => t,
        Some(keep) => t.project(keep),
    }
}

/// A [`Join`]'s build side, prepared on first pull with the probe
/// parameters of its strategy.
enum Build<'p> {
    /// Bucketed by the build keys; a probe looks up `left_keys`.
    Hash {
        buckets: Buckets,
        left_keys: &'p [Sym],
    },
    /// Filtered and ordered by the split ([`crate::theta`]).
    Theta {
        build: ThetaBuild,
        split: &'p ThetaSplit,
    },
}

/// The build rows one probe tuple examines.
enum Probe {
    /// A bucket, in arrival order (`None`: no row has the probe's key).
    Bucket(Option<usize>),
    /// The θ-probe's candidates.
    Theta(Candidates),
}

impl Build<'_> {
    /// The candidates of probe tuple `lt`. `arrival_order`: a θ key
    /// window is put back into right arrival order (joins that emit
    /// matches need it; semi/anti joins take any witness).
    fn probe(
        &self,
        lt: &Tuple,
        arrival_order: bool,
        env: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
        scratch: &mut String,
    ) -> EvalResult<Probe> {
        Ok(match self {
            Build::Hash { buckets, left_keys } => {
                Probe::Bucket(buckets.slot_of(lt, left_keys, ctx.catalog, scratch))
            }
            Build::Theta { build, split } => {
                Probe::Theta(build.candidates(split, lt, arrival_order, env, ctx)?)
            }
        })
    }

    /// The `i`-th candidate's row.
    fn candidate(&self, probe: &Probe, i: usize) -> Option<&Tuple> {
        match (self, probe) {
            (Build::Hash { buckets, .. }, Probe::Bucket(Some(slot))) => {
                buckets.bucket(*slot).get(i)
            }
            (Build::Theta { build, .. }, Probe::Theta(candidates)) => {
                build.candidate(candidates, i)
            }
            _ => None,
        }
    }
}

/// One probe tuple's walk over its candidates in right arrival order
/// (inner and outer joins resume it between emitted matches).
struct Walk {
    lt: Tuple,
    probe: Probe,
    next: usize,
    matched: bool,
}

/// ×, ⋈, ⋉, ▷ and ⟕ with either build strategy. The left side streams;
/// the right is materialized on first pull into [`Buckets`] or a
/// [`ThetaBuild`]. Semi and anti joins stop at the first passing
/// candidate; inner and outer joins walk their candidates in right
/// arrival order, so every join emits the definitional sequence.
pub struct Join<'p> {
    left: Feed<'p>,
    right: BoxCursor<'p>,
    on: &'p JoinOn,
    /// What is evaluated per candidate: a hash join's residual, a
    /// θ-join's pair part.
    pair: Option<&'p Scalar>,
    /// `pair`'s nested blocks and their spools.
    blocks: Spooled<'p>,
    kind: &'p JoinKind,
    /// The attributes an inner/outer join emits (`None`: all).
    keep: Option<&'p [Sym]>,
    /// The scope the joined tuples are evaluated in.
    env: &'p Scope<'p>,
    /// Materialize left before right (Ξ evaluation-order barrier).
    strict: bool,
    /// Probe-key text assembled for a lookup.
    scratch: String,
    build: Option<Build<'p>>,
    cur: Option<Walk>,
}

impl<'p> Join<'p> {
    /// A join of `kind` by `on`, emitting `keep`, evaluated in `env`;
    /// `strict` buffers the left input before the right is drained.
    pub fn new(
        left: BoxCursor<'p>,
        right: BoxCursor<'p>,
        on: &'p JoinOn,
        kind: &'p JoinKind,
        keep: Option<&'p [Sym]>,
        env: &'p Scope<'p>,
        strict: bool,
    ) -> Join<'p> {
        let pair = match on {
            JoinOn::Hash { residual, .. } => residual.as_ref(),
            JoinOn::Theta { split, .. } => split.pair.as_ref(),
        };
        Join {
            left: Feed::Stream(left),
            right,
            on,
            pair,
            blocks: on.blocks().spooled(),
            kind,
            keep,
            env,
            strict,
            scratch: String::new(),
            build: None,
            cur: None,
        }
    }

    /// Does candidate `rt` match `lt`? The one place a join counts
    /// `probe_tuples`.
    fn passes(&self, lt: &Tuple, rt: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<bool> {
        ctx.metrics.probe_tuples += 1;
        match self.pair {
            None => Ok(true),
            Some(p) => self.blocks.truthy(p, &lt.concat(rt), self.env, ctx),
        }
    }

    /// [`Self::passes`] for a join that emits the pair: the emitted
    /// tuple if `rt` matches. Only a per-pair predicate needs the whole
    /// pair built before `keep` narrows it.
    fn joined(&self, lt: &Tuple, rt: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        ctx.metrics.probe_tuples += 1;
        let Some(p) = self.pair else {
            return Ok(Some(lt.concat_keep(rt, self.keep)));
        };
        let joined = lt.concat(rt);
        let passes = self.blocks.truthy(p, &joined, self.env, ctx)?;
        Ok(passes.then(|| narrowed(joined, self.keep)))
    }
}

impl Cursor for Join<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.build.is_none() {
            if self.strict {
                self.left.buffer_now(ctx)?;
            }
            let rows = drain(self.right.as_mut(), ctx)?;
            self.build = Some(match self.on {
                JoinOn::Hash {
                    left_keys,
                    right_keys,
                    ..
                } => Build::Hash {
                    buckets: Buckets::build(rows, right_keys, ctx.catalog),
                    left_keys,
                },
                JoinOn::Theta { split, .. } => Build::Theta {
                    build: ThetaBuild::new(rows, split, self.env, ctx)?,
                    split,
                },
            });
        }
        let build = self.build.as_ref().expect("built above");
        loop {
            // Resume an inner/outer walk.
            if let Some(mut walk) = self.cur.take() {
                while let Some(rt) = build.candidate(&walk.probe, walk.next) {
                    walk.next += 1;
                    if let Some(out) = self.joined(&walk.lt, rt, ctx)? {
                        walk.matched = true;
                        self.cur = Some(walk);
                        return Ok(Some(out));
                    }
                }
                if let (false, JoinKind::Outer { g, default, pad }) = (walk.matched, self.kind) {
                    let padded = walk.lt.concat(&Tuple::bottom(pad));
                    return Ok(Some(narrowed(
                        padded.extend(*g, default.clone()),
                        self.keep,
                    )));
                }
            }
            let Some(lt) = self.left.next(ctx)? else {
                return Ok(None);
            };
            let emits = matches!(self.kind, JoinKind::Inner | JoinKind::Outer { .. });
            let probe = build.probe(&lt, emits, self.env, ctx, &mut self.scratch)?;
            if emits {
                self.cur = Some(Walk {
                    lt,
                    probe,
                    next: 0,
                    matched: false,
                });
                continue;
            }
            // Semi/anti: the first passing candidate decides. A θ-probe
            // with nothing to verify per pair is decided by whether it
            // has a candidate, examining none.
            let matched = match (build, self.pair) {
                (Build::Theta { .. }, None) => build.candidate(&probe, 0).is_some(),
                _ => {
                    let mut i = 0;
                    loop {
                        let Some(rt) = build.candidate(&probe, i) else {
                            break false;
                        };
                        if self.passes(&lt, rt, ctx)? {
                            break true;
                        }
                        i += 1;
                    }
                }
            };
            if matches!(self.kind, JoinKind::Semi) == matched {
                return Ok(Some(lt));
            }
        }
    }

    fn op_name(&self) -> &'static str {
        self.on.op_name(self.kind)
    }
}

/// Index-backed semi/anti quantifier join: no build side at all — each
/// probe tuple is answered by the recipe's driver (point, composite, or
/// range probe of the value indexes), plus residual evaluation over
/// reconstructed candidates in document order when present.
/// Short-circuits exactly like the hash cursors: the first passing
/// candidate decides. Probe semantics and metric accounting live in the
/// recipe runtime ([`crate::access::IndexJoinAccess`]).
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
                    let m = access.probe_matches(self.recipe, &lt, self.env, &self.blocks, ctx)?;
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

/// Binary Γ (the nest join): build the right side once, then stream the
/// left, aggregating each tuple's group lazily. For `=` the right rows
/// are bucketed by key ([`Buckets`]); for another θ each left tuple scans
/// them.
pub struct NestJoin<'p> {
    /// Left (probe/outer) input.
    pub left: Feed<'p>,
    /// Right (build/inner) input.
    pub right: BoxCursor<'p>,
    /// Attribute receiving the group aggregate.
    pub g: Sym,
    /// Left-side match attributes.
    pub left_on: &'p [Sym],
    /// The grouping comparison.
    pub theta: CmpOp,
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
    /// The right side, built on first pull.
    pub(crate) build: Option<NestBuild>,
    /// The current left tuple's group (θ only).
    pub members: Vec<Tuple>,
}

/// A [`NestJoin`]'s right side.
pub(crate) enum NestBuild {
    /// `=`: bucketed by key (the groups).
    Hash(Buckets),
    /// Another θ: the rows, in arrival order.
    Theta(Vec<Tuple>),
}

impl Cursor for NestJoin<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.build.is_none() {
            if self.strict {
                self.left.buffer_now(ctx)?;
            }
            let rows = drain(self.right.as_mut(), ctx)?;
            self.build = Some(match self.theta {
                CmpOp::Eq => NestBuild::Hash(Buckets::build(rows, self.right_on, ctx.catalog)),
                _ => NestBuild::Theta(rows),
            });
        }
        let Some(lt) = self.left.next(ctx)? else {
            return Ok(None);
        };
        let members = match self.build.as_ref().expect("built above") {
            NestBuild::Hash(buckets) => buckets
                .slot_of(&lt, self.left_on, ctx.catalog, &mut self.scratch)
                .map_or(&[][..], |slot| buckets.bucket(slot)),
            NestBuild::Theta(rows) => {
                let (left_on, right_on) = (self.left_on, self.right_on);
                let matching = rows
                    .iter()
                    .filter(|rt| keys_match(&lt, left_on, rt, right_on, self.theta, ctx.catalog));
                self.members.clear();
                self.members.extend(matching.cloned());
                &self.members
            }
        };
        let v = self.blocks.aggregate(self.f, members, self.env, ctx)?;
        Ok(Some(lt.merged(&[(self.g, v)], self.keep)))
    }

    fn op_name(&self) -> &'static str {
        match self.theta {
            CmpOp::Eq => "HashNestJoin",
            _ => "ThetaNestJoin",
        }
    }
}
