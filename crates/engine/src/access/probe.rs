//! Recipe execution: the runtime side of the access-path IR.
//!
//! [`IndexJoinAccess`] resolves an [`AccessRecipe`] against the catalog
//! once per join and then answers each probe tuple. Serial runs and the
//! workers of a parallel segment call the same
//! `IndexJoinAccess::probe_matches`, so probe semantics and
//! `index_lookups`/`index_hits`/`probe_tuples` accounting are identical
//! by construction (`probe_tuples` counts examined candidates, matching
//! where the scan-based join cursors track it).

use std::ops::Bound;
use std::sync::Arc;

use nal::eval::{EvalCtx, EvalError, EvalResult, Scope};
use nal::{NodeRef, Sym, Tuple, Value};
use xmldb::{CompositeValueIndex, NodeId, ValueIndex, ValueKey};

use crate::key::{key_val, probe_val};
use crate::nested::Spooled;

use super::doc_id_of;
use super::recipe::{AccessRecipe, AncestorMode, BuildOp, Driver};

/// Which node fills a field of a reconstructed chain's seed tuple.
#[derive(Clone, Copy)]
enum Seed {
    /// The document node (a `doc(uri)` binding).
    Doc,
    /// The `i`-th member node of a composite entry.
    Member(usize),
    /// The `i`-th ancestor binding (fixed walk or matched assignment).
    Ancestor(usize),
    /// The candidate itself (the key column).
    Key,
}

/// Resolved runtime state of one index-backed join: the (composite)
/// value index the recipe's driver probes, and the build-row
/// reconstruction with the buffers every probe reuses.
pub struct IndexJoinAccess {
    vindex: Option<Arc<ValueIndex>>,
    cindex: Option<Arc<CompositeValueIndex>>,
    /// The evaluated probe sides of the current range probe.
    sides: Vec<(Value, nal::CmpOp)>,
    /// Probe-key text assembled for a lookup.
    scratch: String,
    rows: RowBuilder,
}

/// Reconstruction of a candidate's build rows. The seed tuple's shape is
/// worked out once per join and the row buffers live across probes, so
/// a probe allocates for the tuples it builds and nothing else.
struct RowBuilder {
    doc: xmldb::DocId,
    /// The attributes every reconstructed chain starts from (the values
    /// are placeholders), and per field — in the tuple's attribute
    /// order — the node that fills it. A seed tuple is then one
    /// allocation: no pair list, no sort.
    seed_shape: Tuple,
    seed_nodes: Vec<Seed>,
    /// Fixed-walk ancestors of the current candidate.
    ancestors: Vec<NodeId>,
    /// The replayed pipeline's current stage and the one being filled.
    stage: Vec<Tuple>,
    next: Vec<Tuple>,
    /// Every build row of the current candidate, in build order.
    rows: Vec<Tuple>,
}

impl IndexJoinAccess {
    /// Resolve the recipe's index through the catalog (building it
    /// lazily on first use).
    ///
    /// Recipes are declarative, so one compiled before a document
    /// update is still *correct* — the indexes resolved here are the
    /// delta-maintained (or lazily rebuilt) current ones. The recipe's
    /// epoch stamp is re-validated against the document's: when the
    /// document has advanced and the pattern no longer resolves (e.g.
    /// the URI was re-registered with structurally different content),
    /// the failure is reported as recipe staleness rather than as an
    /// unexplained resolution error.
    pub fn resolve(recipe: &AccessRecipe, ctx: &EvalCtx<'_>) -> EvalResult<IndexJoinAccess> {
        let doc = doc_id_of(&recipe.uri, ctx)?;
        let stale = ctx.catalog.epoch(doc) != recipe.epoch;
        let unresolvable = |what: &str| {
            if stale {
                EvalError::new(format!(
                    "stale access recipe: document `{}` was updated since the plan \
                     was compiled and {what} `{}` no longer resolves — recompile the plan",
                    recipe.uri, recipe.pattern
                ))
            } else {
                EvalError::new(format!(
                    "{what} `{}` is not index-resolvable",
                    recipe.pattern
                ))
            }
        };
        let (vindex, cindex) = match &recipe.driver {
            Driver::Composite { spec, .. } => {
                let idx = ctx
                    .catalog
                    .composite_index(doc, spec)
                    .ok_or_else(|| unresolvable("composite pattern"))?;
                (None, Some(idx))
            }
            _ => {
                let idx = ctx
                    .catalog
                    .value_index(doc, &recipe.pattern)
                    .ok_or_else(|| unresolvable("pattern"))?;
                (Some(idx), None)
            }
        };
        // The seed bindings in binding order: doc seeds, composite member
        // columns, ancestor bindings, the key column.
        let mut seeds: Vec<(Sym, Seed)> = Vec::new();
        seeds.extend(recipe.doc_seeds.iter().map(|&a| (a, Seed::Doc)));
        if let Driver::Composite { member_attrs, .. } = &recipe.driver {
            seeds.extend(
                member_attrs
                    .iter()
                    .enumerate()
                    .map(|(i, &a)| (a, Seed::Member(i))),
            );
        }
        let ancestor_attrs: Vec<Sym> = match &recipe.ancestors {
            AncestorMode::Fixed(list) => list.iter().map(|(a, _)| *a).collect(),
            AncestorMode::Matched { attrs, .. } => attrs.clone(),
        };
        seeds.extend(
            ancestor_attrs
                .into_iter()
                .enumerate()
                .map(|(i, a)| (a, Seed::Ancestor(i))),
        );
        seeds.push((recipe.key_attr, Seed::Key));
        // `Tuple::from_pairs` decides the field order and which binding
        // of a repeated attribute survives (the last); each field
        // carries its binding's position to read that decision back.
        let seed_shape = Tuple::from_pairs(
            seeds
                .iter()
                .enumerate()
                .map(|(i, (a, _))| (*a, Value::Int(i as i64)))
                .collect(),
        );
        let seed_nodes = seed_shape
            .values()
            .map(|v| match v {
                Value::Int(i) => seeds[*i as usize].1,
                _ => unreachable!("seed fields carry binding positions"),
            })
            .collect();
        Ok(IndexJoinAccess {
            vindex,
            cindex,
            sides: Vec::new(),
            scratch: String::new(),
            rows: RowBuilder {
                doc,
                seed_shape,
                seed_nodes,
                ancestors: Vec::new(),
                stage: Vec::new(),
                next: Vec::new(),
                rows: Vec::new(),
            },
        })
    }

    /// Answer one probe tuple: does any build row reconstructed from the
    /// recipe's candidate entries match (pass the replayed pipeline and
    /// the residual)?
    ///
    /// Build rows reconstruct candidate by candidate in document order —
    /// the bucket order of the replaced hash join — so the first
    /// deciding row is the row the scan probe would have stopped at.
    /// The residual's nested blocks are evaluated through `blocks`, the
    /// probing cursor's.
    pub(crate) fn probe_matches(
        &mut self,
        recipe: &AccessRecipe,
        lt: &Tuple,
        env: &Scope<'_>,
        blocks: &Spooled<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<bool> {
        let catalog = ctx.catalog;
        match &recipe.driver {
            Driver::Point { probe } => {
                let Some(v) = lt.get(*probe) else {
                    return Ok(false);
                };
                ctx.metrics.index_lookups += 1;
                let (key, _) = probe_val(v, catalog, &mut self.scratch);
                let candidates = self.vindex.as_ref().expect("point driver").get(&key);
                if candidates.is_empty() {
                    return Ok(false);
                }
                ctx.metrics.index_hits += 1;
                self.rows
                    .decide_from_candidates(recipe, lt, candidates, env, blocks, ctx)
            }
            Driver::Composite { probes, .. } => {
                // The composite probe key mirrors the hash operators'
                // composite `key_of`: every component must be present
                // and matchable (a NULL or NaN component matches
                // nothing), and component types stay typed — a numeric
                // probe never equals a string build key.
                let mut key: Vec<ValueKey> = Vec::with_capacity(probes.len());
                for p in probes {
                    let Some(v) = lt.get(*p) else {
                        return Ok(false);
                    };
                    let k = key_val(v, catalog);
                    if !k.matchable() {
                        return Ok(false);
                    }
                    key.push(k);
                }
                ctx.metrics.index_lookups += 1;
                let entries = self.cindex.as_ref().expect("composite driver").get(&key);
                if entries.is_empty() {
                    return Ok(false);
                }
                ctx.metrics.index_hits += 1;
                if !recipe.replays_rows() {
                    ctx.metrics.probe_tuples += 1;
                    return Ok(true);
                }
                for entry in entries {
                    if self.rows.candidate_matches(
                        recipe,
                        lt,
                        entry.primary,
                        &entry.members,
                        env,
                        blocks,
                        ctx,
                    )? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Driver::Range { eq_probe, ranges } => {
                self.range_probe_matches(recipe, lt, *eq_probe, ranges, env, blocks, ctx)
            }
        }
    }

    /// One **range** probe over the ordered key space: evaluate every
    /// conjunct's probe side once, seek the value index for candidate
    /// nodes, filter them by the remaining conjuncts (via
    /// [`nal::cmp_general`] against the candidate node — exactly the
    /// comparison the scan plan's predicate would run), and decide from
    /// the survivors like an equality probe.
    ///
    /// With `eq_probe` set (band conversions), the typed bucket lookup
    /// supplies the candidates and every range conjunct filters. Without
    /// it, the first conjunct whose probe key is a string or number
    /// drives a [`xmldb::ValueIndex::range`] seek (postings already
    /// merged into document order); a NULL/NaN side decides the tuple
    /// outright (those values satisfy no comparison); and if no side is
    /// rangeable (sequences, booleans), every indexed key is examined —
    /// still without ever executing the build side.
    #[allow(clippy::too_many_arguments)]
    fn range_probe_matches(
        &mut self,
        recipe: &AccessRecipe,
        lt: &Tuple,
        eq_probe: Option<Sym>,
        ranges: &[super::recipe::RangeProbe],
        env: &Scope<'_>,
        blocks: &Spooled<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<bool> {
        let vindex = self.vindex.as_ref().expect("range driver");
        // The probe sides are pure and replay-safe by conversion; the
        // loop join evaluated them once per candidate row, so evaluating
        // them once per probe tuple is unobservable.
        self.sides.clear();
        for rp in ranges {
            self.sides
                .push((Spooled::NONE.eval(&rp.side, lt, env, ctx)?, rp.op));
        }
        let sides = &self.sides;
        // Non-driving conjuncts filter at the node level — a candidate's
        // atomized value is its index key, so this is the scan plan's
        // predicate conjunct verbatim.
        let catalog = ctx.catalog;
        let doc = self.rows.doc;
        let passes = |node: NodeId, skip: Option<usize>| {
            sides.iter().enumerate().all(|(i, (v, op))| {
                Some(i) == skip
                    || nal::cmp_general(*op, v, &Value::Node(NodeRef { doc, node }), catalog)
            })
        };
        // Fast path: no pipeline, no residual — existence alone decides,
        // so the key window streams lazily and stops at the first
        // passing candidate (the range analogue of the hash probe's
        // first-bucket-row short-circuit).
        let fast = !recipe.replays_rows();
        let candidates: Vec<NodeId> = if let Some(p) = eq_probe {
            let Some(v) = lt.get(p) else {
                return Ok(false);
            };
            ctx.metrics.index_lookups += 1;
            let (key, _) = probe_val(v, catalog, &mut self.scratch);
            let posting = vindex.get(&key);
            if fast {
                let found = posting.iter().any(|&n| passes(n, None));
                if found {
                    ctx.metrics.index_hits += 1;
                    ctx.metrics.probe_tuples += 1;
                }
                return Ok(found);
            }
            posting
                .iter()
                .copied()
                .filter(|&n| passes(n, None))
                .collect()
        } else {
            // The first string/numeric side drives the index seek; if no
            // side is rangeable (sequences, booleans), every indexed key
            // is examined — still without executing the build side.
            let mut driver: Option<(usize, ValueKey)> = None;
            for (i, (v, _)) in sides.iter().enumerate() {
                let k = key_val(v, catalog);
                if matches!(k, ValueKey::Null) {
                    // NULL (and NaN, which canonicalizes to NULL)
                    // satisfies no comparison: the conjunction is false
                    // for every build row.
                    return Ok(false);
                }
                if driver.is_none() && matches!(k, ValueKey::Num(_) | ValueKey::Str(_)) {
                    driver = Some((i, k));
                }
            }
            let (lo, hi) = match &driver {
                Some((i, key)) => match sides[*i].1 {
                    nal::CmpOp::Eq => (Bound::Included(key), Bound::Included(key)),
                    nal::CmpOp::Lt => (Bound::Excluded(key), Bound::Unbounded),
                    nal::CmpOp::Le => (Bound::Included(key), Bound::Unbounded),
                    nal::CmpOp::Gt => (Bound::Unbounded, Bound::Excluded(key)),
                    nal::CmpOp::Ge => (Bound::Unbounded, Bound::Included(key)),
                    nal::CmpOp::Ne => unreachable!("≠ never converts to a range probe"),
                },
                None => (Bound::Unbounded, Bound::Unbounded),
            };
            let driver = driver.as_ref().map(|(i, _)| *i);
            ctx.metrics.index_lookups += 1;
            if fast {
                let found = vindex.range_iter(lo, hi).any(|n| passes(n, driver));
                if found {
                    ctx.metrics.index_hits += 1;
                    ctx.metrics.probe_tuples += 1;
                }
                return Ok(found);
            }
            // Residual/pipeline path: materialize the surviving window
            // and merge it back into document order, so rows reconstruct
            // in exactly the build order the scan join examined.
            let mut nodes: Vec<NodeId> = vindex
                .range_iter(lo, hi)
                .filter(|&n| passes(n, driver))
                .collect();
            nodes.sort_unstable();
            nodes
        };
        if candidates.is_empty() {
            return Ok(false);
        }
        ctx.metrics.index_hits += 1;
        self.rows
            .decide_from_candidates(recipe, lt, &candidates, env, blocks, ctx)
    }
}

impl RowBuilder {
    /// Decide a probe from its candidate nodes (already restricted to
    /// the matching key set, in document order). Fast path: no pipeline,
    /// no residual — existence is decided by the candidate list alone
    /// (one candidate "examined", mirroring the scan probes' first-row
    /// short-circuit). Otherwise candidates reconstruct build rows in
    /// document order and the first passing row decides.
    fn decide_from_candidates(
        &mut self,
        recipe: &AccessRecipe,
        lt: &Tuple,
        candidates: &[NodeId],
        env: &Scope<'_>,
        blocks: &Spooled<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<bool> {
        if !recipe.replays_rows() {
            ctx.metrics.probe_tuples += 1;
            return Ok(true);
        }
        for &node in candidates {
            if self.candidate_matches(recipe, lt, node, &[], env, blocks, ctx)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Reconstruct one candidate's build rows and test them against the
    /// residual; `true` as soon as one passes.
    #[allow(clippy::too_many_arguments)]
    fn candidate_matches(
        &mut self,
        recipe: &AccessRecipe,
        lt: &Tuple,
        node: NodeId,
        members: &[NodeId],
        env: &Scope<'_>,
        blocks: &Spooled<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<bool> {
        self.rebuild_rows(recipe, node, members, env, ctx)?;
        for row in &self.rows {
            ctx.metrics.probe_tuples += 1;
            match &recipe.residual {
                None => return Ok(true),
                Some(p) => {
                    let joined = lt.concat(row);
                    if blocks.truthy(p, &joined, env, ctx)? {
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }

    /// The seed tuple of one reconstructed chain: every seed attribute
    /// bound to its node, written straight into the tuple's one block.
    fn seed_tuple(&self, node: NodeId, members: &[NodeId], ancestors: &[NodeId]) -> Tuple {
        let mut sources = self.seed_nodes.iter();
        self.seed_shape.map_values(|_| {
            let node = match sources.next().expect("one source per seed field") {
                Seed::Doc => NodeId::DOCUMENT,
                Seed::Member(i) => members[*i],
                Seed::Ancestor(i) => ancestors[*i],
                Seed::Key => node,
            };
            Value::Node(NodeRef {
                doc: self.doc,
                node,
            })
        })
    }

    /// Reconstruct the build rows of one candidate into `self.rows`: seed the key column, the doc/ancestor
    /// bindings (one chain per fixed walk, or one per matched assignment
    /// for variable-depth chains), and any composite member columns,
    /// then replay the recorded pipeline over each chain.
    fn rebuild_rows(
        &mut self,
        recipe: &AccessRecipe,
        node: NodeId,
        members: &[NodeId],
        env: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<()> {
        self.rows.clear();
        let tree = ctx.catalog.doc(self.doc);
        match &recipe.ancestors {
            AncestorMode::Fixed(list) => {
                self.ancestors.clear();
                for (_, levels) in list {
                    self.ancestors
                        .push(
                            xmldb::index::nth_parent(tree, node, *levels).ok_or_else(|| {
                                EvalError::new("index join: candidate ancestor above document root")
                            })?,
                        );
                }
                let seed = self.seed_tuple(node, members, &self.ancestors);
                self.replay(recipe, seed, env, ctx)
            }
            AncestorMode::Matched { spec, .. } => {
                // One chain per consistent placement of the bindings on
                // the candidate's ancestor path, in build-row order
                // (outermost binding varies slowest).
                let mut replayed = Ok(());
                xmldb::index::matched_assignments(tree, node, spec, &mut |assignment| {
                    if replayed.is_ok() {
                        let seed = self.seed_tuple(node, members, assignment);
                        replayed = self.replay(recipe, seed, env, ctx);
                    }
                });
                replayed
            }
        }
    }

    /// Replay the recipe's post-key operators over one chain's seed
    /// tuple and append the surviving rows to `self.rows`.
    fn replay(
        &mut self,
        recipe: &AccessRecipe,
        seed: Tuple,
        env: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<()> {
        self.stage.clear();
        self.stage.push(seed);
        for op in &recipe.ops {
            self.next.clear();
            match op {
                BuildOp::Map(attr, value, keep) => {
                    for t in self.stage.drain(..) {
                        let v = Spooled::NONE.eval(value, &t, env, ctx)?;
                        self.next.push(t.merged(&[(*attr, v)], keep.as_deref()));
                    }
                }
                BuildOp::UnnestMap(attr, value, keep) => {
                    for t in self.stage.drain(..) {
                        let v = Spooled::NONE.eval(value, &t, env, ctx)?;
                        for item in v.as_items() {
                            self.next
                                .push(t.merged(&[(*attr, item.clone())], keep.as_deref()));
                        }
                    }
                }
                BuildOp::Select(pred) => {
                    for t in self.stage.drain(..) {
                        if Spooled::NONE.truthy(pred, &t, env, ctx)? {
                            self.next.push(t);
                        }
                    }
                }
                BuildOp::Project(op) => {
                    self.next
                        .extend(crate::exec::project_rows(&self.stage, op, ctx));
                }
            }
            std::mem::swap(&mut self.stage, &mut self.next);
            if self.stage.is_empty() {
                break;
            }
        }
        self.rows.append(&mut self.stage);
        Ok(())
    }
}
