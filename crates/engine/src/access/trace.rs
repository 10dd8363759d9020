//! Recipe tracing: prove that a semi/anti join converts to an
//! index-backed access path, and emit the [`AccessRecipe`] describing it.
//!
//! [`join_recipe`] is the **single convertibility predicate** of the
//! system: [`super::apply_indexes`] converts exactly the joins it emits a
//! recipe for, and `unnest::CostModel` prices exactly the same set — by
//! calling this function, not by re-deriving the conditions.
//!
//! The tracing is *conservative by construction*: a recipe is emitted
//! only when the replaced subtree provably produces the same tuple
//! sequence — same nodes, same document order, same duplicate structure,
//! same residual-evaluation order — so every converted plan stays
//! byte-identical in rows and Ξ output to its scan-based original (the
//! differential suite `tests/index_vs_scan.rs` enforces this across the
//! paper's workloads). Error behaviour is guarded
//! too: build pipelines are replayed only for probed candidates, so
//! scalars that can *error* on unprobed rows (arithmetic, `decimal()`)
//! decline — see [`nal::Scalar::replay_safe`].

use std::collections::BTreeSet;

use nal::{Scalar, Sym};
use xmldb::{AncestorChainSpec, Catalog, CompositeSpec, KeyComponent, MemberSpec, PathPattern};
use xpath::{Axis, Path};

use crate::nested::Blocks;
use crate::plan::{JoinKind, JoinOn, Keep, PhysPlan};
use crate::theta::as_range_conjunct;

use super::pattern_of;
use super::recipe::{AccessRecipe, AncestorMode, BuildOp, Driver, RangeProbe};

/// Trace a compiled semi/anti join node to its access recipe, or `None`
/// when the join must keep scanning. Handles all three driver regimes:
///
/// * the hash strategy with one key → band ([`Driver::Range`] with
///   `eq_probe`) or point ([`Driver::Point`]);
/// * the hash strategy with several keys → composite
///   ([`Driver::Composite`]);
/// * the θ strategy with rangeable inequality conjuncts →
///   [`Driver::Range`].
///
/// The emitted recipe is stamped with the document's current index
/// epoch, so the probe runtime can tell a recipe compiled before an
/// update from a fresh one (see [`AccessRecipe::epoch`]).
///
/// # Examples
///
/// ```
/// use engine::{compile, join_recipe};
/// use nal::expr::builder::*;
/// use nal::{CmpOp, Scalar};
/// use xmldb::{parse_document, Catalog};
///
/// let mut cat = Catalog::new();
/// cat.register(parse_document("bib.xml", "<bib><book><title>T</title></book></bib>").unwrap());
/// let probe = doc_scan("d1", "bib.xml")
///     .unnest_map("t1", Scalar::attr("d1").path(xpath::parse_path("//book/title").unwrap()));
/// let build = doc_scan("d2", "bib.xml")
///     .unnest_map("t2", Scalar::attr("d2").path(xpath::parse_path("//book/title").unwrap()))
///     .project(&["t2"]);
/// let join = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
///
/// // The tracer is the single convertibility predicate: a recipe is
/// // emitted iff the engine converts (and the cost model prices) the join.
/// let recipe = join_recipe(&compile(&join), &cat).expect("convertible");
/// assert_eq!(recipe.pattern.key(), "//book/title");
/// assert_eq!(recipe.op_name(), "IndexSemiJoin");
/// ```
pub fn join_recipe(plan: &PhysPlan, catalog: &Catalog) -> Option<AccessRecipe> {
    let mut recipe = join_recipe_inner(plan, catalog)?;
    if let Some(id) = catalog.by_uri(&recipe.uri) {
        recipe.epoch = catalog.epoch(id);
    }
    Some(recipe)
}

fn join_recipe_inner(plan: &PhysPlan, catalog: &Catalog) -> Option<AccessRecipe> {
    let PhysPlan::Join {
        right,
        on,
        kind: kind @ (JoinKind::Semi | JoinKind::Anti),
        ..
    } = plan
    else {
        return None;
    };
    match on {
        JoinOn::Hash {
            left_keys,
            right_keys,
            residual,
            blocks,
        } => {
            if left_keys.len() == 1 {
                // Band case first: inequality residual conjuncts on the
                // join key column become index-side range filters —
                // checked once per candidate key, before any build row
                // is reconstructed — leaving only the non-key residual
                // to replay per row.
                if let Some((ranges, rest_residual, build)) = (residual.as_ref())
                    .and_then(|r| trace_range_parts(right, r, Some(right_keys[0])))
                {
                    if scan_convertible(&build.uri, &build.path, catalog) {
                        return Some(build.into_recipe(
                            kind.clone(),
                            Driver::Range {
                                eq_probe: Some(left_keys[0]),
                                ranges,
                            },
                            (rest_residual, Blocks::NONE),
                        ));
                    }
                }
                let build = trace_build_parts(right, right_keys[0], residual.as_ref())?;
                if !scan_convertible(&build.uri, &build.path, catalog) {
                    return None;
                }
                Some(build.into_recipe(
                    kind.clone(),
                    Driver::Point {
                        probe: left_keys[0],
                    },
                    (residual.clone(), blocks.clone()),
                ))
            } else {
                let build = trace_composite_parts(right, right_keys, residual.as_ref())?;
                if !scan_convertible(&build.uri, &build.path, catalog) {
                    return None;
                }
                Some(build.into_composite_recipe(
                    kind.clone(),
                    left_keys.to_vec(),
                    (residual.clone(), blocks.clone()),
                ))
            }
        }
        JoinOn::Theta { pred, .. } => {
            // Non-equi quantifier joins: inequality conjuncts against one
            // document path column probe the value index's ordered key
            // space instead of scanning the build per probe tuple.
            let (ranges, residual, build) = trace_range_parts(right, pred, None)?;
            if !scan_convertible(&build.uri, &build.path, catalog) {
                return None;
            }
            Some(build.into_recipe(
                kind.clone(),
                Driver::Range {
                    eq_probe: None,
                    ranges,
                },
                (residual, Blocks::NONE),
            ))
        }
    }
}

/// Split `pred` into `side θ key` range conjuncts over one build column
/// — `key`, or else the first column one ranges over — plus a
/// replay-safe residual, and trace that column to build parts. A loop
/// join's whole predicate, or a hash join's residual beside its key
/// (the band: the equality stays the typed bucket probe). The residual
/// runs only for in-range candidates — the scan evaluated the predicate
/// over *every* build row — so every leftover conjunct must be
/// replay-safe (pure and total) for the skipped evaluations to be
/// unobservable.
fn trace_range_parts(
    right: &PhysPlan,
    pred: &Scalar,
    mut key: Option<Sym>,
) -> Option<(Vec<RangeProbe>, Option<Scalar>, BuildParts)> {
    let r_attrs = right.schema().may?;
    let mut ranges: Vec<RangeProbe> = Vec::new();
    let mut rest: Vec<Scalar> = Vec::new();
    for c in pred.conjuncts() {
        match as_range_conjunct(c, &r_attrs) {
            Some((k, probe)) if key.is_none_or(|key| key == k) => {
                key = Some(k);
                ranges.push(probe);
            }
            _ => rest.push(c.clone()),
        }
    }
    if ranges.is_empty() || !rest.iter().all(Scalar::replay_safe) {
        return None;
    }
    let residual = (!rest.is_empty()).then(|| Scalar::conjoin(rest));
    let build = trace_build_parts(right, key?, residual.as_ref())?;
    Some((ranges, residual, build))
}

/// A conversion is worthwhile and safe when the document is registered
/// and the pattern is resolvable by the path index.
pub(super) fn scan_convertible(uri: &str, path: &Path, catalog: &Catalog) -> bool {
    catalog.by_uri(uri).is_some() && pattern_of(path).is_resolvable()
}

/// Resolve an Υ subscript to a document-rooted path: `doc(uri)path`
/// directly, or `Attr(d)path` where `d` is bound to `doc(uri)` somewhere
/// below in the input chain. `distinct` tracks a `distinct-values`
/// wrapper. Returns `None` for anything else — in particular for paths
/// over per-tuple context nodes, which are genuinely tuple-dependent.
pub(super) fn doc_rooted_path(
    value: &Scalar,
    input: &PhysPlan,
    distinct: bool,
) -> Option<(String, Path, bool)> {
    match value {
        Scalar::DistinctItems(inner) => doc_rooted_path(inner, input, true),
        Scalar::Path(base, path) => match base.as_ref() {
            Scalar::Doc(uri) => Some((uri.clone(), path.clone(), distinct)),
            Scalar::Attr(d) => {
                let uri = resolve_doc_binding(input, *d)?;
                Some((uri, path.clone(), distinct))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Walk an input chain looking for the binding of `d`. Only a `Map` to
/// `doc(uri)` counts; any operator that could rebind or originate `d`
/// differently makes the walk decline.
fn resolve_doc_binding(plan: &PhysPlan, d: Sym) -> Option<String> {
    match plan {
        // The name must survive every producer's `keep` on the way up.
        PhysPlan::Map { keep, .. }
        | PhysPlan::UnnestMap { keep, .. }
        | PhysPlan::IndexScan { keep, .. }
            if !keep.emits(d) =>
        {
            None
        }
        PhysPlan::Map {
            input, attr, value, ..
        } => {
            if *attr == d {
                match value {
                    Scalar::Doc(uri) => Some(uri.clone()),
                    _ => None,
                }
            } else {
                resolve_doc_binding(input, d)
            }
        }
        PhysPlan::UnnestMap { input, attr, .. } | PhysPlan::IndexScan { input, attr, .. } => {
            if *attr == d {
                None
            } else {
                resolve_doc_binding(input, d)
            }
        }
        PhysPlan::Select { input, .. } => resolve_doc_binding(input, d),
        PhysPlan::Project { input, op } => {
            // The name must pass through unrenamed and undropped.
            let survives = match op {
                nal::ProjOp::Cols(cols) | nal::ProjOp::DistinctCols(cols) => cols.contains(&d),
                nal::ProjOp::Drop(cols) => !cols.contains(&d),
                nal::ProjOp::Rename(pairs) | nal::ProjOp::DistinctRename(pairs) => {
                    pairs.iter().all(|(new, _)| *new != d)
                }
            };
            if survives {
                resolve_doc_binding(input, d)
            } else {
                None
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Build-side tracing
// ---------------------------------------------------------------------

/// What the tracer learned about a semi/anti join's build side: the key
/// column is the nodes of one document-rooted path (in document order,
/// never dropped before the key binding), plus everything needed to
/// rebuild the full build rows per candidate node.
pub(super) struct BuildParts {
    uri: String,
    /// Composite document-rooted path of the key column.
    path: Path,
    /// Attribute the key binding introduced (post-`Project` renames are
    /// replayed by the recorded ops, so this is the *binding* name).
    key_attr: Sym,
    doc_seeds: Vec<Sym>,
    ancestors: AncestorMode,
    /// Operators above the key binding, in execution order.
    ops: Vec<BuildOp>,
    /// Composite member seeds (set by [`trace_composite_parts`] only).
    composite: Option<(Vec<Sym>, CompositeSpec)>,
}

impl BuildParts {
    /// The recipe, with the join residual left to replay and its nested
    /// blocks.
    fn into_recipe(
        self,
        kind: JoinKind,
        driver: Driver,
        (residual, blocks): (Option<Scalar>, Blocks),
    ) -> AccessRecipe {
        AccessRecipe {
            kind,
            driver,
            uri: self.uri,
            // Stamped by `join_recipe` once the document id is known.
            epoch: 0,
            pattern: pattern_of(&self.path),
            key_attr: self.key_attr,
            doc_seeds: self.doc_seeds,
            ancestors: self.ancestors,
            ops: self.ops,
            residual,
            blocks,
        }
    }

    /// [`Self::into_recipe`] for the composite driver, whose member
    /// seeds and index spec were collected during the build trace.
    fn into_composite_recipe(
        mut self,
        kind: JoinKind,
        probes: Vec<Sym>,
        residual: (Option<Scalar>, Blocks),
    ) -> AccessRecipe {
        let (member_attrs, spec) = self
            .composite
            .take()
            .expect("composite trace sets the spec");
        self.into_recipe(
            kind,
            Driver::Composite {
                probes,
                member_attrs,
                spec,
            },
            residual,
        )
    }
}

/// Prove that a semi/anti join's build side is an indexable document
/// path scan wrapped in replayable operators.
///
/// Walking down from the build root, the accepted shape is
///
/// ```text
/// (Project | Select | Map | UnnestMap)*      — the replayable pipeline
///   UnnestMap(key ← path over doc/ancestor)  — the key binding
///     [UnnestMap(ancestor ← …)]*             — ancestor chain
///       [Map(d ← doc(uri))]* over □          — the singleton seed
/// ```
///
/// with these conditions (each guards an equivalence the differential
/// suite would otherwise catch):
///
/// * pipeline scalars are pure (no nested algebra → no Ξ writes, no
///   correlated re-evaluation) and replay-safe (no eager errors on
///   never-probed rows),
/// * pipeline `Project`s keep the key column (renames are replayed;
///   distinct variants only as the topmost operator of a pipeline with
///   no residual, where dedup cannot change existence),
/// * every *referenced* ancestor binding between the document and the
///   key is reconstructable: by parent navigation when all relative
///   steps are child/attribute (fixed depth), or by ancestor-trail
///   pattern matching when a descendant step makes the depth variable
///   ([`AncestorMode::Matched`]); an **unreferenced** variable-depth
///   binding is dropped (its row multiplicity cannot change semi/anti
///   existence),
/// * the chain roots at `□`, so every key-path node occurs in exactly
///   one pre-pipeline row.
///
/// Anything else — selections below the key, joins, groupings, μ,
/// `rel(…)` — declines, and the join keeps scanning.
fn trace_build_parts(
    plan: &PhysPlan,
    join_key: Sym,
    residual: Option<&Scalar>,
) -> Option<BuildParts> {
    // Phase 1: peel the pipeline, tracking the key column's name down
    // through renames.
    let mut keys = [join_key];
    let (ops, stop) = peel_pipeline(plan, &mut keys, residual, true)?;
    let key = keys[0];
    let PhysPlan::UnnestMap {
        input: key_binding_input,
        value: key_binding_value,
        keep: key_binding_keep,
        ..
    } = stop
    else {
        return None;
    };

    // Phase 2: resolve the key binding's subscript to a document-rooted
    // composite path, collecting the raw ancestor/doc chain.
    let distinct_key = matches!(key_binding_value, Scalar::DistinctItems(_));
    if distinct_key && (!ops.is_empty() || residual.is_some()) {
        // Distinct key values are atomized strings, not nodes; only the
        // bare existence probe is equivalent.
        return None;
    }
    let chain = resolve_key_chain(key_binding_value, key_binding_input)?.emitting(key_binding_keep);
    if !key_binding_keep.emits(key) {
        return None;
    }

    // Phase 3: reconstructability. The replayed ops and the residual run
    // over exactly the tuple shape the hash plan had, so errors and
    // shadowing replicate identically — the only question is how each
    // attribute bound below the key comes back from a candidate node.
    let mut referenced: BTreeSet<Sym> = BTreeSet::new();
    for op in &ops {
        match op {
            BuildOp::Map(_, v, _) | BuildOp::UnnestMap(_, v, _) => {
                referenced.extend(v.free_attrs())
            }
            BuildOp::Select(p) => referenced.extend(p.free_attrs()),
            BuildOp::Project(_) => {}
        }
    }
    if let Some(r) = residual {
        referenced.extend(r.free_attrs());
    }
    if !chain.emits_all(&referenced) {
        return None;
    }
    let ancestors = resolve_ancestor_mode(&chain, &referenced)?;
    // Matched-chain reconstruction iterates (candidate, assignment)
    // while the scan bucket iterates (ancestor, candidate); when nested
    // same-name anchors hold duplicate key values those orders can
    // interleave differently, so the residual's evaluation order (and
    // count) is only provably unobservable when it is replay-safe —
    // pure and total. A non-replay-safe residual (arithmetic that can
    // error, nested algebra that can write Ξ) declines.
    if matches!(ancestors, AncestorMode::Matched { .. }) {
        if let Some(r) = residual {
            if !r.replay_safe() {
                return None;
            }
        }
    }
    // Bare distinct existence probe: the guard above only admits an
    // empty pipeline with no residual.
    debug_assert!(!distinct_key || ops.is_empty());
    Some(BuildParts {
        uri: chain.uri,
        path: chain.path,
        key_attr: key,
        doc_seeds: chain.doc_seeds,
        ancestors,
        ops,
        composite: None,
    })
}

/// The shared phase-1 peel of both build tracers: strip replay-safe
/// pipeline operators off the build root, tracking every key column's
/// binding name down through renames, until an Υ binding one of the
/// tracked keys is reached (the returned stop node). The recorded
/// pipeline comes back in execution order.
///
/// Distinct projections atomize and dedup the key values, so they are
/// accepted only with `allow_existence_distinct` and only as the
/// topmost operator of a pipeline with no residual — where dedup cannot
/// change existence and nothing downstream observes the re-typed
/// values. The composite tracer passes `false`: a deduped *pair* column
/// has no node-backed reconstruction.
fn peel_pipeline<'a>(
    plan: &'a PhysPlan,
    keys: &mut [Sym],
    residual: Option<&Scalar>,
    allow_existence_distinct: bool,
) -> Option<(Vec<BuildOp>, &'a PhysPlan)> {
    let mut ops_rev: Vec<BuildOp> = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            PhysPlan::Project { input, op } => {
                match op {
                    nal::ProjOp::Cols(cols) | nal::ProjOp::DistinctCols(cols) => {
                        if !keys.iter().all(|k| cols.contains(k)) {
                            return None;
                        }
                    }
                    nal::ProjOp::Drop(cols) => {
                        if keys.iter().any(|k| cols.contains(k)) {
                            return None;
                        }
                    }
                    nal::ProjOp::Rename(pairs) | nal::ProjOp::DistinctRename(pairs) => {
                        for k in keys.iter_mut() {
                            if let Some((_, old)) = pairs.iter().find(|(new, _)| new == k) {
                                *k = *old;
                            }
                        }
                    }
                }
                let is_distinct = matches!(
                    op,
                    nal::ProjOp::DistinctCols(_) | nal::ProjOp::DistinctRename(_)
                );
                if is_distinct
                    && !(allow_existence_distinct && ops_rev.is_empty() && residual.is_none())
                {
                    return None;
                }
                if !is_distinct {
                    ops_rev.push(BuildOp::Project(op.clone()));
                }
                cur = input;
            }
            PhysPlan::Select { input, pred, .. } => {
                if !pred.replay_safe() {
                    return None;
                }
                ops_rev.push(BuildOp::Select(pred.clone()));
                cur = input;
            }
            // A `keep` is the Π it stands for: it must emit every key,
            // and the replayed operator narrows its rows the same way.
            PhysPlan::Map {
                input,
                attr,
                value,
                keep,
                ..
            } if !keys.contains(attr) => {
                if !value.replay_safe() || !keys.iter().all(|k| keep.emits(*k)) {
                    return None;
                }
                ops_rev.push(BuildOp::Map(*attr, value.clone(), keep.only.clone()));
                cur = input;
            }
            PhysPlan::UnnestMap {
                input,
                attr,
                value,
                keep,
                ..
            } if !keys.contains(attr) => {
                if !value.replay_safe() || !keys.iter().all(|k| keep.emits(*k)) {
                    return None;
                }
                ops_rev.push(BuildOp::UnnestMap(*attr, value.clone(), keep.only.clone()));
                cur = input;
            }
            PhysPlan::UnnestMap { .. } => break,
            _ => return None,
        }
    }
    Some((ops_rev.into_iter().rev().collect(), cur))
}

/// Cumulative fixed depth of each chain ancestor above the key,
/// nearest-key-first: the sum of the relative steps of every binding
/// between it and the key — defined only while all of them are child or
/// attribute steps (one parent hop each); a descendant step makes the
/// depth (and every deeper one's) variable.
fn fixed_depths(chain: &KeyChain) -> Vec<Option<usize>> {
    let mut depths: Vec<Option<usize>> = Vec::with_capacity(chain.ancestors.len());
    let mut cum = Some(0usize);
    for a in &chain.ancestors {
        let fixed = a
            .rel_above
            .steps
            .iter()
            .all(|s| matches!(s.axis, Axis::Child | Axis::Attribute));
        cum = match (cum, fixed) {
            (Some(c), true) => Some(c + a.rel_above.steps.len()),
            _ => None,
        };
        depths.push(cum);
    }
    depths
}

/// Decide how the chain's ancestor bindings reconstruct, given which
/// attributes the replayed ops/residual actually read.
fn resolve_ancestor_mode(chain: &KeyChain, referenced: &BTreeSet<Sym>) -> Option<AncestorMode> {
    let depths = fixed_depths(chain);
    let all_referenced_fixed = chain
        .ancestors
        .iter()
        .zip(&depths)
        .all(|(a, d)| d.is_some() || !referenced.contains(&a.attr));
    if all_referenced_fixed {
        // Plain parent hops. Fixed bindings are seeded whether referenced
        // or not (cheap and faithful); unreferenced variable bindings are
        // dropped — their multiplicity cannot change existence.
        let fixed = chain
            .ancestors
            .iter()
            .zip(&depths)
            .filter(|(a, _)| a.emitted)
            .filter_map(|(a, d)| d.map(|levels| (a.attr, levels)))
            .collect();
        return Some(AncestorMode::Fixed(fixed));
    }
    // Variable-depth reconstruction: referenced bindings become matcher
    // links (unreferenced ones are composed away); the deepest referenced
    // binding anchors the match with its absolute pattern.
    let mut attrs: Vec<Sym> = Vec::new(); // nearest-key-first, reversed below
    let mut rels: Vec<PathPattern> = Vec::new();
    let mut base: Option<PathPattern> = None;
    let mut acc: Option<Path> = None; // composed path from the current binding up
    for a in &chain.ancestors {
        let composed = match acc.take() {
            None => a.rel_above.clone(),
            Some(upper) => a.rel_above.join(&upper),
        };
        if referenced.contains(&a.attr) {
            let rel = pattern_of(&composed);
            // Attribute steps are legal only at the very end of the
            // nearest-key link (an attribute-valued key node); anywhere
            // else the span matcher has no segment to consume.
            let attr_ok = rel.steps.iter().enumerate().all(|(i, s)| match s {
                xmldb::PatternStep::Attribute(_) => rels.is_empty() && i + 1 == rel.steps.len(),
                _ => true,
            });
            if !attr_ok || rel.steps.is_empty() {
                return None;
            }
            attrs.push(a.attr);
            rels.push(rel);
            base = Some(pattern_of(&a.abs_path));
            acc = None;
        } else {
            acc = Some(composed);
        }
    }
    let base = base?;
    if base
        .steps
        .iter()
        .any(|s| matches!(s, xmldb::PatternStep::Attribute(_)))
    {
        return None;
    }
    // Collected nearest-key-first; the matcher wants deepest-first.
    attrs.reverse();
    rels.reverse();
    Some(AncestorMode::Matched {
        attrs,
        spec: AncestorChainSpec { base, rels },
    })
}

// ---------------------------------------------------------------------
// Composite tracing
// ---------------------------------------------------------------------

/// Multi-key variant of the build trace: the keys must be bound by a run
/// of **consecutive** `Υ` operators directly under the replayable
/// pipeline — the deepest of them is the *primary* key column (its path
/// backs the composite index's node set), and every other key is a
/// *member* whose subscript is a structural path over the primary, one
/// of its fixed-depth ancestors, or the document — so member values can
/// be derived per primary node at index-build time, with no build-side
/// execution. The composite key order follows the join's key list.
fn trace_composite_parts(
    right: &PhysPlan,
    right_keys: &[Sym],
    residual: Option<&Scalar>,
) -> Option<BuildParts> {
    // Phase 1: peel the pipeline above the key run, tracking every key
    // column through renames (the shared peel declines distinct
    // projections outright here — deduped pairs are not node-backed).
    let mut keys: Vec<Sym> = right_keys.to_vec();
    let (ops, stop) = peel_pipeline(right, &mut keys, residual, false)?;
    let mut cur = stop;

    // Phase 2: the consecutive key-binding run, top-down. Each key must
    // be bound exactly once; the deepest binding is the primary.
    // What the topmost key binding emits is what the replayed pipeline
    // starts from.
    let PhysPlan::UnnestMap { keep: run_keep, .. } = stop else {
        return None;
    };
    if !keys.iter().all(|k| run_keep.emits(*k)) {
        return None;
    }
    let mut run: Vec<(Sym, &Scalar)> = Vec::new();
    while let PhysPlan::UnnestMap {
        input, attr, value, ..
    } = cur
    {
        if keys.contains(attr) && !run.iter().any(|(a, _)| a == attr) {
            run.push((*attr, value));
            cur = input;
        } else {
            break;
        }
    }
    if run.len() != keys.len() {
        return None;
    }
    let (primary_attr, primary_value) = run.pop().expect("len >= 2");
    if matches!(primary_value, Scalar::DistinctItems(_)) {
        return None;
    }
    let chain = resolve_key_chain(primary_value, cur)?.emitting(run_keep);

    // Fixed depth of each chain ancestor above the primary (member
    // anchors must be parent-hoppable at index build time).
    let fixed_depth: Vec<(Sym, usize)> = chain
        .ancestors
        .iter()
        .zip(fixed_depths(&chain))
        .filter_map(|(a, d)| d.map(|levels| (a.attr, levels)))
        .collect();

    // Members in chain order (deepest-bound first = reverse of the
    // top-down run), each resolved against the primary's chain.
    run.reverse();
    let mut member_attrs: Vec<Sym> = Vec::new();
    let mut members: Vec<MemberSpec> = Vec::new();
    let mut anchor_attrs: Vec<Sym> = Vec::new();
    for (attr, value) in run {
        let Scalar::Path(base, path) = value else {
            return None;
        };
        if path.steps.is_empty() {
            return None;
        }
        let spec = match base.as_ref() {
            Scalar::Attr(v) if *v == primary_attr => MemberSpec {
                levels: Some(0),
                rel: pattern_of(path),
            },
            Scalar::Attr(v) => {
                if let Some(&(_, d)) = fixed_depth.iter().find(|(a, _)| a == v) {
                    anchor_attrs.push(*v);
                    MemberSpec {
                        levels: Some(d),
                        rel: pattern_of(path),
                    }
                } else if resolve_doc_binding(cur, *v).as_deref() == Some(chain.uri.as_str()) {
                    MemberSpec {
                        levels: None,
                        rel: pattern_of(path),
                    }
                } else {
                    return None;
                }
            }
            Scalar::Doc(uri) if *uri == chain.uri => MemberSpec {
                levels: None,
                rel: pattern_of(path),
            },
            _ => return None,
        };
        member_attrs.push(attr);
        members.push(spec);
    }

    // Key component order = the join's key list order.
    let key_components: Vec<KeyComponent> = keys
        .iter()
        .map(|k| {
            if *k == primary_attr {
                Some(KeyComponent::Primary)
            } else {
                member_attrs
                    .iter()
                    .position(|m| m == k)
                    .map(KeyComponent::Member)
            }
        })
        .collect::<Option<_>>()?;

    // Phase 3: reconstructability — referenced chain ancestors (by ops,
    // residual, or a member anchor) must all be fixed-depth; composite
    // does not combine with the variable-depth matcher.
    let mut referenced: BTreeSet<Sym> = BTreeSet::new();
    for op in &ops {
        match op {
            BuildOp::Map(_, v, _) | BuildOp::UnnestMap(_, v, _) => {
                referenced.extend(v.free_attrs())
            }
            BuildOp::Select(p) => referenced.extend(p.free_attrs()),
            BuildOp::Project(_) => {}
        }
    }
    if let Some(r) = residual {
        referenced.extend(r.free_attrs());
    }
    if !chain.emits_all(&referenced) {
        return None;
    }
    referenced.extend(anchor_attrs);
    // Member attributes are seeded from the composite entry itself.
    for m in &member_attrs {
        referenced.remove(m);
    }
    let ancestors = match resolve_ancestor_mode(&chain, &referenced)? {
        f @ AncestorMode::Fixed(_) => f,
        AncestorMode::Matched { .. } => return None,
    };

    let spec = CompositeSpec {
        primary: pattern_of(&chain.path),
        members,
        key: key_components,
    };
    Some(BuildParts {
        uri: chain.uri,
        path: chain.path,
        key_attr: primary_attr,
        doc_seeds: chain.doc_seeds,
        ancestors,
        ops,
        composite: Some((member_attrs, spec)),
    })
}

// ---------------------------------------------------------------------
// Key-chain resolution
// ---------------------------------------------------------------------

/// One binding discovered below the key while resolving its path,
/// nearest-key-first.
struct RawAncestor {
    attr: Sym,
    /// Relative path from this binding to the binding above it (the key
    /// for the first entry).
    rel_above: Path,
    /// Absolute path of this binding's own nodes.
    abs_path: Path,
    /// Does the binding reach the rows above the key binding — is it in
    /// every `keep` on the way up?
    emitted: bool,
}

struct KeyChain {
    uri: String,
    /// Composed absolute path of the key column.
    path: Path,
    doc_seeds: Vec<Sym>,
    /// Bindings below the key, nearest-key-first.
    ancestors: Vec<RawAncestor>,
}

impl KeyChain {
    /// Do the replayed operators and the residual read only bindings
    /// that reach them? One a `keep` on the way drops is unbound for
    /// them, as it was in the scan plan: no recipe reconstructs that.
    fn emits_all(&self, read: &BTreeSet<Sym>) -> bool {
        self.ancestors
            .iter()
            .all(|a| a.emitted || !read.contains(&a.attr))
    }

    /// The chain as a producer restricted to `keep` emits it: a binding
    /// outside `keep` is not part of the rows above, and is not
    /// reconstructed. (Ancestor bindings stay listed — the composite
    /// path runs through them.)
    fn emitting(mut self, keep: &Keep) -> KeyChain {
        self.doc_seeds.retain(|a| keep.emits(*a));
        for a in &mut self.ancestors {
            a.emitted &= keep.emits(a.attr);
        }
        self
    }
}

/// Resolve the key binding's subscript down to `doc(uri)`, composing
/// relative paths and recording each intermediate binding's relative and
/// absolute position.
fn resolve_key_chain(value: &Scalar, input: &PhysPlan) -> Option<KeyChain> {
    match value {
        Scalar::DistinctItems(inner) => resolve_key_chain(inner, input),
        Scalar::Path(base, path) => match base.as_ref() {
            Scalar::Doc(uri) => singleton_seed_bindings(input).map(|doc_seeds| KeyChain {
                uri: uri.clone(),
                path: path.clone(),
                doc_seeds,
                ancestors: Vec::new(),
            }),
            Scalar::Attr(v) => {
                if let Some(uri) = resolve_doc_binding(input, *v) {
                    let mut doc_seeds = singleton_seed_bindings(input)?;
                    // `v` itself is one of the doc bindings; make sure it
                    // is present even if shadowed oddly.
                    if !doc_seeds.contains(v) {
                        doc_seeds.push(*v);
                    }
                    return Some(KeyChain {
                        uri,
                        path: path.clone(),
                        doc_seeds,
                        ancestors: Vec::new(),
                    });
                }
                // `v` must be bound by a directly nested Υ — the
                // ancestor chain of the key.
                let PhysPlan::UnnestMap {
                    input: deeper,
                    attr,
                    value: inner_value,
                    keep,
                    ..
                } = input
                else {
                    return None;
                };
                if *attr != *v {
                    return None;
                }
                let inner = resolve_key_chain(inner_value, deeper)?;
                let mut ancestors = vec![RawAncestor {
                    attr: *v,
                    rel_above: path.clone(),
                    abs_path: inner.path.clone(),
                    emitted: true,
                }];
                ancestors.extend(inner.ancestors);
                let chain = KeyChain {
                    uri: inner.uri,
                    path: inner.path.join(path),
                    doc_seeds: inner.doc_seeds,
                    ancestors,
                };
                Some(chain.emitting(keep))
            }
            _ => None,
        },
        _ => None,
    }
}

/// The doc-binding attributes of a `□`-rooted seed chain, or `None` if
/// the chain is anything else (which would change row multiplicities).
fn singleton_seed_bindings(plan: &PhysPlan) -> Option<Vec<Sym>> {
    match plan {
        PhysPlan::Singleton => Some(Vec::new()),
        PhysPlan::Map {
            input,
            attr,
            value,
            keep,
            ..
        } => {
            if !matches!(value, Scalar::Doc(_)) {
                return None;
            }
            let mut out = singleton_seed_bindings(input)?;
            out.push(*attr);
            out.retain(|a| keep.emits(*a));
            Some(out)
        }
        _ => None,
    }
}
