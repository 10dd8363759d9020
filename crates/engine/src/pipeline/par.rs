//! Morsel-driven intra-query parallelism.
//!
//! [`apply_parallel`] is a physical rewrite pass (a sibling of
//! [`crate::access::apply_indexes`]) that finds pipelines of per-tuple,
//! order-preserving, Ξ-free operators above a fan-out (a posting-list
//! [`PhysPlan::IndexScan`], a document-scan Υ, or a μ) and wraps them in
//! a [`PhysPlan::Parallel`] segment. At execution time the segment:
//!
//! 1. drains its `source` serially on the calling thread (document
//!    order, normal metering),
//! 2. range-partitions the drained rows into contiguous morsels,
//! 3. runs the `stages` pipeline over each morsel on a hand-rolled
//!    worker pool (`std::thread::scope` + per-worker deques with work
//!    stealing — no external runtime), and
//! 4. k-way merges the finished runs back into source order
//!    ([`super::merge`]) keyed by gap-based [`xmldb::NodeId`]s.
//!
//! **Metric parity is a construction property.** A parallel run must
//! report exactly the counters of a serial run of the same query,
//! summed across workers:
//!
//! * a morsel's stage pipeline is lowered by the serial lowering itself
//!   (`Stage` only says where builds, scans and the feed come from), so
//!   its cursors wear the same [`super::cursor::Metered`] shells, into
//!   per-worker [`nal::eval::Metrics`] merged on join;
//! * the parallel shell and feed leaf are *unmetered* (the serial plan
//!   has no such operators);
//! * build sides (hash tables, θ-probe builds, ×-inners) and
//!   posting-list scans are prepared **once** on the calling thread —
//!   exactly the once-per-cursor work of serial execution — and shared
//!   read-only with every worker, which probes them through the serial
//!   join cursors ([`super::join::HashJoin`], [`super::join::LoopJoin`],
//!   [`super::join::Cross`]);
//! * probe-invariant index joins (constant range bounds, no residual)
//!   probe **once per segment** through a `ProbeGroup`: the first
//!   worker claims the probe, every sibling morsel waits on a condvar
//!   and reuses the decision. This is also the cooperative early-cancel
//!   protocol — the first deciding match cancels all sibling probes for
//!   that probe group.
//!
//! Workers share the caller's pinned snapshot (`&Catalog` is
//! `Send + Sync`; index builds are interior-locked), so the read path
//! takes no new locks.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use nal::eval::{EvalCtx, EvalError, EvalResult, Scope};
use nal::{ProjOp, Sym, Tuple, Value};

use super::cursor::{drain, BoxCursor, Cursor};
use super::join::Buckets;
use super::merge::{merge_runs, MorselKey, Run};
use super::{node_id, Lowering};
use crate::nested::Blocks;
use crate::plan::PhysPlan;
use crate::theta::ThetaBuild;

/// Morsels enqueued per worker: enough granularity for stealing to fix
/// skew, few enough that per-morsel setup stays negligible.
const MORSELS_PER_WORKER: usize = 4;

// ---------------------------------------------------------------------
// The rewrite pass
// ---------------------------------------------------------------------

/// Wrap parallel-safe pipeline segments of a compiled plan in
/// [`PhysPlan::Parallel`] operators. Idempotent: a plan that already
/// contains a parallel segment is returned unchanged. The rewrite is
/// degree-independent — how many workers actually run is decided per
/// execution by `EvalCtx::parallel`, so one cached plan serves every
/// degree (including 1, which runs the segment inline).
pub fn apply_parallel(plan: &PhysPlan) -> PhysPlan {
    if contains_parallel(plan) {
        return plan.clone();
    }
    rewrite(plan)
}

fn rewrite(plan: &PhysPlan) -> PhysPlan {
    if let Some(wrapped) = try_wrap(plan) {
        return wrapped;
    }
    crate::access::map_children(plan.clone(), &mut |child| rewrite(&child))
}

fn contains_parallel(plan: &PhysPlan) -> bool {
    matches!(plan, PhysPlan::Parallel { .. } | PhysPlan::MorselFeed)
        || plan.children().into_iter().any(contains_parallel)
}

/// Operators allowed inside a stage pipeline: per-tuple, order
/// preserving, no cross-tuple state. Distinct projections dedup across
/// tuples and grouping/Ξ operators are blocking or write output, so
/// they end a segment. So does an operator whose nested blocks share a
/// subtree: its spools would be per worker, each worker running the
/// subtree the serial cursor runs once ([`crate::nested`]).
fn stage_safe(plan: &PhysPlan) -> bool {
    if plan.blocks().is_some_and(Blocks::shares) {
        return false;
    }
    match plan {
        PhysPlan::Select { .. }
        | PhysPlan::Map { .. }
        | PhysPlan::UnnestMap { .. }
        | PhysPlan::Unnest { .. }
        | PhysPlan::IndexScan { .. }
        | PhysPlan::IndexJoin { .. }
        | PhysPlan::Cross { .. }
        | PhysPlan::LoopJoin { .. }
        | PhysPlan::HashJoin { .. } => true,
        PhysPlan::Project { op, .. } => {
            !matches!(op, ProjOp::DistinctCols(_) | ProjOp::DistinctRename(_))
        }
        _ => false,
    }
}

/// The edge a stage pipeline's spine follows: the streamed input of a
/// unary operator, the probe side of a join.
fn spine_input(plan: &PhysPlan) -> Option<&PhysPlan> {
    match plan {
        PhysPlan::Select { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Map { input, .. }
        | PhysPlan::UnnestMap { input, .. }
        | PhysPlan::Unnest { input, .. }
        | PhysPlan::IndexScan { input, .. } => Some(input),
        PhysPlan::Cross { left, .. }
        | PhysPlan::HashJoin { left, .. }
        | PhysPlan::LoopJoin { left, .. }
        | PhysPlan::IndexJoin { left, .. } => Some(left),
        _ => None,
    }
}

/// Does this operator fan one input tuple out into many? The topmost
/// fan-out on a spine becomes the segment's source: everything it
/// produces is the partitionable work.
fn is_fanout(plan: &PhysPlan) -> bool {
    matches!(
        plan,
        PhysPlan::UnnestMap { .. } | PhysPlan::IndexScan { .. } | PhysPlan::Unnest { .. }
    )
}

/// Try to root a parallel segment at `plan`: collect the maximal spine
/// of stage-safe operators, cut it at the topmost fan-out (or at a
/// multi-row leaf below the spine), and wrap stages-over-source. The
/// whole candidate subtree must be Ξ-free — parallel draining reorders
/// evaluation, which only side-effect-free segments survive
/// byte-identically.
fn try_wrap(plan: &PhysPlan) -> Option<PhysPlan> {
    if !stage_safe(plan) || super::contains_xi(plan) {
        return None;
    }
    let mut spine: Vec<&PhysPlan> = Vec::new();
    let mut below = plan;
    while stage_safe(below) {
        spine.push(below);
        below = spine_input(below).expect("stage ops have a spine input");
    }
    // Topmost fan-out on the spine: its subtree is the source and it
    // caps the morsel count at the full fan-out cardinality. A deeper
    // cut could strand parallelism behind a low-cardinality inner scan.
    let (source, stages_end) = match spine.iter().position(|n| is_fanout(n)) {
        Some(j) if j > 0 => (spine[j], j),
        // No fan-out on the spine — a literal/nested relation below it
        // still partitions.
        None if matches!(below, PhysPlan::AttrRel(_) | PhysPlan::Literal(_)) => {
            (below, spine.len())
        }
        _ => return None,
    };
    let mut stages = PhysPlan::MorselFeed;
    for node in spine[..stages_end].iter().rev() {
        stages = replace_spine_input(node, stages);
    }
    Some(PhysPlan::Parallel {
        source: Box::new(source.clone()),
        stages: Box::new(stages),
    })
}

/// Clone `node` with its spine-input edge replaced by `new_input`.
fn replace_spine_input(node: &PhysPlan, new_input: PhysPlan) -> PhysPlan {
    let mut out = node.clone();
    match &mut out {
        PhysPlan::Select { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Map { input, .. }
        | PhysPlan::UnnestMap { input, .. }
        | PhysPlan::Unnest { input, .. }
        | PhysPlan::IndexScan { input, .. } => **input = new_input,
        PhysPlan::Cross { left, .. }
        | PhysPlan::HashJoin { left, .. }
        | PhysPlan::LoopJoin { left, .. }
        | PhysPlan::IndexJoin { left, .. } => **left = new_input,
        other => unreachable!("not a spine operator: {}", other.op_name()),
    }
    out
}

// ---------------------------------------------------------------------
// Shared per-segment state
// ---------------------------------------------------------------------

/// Claim-or-wait protocol for probe-invariant index joins: the decision
/// depends on nothing but constant bounds, so exactly one probe must
/// happen per segment — serial execution memoizes after one probe, and
/// the merged worker metrics must show the same single lookup. The
/// first worker to arrive claims the probe; siblings block on the
/// condvar and reuse the published decision, cancelling their own
/// probes (and, through the per-cursor memo, every later tuple's).
pub(crate) struct ProbeGroup {
    state: Mutex<ProbeState>,
    cv: Condvar,
}

enum ProbeState {
    /// Nobody has probed yet.
    Open,
    /// A worker is probing; wait for its verdict.
    InFlight,
    /// The published decision.
    Done(bool),
}

impl ProbeGroup {
    fn new() -> ProbeGroup {
        ProbeGroup {
            state: Mutex::new(ProbeState::Open),
            cv: Condvar::new(),
        }
    }

    /// Return the group's decision, computing it via `probe` if this
    /// caller wins the claim. On probe error the claim is released so a
    /// sibling can retry rather than deadlock.
    pub(crate) fn decide(&self, probe: impl FnOnce() -> EvalResult<bool>) -> EvalResult<bool> {
        let mut st = self.state.lock().expect("probe group lock");
        loop {
            match *st {
                ProbeState::Done(m) => return Ok(m),
                ProbeState::Open => {
                    *st = ProbeState::InFlight;
                    break;
                }
                ProbeState::InFlight => st = self.cv.wait(st).expect("probe group wait"),
            }
        }
        drop(st);
        let res = probe();
        let mut st = self.state.lock().expect("probe group lock");
        *st = match &res {
            Ok(m) => ProbeState::Done(*m),
            Err(_) => ProbeState::Open,
        };
        drop(st);
        self.cv.notify_all();
        res
    }
}

/// Read-only state prepared once (on the calling thread, against the
/// calling context's metrics) and shared by every worker, keyed by
/// stage-plan node address.
#[derive(Default)]
struct SegmentShared {
    /// Resolved [`PhysPlan::IndexScan`] item sequences.
    scans: HashMap<usize, Arc<Vec<Value>>>,
    /// Hash-join build tables.
    builds: HashMap<usize, Arc<Buckets>>,
    /// Loop-join build sides, filtered and ordered for the θ-probe.
    thetas: HashMap<usize, Arc<ThetaBuild>>,
    /// Materialized inner sides of cross products.
    inners: HashMap<usize, Arc<Vec<Tuple>>>,
    /// Early-cancel groups for probe-invariant index joins.
    groups: HashMap<usize, Arc<ProbeGroup>>,
}

impl SegmentShared {
    /// Walk the stage spine top-down, doing exactly the once-per-cursor
    /// work serial execution would do on first pull: drain and build
    /// join inners, resolve posting-list scans (one `index_lookups`
    /// bump), allocate probe groups.
    fn prepare(
        stages: &PhysPlan,
        env: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<SegmentShared> {
        let mut shared = SegmentShared::default();
        let mut cur = stages;
        loop {
            let addr = node_id(cur);
            match cur {
                PhysPlan::MorselFeed => break,
                PhysPlan::IndexScan {
                    input,
                    uri,
                    pattern,
                    distinct,
                    ..
                } => {
                    let items = crate::access::scan_items(uri, pattern, *distinct, ctx)?;
                    shared.scans.insert(addr, Arc::new(items));
                    cur = input;
                }
                PhysPlan::HashJoin {
                    left,
                    right,
                    right_keys,
                    ..
                } => {
                    let rows = drain_plan(right, env, ctx)?;
                    let build = Buckets::build(rows, right_keys, ctx.catalog);
                    shared.builds.insert(addr, Arc::new(build));
                    cur = left;
                }
                PhysPlan::LoopJoin {
                    left, right, split, ..
                } => {
                    let rows = drain_plan(right, env, ctx)?;
                    let build = ThetaBuild::new(rows, split, env, ctx)?;
                    shared.thetas.insert(addr, Arc::new(build));
                    cur = left;
                }
                PhysPlan::Cross { left, right, .. } => {
                    let rows = drain_plan(right, env, ctx)?;
                    shared.inners.insert(addr, Arc::new(rows));
                    cur = left;
                }
                PhysPlan::IndexJoin { left, recipe } => {
                    if recipe.probe_invariant() {
                        shared.groups.insert(addr, Arc::new(ProbeGroup::new()));
                    }
                    cur = left;
                }
                PhysPlan::Select { input, .. }
                | PhysPlan::Project { input, .. }
                | PhysPlan::Map { input, .. }
                | PhysPlan::UnnestMap { input, .. }
                | PhysPlan::Unnest { input, .. } => cur = input,
                other => {
                    return Err(EvalError::new(format!(
                        "operator `{}` is not valid inside a parallel segment",
                        other.op_name()
                    )))
                }
            }
        }
        Ok(shared)
    }
}

fn drain_plan(plan: &PhysPlan, env: &Scope<'_>, ctx: &mut EvalCtx<'_>) -> EvalResult<Vec<Tuple>> {
    let mut c = super::lower(plan, env);
    drain(c.as_mut(), ctx)
}

// ---------------------------------------------------------------------
// Worker-side lowering
// ---------------------------------------------------------------------

/// What lowering one morsel's copy of the stage pipeline takes from its
/// segment instead of from the plan: the builds and scans
/// [`SegmentShared::prepare`] resolved once, and the morsel itself for
/// the feed leaf. Everything else is the serial lowering — the same
/// cursors, the same [`super::cursor::Metered`] shells (same operator
/// names, same plan-node identities) — so per-worker counters and traces
/// merge into serial-equal totals.
pub(crate) struct Stage<'a> {
    shared: &'a SegmentShared,
    feed: Option<MorselSlice>,
}

impl Stage<'_> {
    /// The morsel, for the one feed leaf of the stage spine.
    pub(crate) fn take_feed(&mut self) -> Option<BoxCursor<'static>> {
        let feed: BoxCursor<'static> = Box::new(self.feed.take()?);
        Some(feed)
    }

    pub(crate) fn scan(&self, node: usize) -> Arc<Vec<Value>> {
        self.shared.scans[&node].clone()
    }

    pub(crate) fn buckets(&self, node: usize) -> Arc<Buckets> {
        self.shared.builds[&node].clone()
    }

    pub(crate) fn theta(&self, node: usize) -> Arc<ThetaBuild> {
        self.shared.thetas[&node].clone()
    }

    pub(crate) fn inner(&self, node: usize) -> Arc<Vec<Tuple>> {
        self.shared.inners[&node].clone()
    }

    /// The early-cancel group of a probe-invariant index join.
    pub(crate) fn probe_group(&self, node: usize) -> Option<Arc<ProbeGroup>> {
        self.shared.groups.get(&node).cloned()
    }
}

/// The feed leaf: one contiguous slice of the drained source.
struct MorselSlice {
    rows: Arc<Vec<Tuple>>,
    end: usize,
    idx: usize,
}

impl Cursor for MorselSlice {
    fn next(&mut self, _ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.idx >= self.end {
            return Ok(None);
        }
        let t = self.rows[self.idx].clone();
        self.idx += 1;
        Ok(Some(t))
    }

    fn op_name(&self) -> &'static str {
        "MorselFeed"
    }
}

/// A [`PhysPlan::MorselFeed`] lowered outside a parallel segment — a
/// plan-construction bug surfaced as an execution error.
pub struct DanglingFeed;

impl Cursor for DanglingFeed {
    fn next(&mut self, _ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        Err(EvalError::new(
            "MorselFeed outside a parallel segment".to_string(),
        ))
    }

    fn op_name(&self) -> &'static str {
        "MorselFeed"
    }
}

// ---------------------------------------------------------------------
// The parallel cursor
// ---------------------------------------------------------------------

/// The cursor of a [`PhysPlan::Parallel`] node. The first
/// pull runs the whole segment (drain → partition → pool → merge); the
/// merged output then streams out tuple by tuple. Deliberately not
/// [`super::cursor::Metered`]: the serial plan has no parallel shell, and parity
/// demands identical operator counters.
pub struct ParallelCursor<'p> {
    source: &'p PhysPlan,
    stages: &'p PhysPlan,
    env: &'p Scope<'p>,
    out: Option<std::vec::IntoIter<Tuple>>,
}

impl<'p> ParallelCursor<'p> {
    /// A cursor over the segment `stages(source)`.
    pub fn new(
        source: &'p PhysPlan,
        stages: &'p PhysPlan,
        env: &'p Scope<'p>,
    ) -> ParallelCursor<'p> {
        ParallelCursor {
            source,
            stages,
            env,
            out: None,
        }
    }
}

impl Cursor for ParallelCursor<'_> {
    fn next(&mut self, ctx: &mut EvalCtx<'_>) -> EvalResult<Option<Tuple>> {
        if self.out.is_none() {
            let rows = run_segment(self.source, self.stages, self.env, ctx)?;
            self.out = Some(rows.into_iter());
        }
        Ok(self.out.as_mut().expect("ran above").next())
    }

    fn op_name(&self) -> &'static str {
        "Parallel"
    }
}

/// Contiguous, balanced range partition of `len` rows into at most
/// `degree × MORSELS_PER_WORKER` morsels.
fn partition(len: usize, degree: usize) -> Vec<Range<usize>> {
    let count = (degree * MORSELS_PER_WORKER).min(len).max(1);
    let base = len / count;
    let rem = len % count;
    let mut ranges = Vec::with_capacity(count);
    let mut start = 0;
    for i in 0..count {
        let size = base + usize::from(i < rem);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// The attribute the source binds per produced tuple — when it binds
/// document nodes, morsel merge keys carry their `NodeId`s.
fn driving_attr(source: &PhysPlan) -> Option<Sym> {
    match source {
        PhysPlan::UnnestMap { attr, .. }
        | PhysPlan::IndexScan { attr, .. }
        | PhysPlan::Unnest { attr, .. } => Some(*attr),
        _ => None,
    }
}

/// Pop the next morsel for worker `w`: own deque from the front, then
/// steal from siblings' backs (skew in per-morsel cost — e.g. probe
/// fan-out concentrated in one document region — drains onto idle
/// workers).
fn next_morsel(w: usize, queues: &[Mutex<VecDeque<usize>>]) -> Option<usize> {
    if let Some(m) = queues[w].lock().expect("morsel queue").pop_front() {
        return Some(m);
    }
    for off in 1..queues.len() {
        let q = &queues[(w + off) % queues.len()];
        if let Some(m) = q.lock().expect("morsel queue").pop_back() {
            return Some(m);
        }
    }
    None
}

fn run_morsel(
    stages: &PhysPlan,
    env: &Scope<'_>,
    shared: &SegmentShared,
    rows: Arc<Vec<Tuple>>,
    range: Range<usize>,
    ctx: &mut EvalCtx<'_>,
) -> EvalResult<Vec<Tuple>> {
    let feed = MorselSlice {
        rows,
        end: range.end,
        idx: range.start,
    };
    let stage = Stage {
        shared,
        feed: Some(feed),
    };
    let mut lowering = Lowering {
        env,
        stage: Some(stage),
        replays: None,
    };
    let mut cur = lowering.lower(stages);
    drain(cur.as_mut(), ctx)
}

/// Execute one parallel segment end to end. Degree comes from
/// `ctx.parallel`; degree 1 (or a single-row source) runs the stage
/// pipeline inline on the calling thread with the calling context —
/// same code path, no threads, identical metrics.
fn run_segment(
    source: &PhysPlan,
    stages: &PhysPlan,
    env: &Scope<'_>,
    ctx: &mut EvalCtx<'_>,
) -> EvalResult<Vec<Tuple>> {
    let rows = drain_plan(source, env, ctx)?;
    let shared = SegmentShared::prepare(stages, env, ctx)?;
    if rows.is_empty() {
        return Ok(Vec::new());
    }
    let degree = ctx.parallel.max(1);
    if degree == 1 || rows.len() < 2 {
        let len = rows.len();
        return run_morsel(stages, env, &shared, Arc::new(rows), 0..len, ctx);
    }

    let morsels = partition(rows.len(), degree);
    let workers = degree.min(morsels.len());
    let drv = driving_attr(source);
    let node_keys: Vec<Option<xmldb::NodeId>> = morsels
        .iter()
        .map(|r| match drv.and_then(|a| rows[r.start].get(a)) {
            Some(Value::Node(nref)) => Some(nref.node),
            _ => None,
        })
        .collect();
    let all_nodes = node_keys.iter().all(Option::is_some);
    // Node keys are only a sound merge component when they *ascend with
    // the morsel ordinals*. A driving attribute that restarts per input
    // tuple — e.g. a doc-rooted Υ above another fan-out, the cross
    // product of two scans — cycles through the same posting list, and
    // keying the merge by node would regroup the output by node instead
    // of restoring the serial interleaving (found by the differential
    // fuzz oracle). Ordinals alone always restore contiguous partitions.
    let keys_ascend = all_nodes && node_keys.windows(2).all(|w| w[0] <= w[1]);

    let rows = Arc::new(rows);
    // Round-robin assignment spreads contiguous document ranges across
    // workers; stealing rebalances the rest.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                (0..morsels.len())
                    .filter(|m| m % workers == w)
                    .collect::<VecDeque<usize>>(),
            )
        })
        .collect();
    let results: Vec<Mutex<Option<EvalResult<Vec<Tuple>>>>> =
        morsels.iter().map(|_| Mutex::new(None)).collect();
    let abort = AtomicBool::new(false);
    let catalog = ctx.catalog;
    let tracing = ctx.trace.is_some();

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            let abort = &abort;
            let shared = &shared;
            let rows = &rows;
            let morsels = &morsels;
            handles.push(s.spawn(move || {
                let mut wctx = EvalCtx::new(catalog);
                if tracing {
                    wctx.enable_trace();
                }
                while let Some(m) = next_morsel(w, queues) {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let res = run_morsel(
                        stages,
                        env,
                        shared,
                        rows.clone(),
                        morsels[m].clone(),
                        &mut wctx,
                    );
                    if res.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    *results[m].lock().expect("morsel slot") = Some(res);
                }
                let trace = wctx.take_trace();
                (wctx.metrics, trace)
            }));
        }
        for h in handles {
            let (metrics, trace) = h.join().expect("parallel worker panicked");
            ctx.metrics.merge(&metrics);
            if let (Some(main), Some(t)) = (ctx.trace.as_mut(), trace) {
                main.merge(&t);
            }
        }
    });

    let mut runs: Vec<Run<Tuple>> = Vec::with_capacity(morsels.len());
    let mut first_err: Option<EvalError> = None;
    for (i, slot) in results.into_iter().enumerate() {
        match slot.into_inner().expect("morsel slot") {
            Some(Ok(items)) => runs.push(Run {
                key: MorselKey {
                    node: if keys_ascend { node_keys[i] } else { None },
                    ordinal: i,
                },
                items,
            }),
            Some(Err(e)) if first_err.is_none() => first_err = Some(e),
            Some(Err(_)) => {}
            // Unprocessed: a sibling's error aborted the pool.
            None => {}
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    Ok(merge_runs(runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::{CmpOp, Scalar};
    use xmldb::gen::{gen_bib, BibConfig};
    use xmldb::Catalog;
    use xpath::parse_path;

    fn catalog(books: usize) -> Catalog {
        let mut cat = Catalog::new();
        cat.register(gen_bib(&BibConfig {
            books,
            authors_per_book: 2,
            ..BibConfig::default()
        }));
        cat
    }

    fn quantifier_plan() -> PhysPlan {
        let probe = doc_scan("d1", "bib.xml").unnest_map(
            "t1",
            Scalar::attr("d1").path(parse_path("//book/title").unwrap()),
        );
        let build = doc_scan("d2", "bib.xml")
            .unnest_map(
                "t2",
                Scalar::attr("d2").path(parse_path("//book/title").unwrap()),
            )
            .project(&["t2"]);
        let e = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        crate::compile(&e)
    }

    #[test]
    fn rewrite_wraps_probe_loop_over_fanout() {
        let plan = apply_parallel(&quantifier_plan());
        let PhysPlan::Parallel { source, stages } = &plan else {
            panic!("expected a parallel segment: {}", plan.explain());
        };
        assert!(
            matches!(source.as_ref(), PhysPlan::UnnestMap { .. }),
            "source is the probe-side fan-out: {}",
            source.explain()
        );
        let PhysPlan::HashJoin { left, .. } = stages.as_ref() else {
            panic!("stages keep the probe loop: {}", stages.explain());
        };
        assert!(matches!(left.as_ref(), PhysPlan::MorselFeed));
    }

    #[test]
    fn rewrite_is_idempotent() {
        let once = apply_parallel(&quantifier_plan());
        let twice = apply_parallel(&once);
        assert_eq!(once.explain(), twice.explain());
    }

    #[test]
    fn rewrite_declines_xi_segments() {
        // Ξ at the root: the segment forms *below* it, never across it.
        let e = doc_scan("d", "bib.xml")
            .unnest_map(
                "t",
                Scalar::attr("d").path(parse_path("//book/title").unwrap()),
            )
            .xi(nal::expr::builder::xi_cmds(&["$t"]));
        let plan = apply_parallel(&crate::compile(&e));
        // A lone fan-out with nothing above it inside the Ξ-free region
        // offers no stage work: no wrap.
        assert!(!contains_parallel(&plan), "{}", plan.explain());
    }

    /// A subscript whose range is invariant owns a spool per cursor: in a
    /// stage pipeline each worker would fill its own and run the range
    /// again. Its operator stays above the segment, and every degree
    /// counts the serial run's work.
    #[test]
    fn operators_with_shared_blocks_stay_above_segments() {
        let range = doc_scan("d2", "bib.xml")
            .unnest_map(
                "q",
                Scalar::attr("d2").path(parse_path("//book/title").unwrap()),
            )
            .project(&["q"]);
        let e = doc_scan("d1", "bib.xml")
            .unnest_map(
                "t1",
                Scalar::attr("d1").path(parse_path("//book/title").unwrap()),
            )
            .map("u", Scalar::attr("t1"))
            .select(Scalar::Exists {
                var: Sym::new("q"),
                range: Box::new(range),
                pred: Box::new(Scalar::attr_cmp(CmpOp::Eq, "q", "t1")),
            });
        let serial_plan = crate::compile(&e);
        assert_eq!(serial_plan.detail(), " shared{Υ[q]}");
        let plan = apply_parallel(&serial_plan);
        let PhysPlan::Select { input, .. } = &plan else {
            panic!("the selection stays on top: {}", plan.explain());
        };
        assert!(
            matches!(input.as_ref(), PhysPlan::Parallel { .. }),
            "a segment forms below it: {}",
            plan.explain()
        );
        let cat = catalog(30);
        let serial = crate::run_compiled(&serial_plan, &cat).unwrap();
        assert_eq!(serial.metrics.doc_scans, 2);
        for workers in [1usize, 2, 8] {
            let par = crate::run_streaming_parallel(&plan, &cat, workers).unwrap();
            assert_eq!(par.rows, serial.rows, "rows at {workers} workers");
            assert_eq!(par.metrics, serial.metrics, "metrics at {workers} workers");
        }
    }

    #[test]
    fn partition_is_contiguous_and_complete() {
        for (len, degree) in [(1usize, 4usize), (7, 2), (100, 4), (3, 8)] {
            let ranges = partition(len, degree);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert!(!w[0].is_empty());
            }
        }
    }

    #[test]
    fn parallel_output_matches_serial_streaming() {
        let cat = catalog(30);
        let serial_plan = quantifier_plan();
        let par_plan = apply_parallel(&serial_plan);
        let mut sctx = EvalCtx::new(&cat);
        let serial = crate::execute(&serial_plan, &Tuple::empty(), &mut sctx).unwrap();
        for workers in [1usize, 3, 8] {
            let mut pctx = EvalCtx::new(&cat);
            pctx.parallel = workers;
            let par = crate::execute(&par_plan, &Tuple::empty(), &mut pctx).unwrap();
            assert_eq!(serial, par, "rows at {workers} workers");
            assert_eq!(
                sctx.metrics.tuples_produced, pctx.metrics.tuples_produced,
                "tuple counters at {workers} workers"
            );
            assert_eq!(
                sctx.metrics.op_tuples, pctx.metrics.op_tuples,
                "per-operator counters at {workers} workers"
            );
            assert_eq!(sctx.metrics.probe_tuples, pctx.metrics.probe_tuples);
        }
    }
}
