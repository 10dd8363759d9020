//! Plan execution.
//!
//! Operators are materializing (Vec in, Vec out) — the experiments all
//! run over memory-resident documents, matching the paper's setup where
//! the database cache holds the queried documents. Order preservation is
//! structural: every operator emits in left-input order; hash buckets
//! keep right-input insertion order, so hash joins produce exactly the
//! sequence the definitional nested loop would. Joins are not
//! implemented twice: once both inputs are materialized, hash and loop
//! joins run the streaming executor's cursors ([`crate::pipeline::join`])
//! over them.

use std::borrow::Cow;
use std::collections::HashMap;

use nal::eval::scalar::{eval_scalar, truthy};
use nal::eval::{apply_groupfn, dedup_by_value, eval, xi, EvalCtx, EvalError, EvalResult};
use nal::hash::FastBuild;
use nal::{ProjOp, Seq, Sym, Tuple, Value};

use crate::key::{key_of, probe_key, Key};
use crate::pipeline::cursor::{drain, Feed};
use crate::pipeline::join;
use crate::plan::{JoinKind, PhysPlan};

/// Evaluation scope of a tuple under an environment. Top-level plans run
/// with an empty environment, where `env.concat(t)` would just clone `t`
/// — borrow it instead so the hot σ/χ/Υ/⋈ loops allocate nothing extra.
pub(crate) fn scoped<'a>(env: &Tuple, t: &'a Tuple) -> Cow<'a, Tuple> {
    if env.is_empty() {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(env.concat(t))
    }
}

/// Execute a plan under an environment (non-empty only for nested
/// evaluation contexts).
///
/// When the context carries a trace ([`EvalCtx::enable_trace`]), every
/// node records inclusive wall time, output rows, and index-probe deltas
/// under its address — the materializing side of EXPLAIN ANALYZE.
/// Untraced runs take the first branch and pay a single `Option` check
/// per node.
pub fn execute(plan: &PhysPlan, env: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
    if ctx.trace.is_none() {
        return execute_node(plan, env, ctx);
    }
    let start = std::time::Instant::now();
    let (lookups0, hits0) = (ctx.metrics.index_lookups, ctx.metrics.index_hits);
    let out = execute_node(plan, env, ctx)?;
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let lookups = ctx.metrics.index_lookups - lookups0;
    let hits = ctx.metrics.index_hits - hits0;
    if let Some(trace) = ctx.trace.as_mut() {
        trace.record(
            plan as *const PhysPlan as usize,
            out.len() as u64,
            elapsed_ns,
            lookups,
            hits,
        );
    }
    Ok(out)
}

fn execute_node(plan: &PhysPlan, env: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
    let out = match plan {
        PhysPlan::Singleton => vec![Tuple::empty()],
        PhysPlan::Literal(rows) => rows.clone(),
        PhysPlan::AttrRel(a) => match env.get(*a) {
            Some(Value::Tuples(ts)) => ts.to_vec(),
            other => {
                return Err(EvalError::new(format!(
                    "rel({a}): not a nested relation: {other:?}"
                )))
            }
        },

        PhysPlan::Select { input, pred } => {
            let rows = execute(input, env, ctx)?;
            let mut out = Vec::with_capacity(rows.len());
            for t in rows {
                if truthy(pred, &scoped(env, &t), ctx)? {
                    out.push(t);
                }
            }
            out
        }

        PhysPlan::Project { input, op } => {
            let rows = execute(input, env, ctx)?;
            project_rows(&rows, op, ctx)
        }

        PhysPlan::Map {
            input,
            attr,
            value,
            keep,
            ..
        } => {
            let rows = execute(input, env, ctx)?;
            let mut out = Vec::with_capacity(rows.len());
            for t in rows {
                let v = eval_scalar(value, &scoped(env, &t), ctx)?;
                out.push(t.merged(&[(*attr, v)], keep.attrs()));
            }
            out
        }

        PhysPlan::Cross { left, right, keep } => {
            let l = execute(left, env, ctx)?;
            let r = execute(right, env, ctx)?;
            let mut out = Vec::with_capacity(l.len() * r.len());
            for lt in &l {
                for rt in &r {
                    out.push(lt.concat_keep(rt, keep.attrs()));
                }
            }
            out
        }

        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            kind,
            pad,
            keep,
        } => {
            // Both joins run the streaming cursors over the two
            // materialized inputs: one probe implementation, one
            // `probe_tuples` accounting for every executor.
            let l = execute(left, env, ctx)?;
            let r = execute(right, env, ctx)?;
            drain(
                &mut join::HashJoin {
                    left: Feed::Buffered(l.into_iter()),
                    right: Some(Feed::Buffered(r.into_iter())),
                    left_keys,
                    right_keys,
                    residual: residual.as_ref(),
                    kind,
                    pad,
                    keep: keep.attrs(),
                    env: env.clone(),
                    strict: false,
                    scratch: String::new(),
                    build: None,
                    cur: None,
                },
                ctx,
            )?
        }

        PhysPlan::LoopJoin {
            left,
            right,
            split,
            kind,
            pad,
            keep,
            ..
        } => {
            let l = execute(left, env, ctx)?;
            let r = execute(right, env, ctx)?;
            drain(
                &mut join::LoopJoin {
                    left: Feed::Buffered(l.into_iter()),
                    right: Some(Feed::Buffered(r.into_iter())),
                    split,
                    kind,
                    pad,
                    keep: keep.attrs(),
                    env: env.clone(),
                    strict: false,
                    build: None,
                    cur: None,
                },
                ctx,
            )?
        }

        PhysPlan::HashGroupUnary { input, g, by, f } => {
            let rows = execute(input, env, ctx)?;
            let mut groups = hash_groups(rows, by, ctx);
            let (mut out, mut scratch) = (Vec::with_capacity(groups.len()), String::new());
            while let Some(members) = groups.next_group() {
                let v = apply_groupfn(f, members, env, ctx)?;
                out.push(group_key(members, by, ctx, &mut scratch).extend(*g, v));
            }
            out
        }

        PhysPlan::ThetaGroupUnary {
            input,
            g,
            by,
            theta,
            f,
        } => {
            // Definitional fallback — delegate to the reference semantics
            // by rebuilding the logical node over a literal.
            let rows = execute(input, env, ctx)?;
            let logical = nal::Expr::GroupUnary {
                input: Box::new(nal::Expr::Literal(rows)),
                g: *g,
                by: by.clone(),
                theta: *theta,
                f: f.clone(),
            };
            eval(&logical, env, ctx)?
        }

        PhysPlan::HashGroupBinary {
            left,
            right,
            g,
            left_on,
            right_on,
            f,
            keep,
        } => {
            let l = execute(left, env, ctx)?;
            let r = execute(right, env, ctx)?;
            drain(
                &mut join::HashGroupBinary {
                    left: Feed::Buffered(l.into_iter()),
                    right: Feed::Buffered(r.into_iter()),
                    g: *g,
                    left_on,
                    right_on,
                    f,
                    keep: keep.attrs(),
                    env: env.clone(),
                    strict: false,
                    scratch: String::new(),
                    buckets: None,
                },
                ctx,
            )?
        }

        PhysPlan::ThetaGroupBinary {
            left,
            right,
            g,
            left_on,
            theta,
            right_on,
            f,
        } => {
            let l = execute(left, env, ctx)?;
            let r = execute(right, env, ctx)?;
            let logical = nal::Expr::GroupBinary {
                left: Box::new(nal::Expr::Literal(l)),
                right: Box::new(nal::Expr::Literal(r)),
                g: *g,
                left_on: left_on.clone(),
                theta: *theta,
                right_on: right_on.clone(),
                f: f.clone(),
            };
            eval(&logical, env, ctx)?
        }

        PhysPlan::Unnest {
            input,
            attr,
            distinct,
            preserve_empty,
            inner_attrs,
            keep,
        } => {
            let rows = execute(input, env, ctx)?;
            let mut out = Vec::new();
            for t in rows {
                unnest_tuple(
                    t,
                    *attr,
                    *distinct,
                    *preserve_empty,
                    inner_attrs,
                    keep.attrs(),
                    ctx,
                    |u| out.push(u),
                )?;
            }
            out
        }

        PhysPlan::UnnestMap {
            input,
            attr,
            value,
            keep,
            ..
        } => {
            let rows = execute(input, env, ctx)?;
            let mut out = Vec::new();
            for t in rows {
                let v = eval_scalar(value, &scoped(env, &t), ctx)?;
                for item in v.as_items() {
                    out.push(t.merged(&[(*attr, item.clone())], keep.attrs()));
                }
            }
            out
        }

        PhysPlan::XiSimple { input, cmds } => {
            let rows = execute(input, env, ctx)?;
            for t in &rows {
                xi::run_cmds(cmds, &scoped(env, t), ctx)?;
            }
            rows
        }

        PhysPlan::XiGroup {
            input,
            by,
            head,
            body,
            tail,
        } => {
            let rows = execute(input, env, ctx)?;
            let mut groups = hash_groups(rows, by, ctx);
            let (mut out, mut scratch) = (Vec::with_capacity(groups.len()), String::new());
            while let Some(members) = groups.next_group() {
                let key_tuple = group_key(members, by, ctx, &mut scratch);
                let key_env = env.concat(&key_tuple);
                xi::run_cmds(head, &key_env, ctx)?;
                for t in members {
                    xi::run_cmds(body, &env.concat(t), ctx)?;
                }
                xi::run_cmds(tail, &key_env, ctx)?;
                out.push(key_tuple);
            }
            out
        }

        PhysPlan::IndexScan {
            input,
            attr,
            uri,
            pattern,
            distinct,
            keep,
        } => {
            let rows = execute(input, env, ctx)?;
            // The path is document-rooted: one index resolution serves
            // every input tuple (the replaced Υ re-evaluated it per
            // tuple, producing the identical sequence each time).
            let items = crate::access::scan_items(uri, pattern, *distinct, ctx)?;
            let mut out = Vec::with_capacity(rows.len() * items.len());
            for t in rows {
                for item in &items {
                    out.push(t.merged(&[(*attr, item.clone())], keep.attrs()));
                }
            }
            out
        }

        PhysPlan::IndexJoin { left, recipe } => {
            let l = execute(left, env, ctx)?;
            let mut access = crate::access::IndexJoinAccess::resolve(recipe, ctx)?;
            // Probe-invariant range recipes (constant bounds, no
            // residual) decide once and reuse the answer — the streaming
            // executor memoizes identically, so metrics stay equal.
            let cacheable = recipe.probe_invariant();
            let mut cached: Option<bool> = None;
            let mut out = Vec::with_capacity(l.len());
            for lt in l {
                let matched = match cached {
                    Some(m) => m,
                    None => {
                        let m = access.probe_matches(recipe, &lt, env, ctx)?;
                        if cacheable {
                            cached = Some(m);
                        }
                        m
                    }
                };
                match recipe.kind {
                    JoinKind::Semi if matched => out.push(lt),
                    JoinKind::Anti if !matched => out.push(lt),
                    _ => {}
                }
            }
            out
        }

        PhysPlan::Parallel { source, stages } => {
            // Materializing fallback: run the segment inline by splicing
            // the drained source into the stage pipeline's feed leaf.
            // Parallel execution proper is a streaming-executor feature.
            let rows = execute(source, env, ctx)?;
            let spliced = crate::pipeline::par::substitute_feed(stages, &rows);
            return execute(&spliced, env, ctx);
        }

        PhysPlan::MorselFeed => {
            return Err(EvalError::new(
                "MorselFeed outside a parallel segment".to_string(),
            ))
        }
    };
    ctx.metrics.tuples_produced += out.len() as u64;
    Ok(out)
}

/// Shared with the access-path probe runtime, which replays recorded
/// `Project` build operators per reconstructed candidate.
pub(crate) fn project_rows(rows: &[Tuple], op: &ProjOp, ctx: &EvalCtx<'_>) -> Seq {
    use nal::eval::atomize_tuple;
    match op {
        ProjOp::Cols(cols) => rows.iter().map(|t| t.project(cols)).collect(),
        ProjOp::Drop(cols) => rows.iter().map(|t| t.without(cols)).collect(),
        ProjOp::Rename(pairs) => rows.iter().map(|t| t.rename(pairs)).collect(),
        ProjOp::DistinctCols(cols) => {
            let projected: Seq = rows
                .iter()
                .map(|t| atomize_tuple(&t.project(cols), ctx.catalog))
                .collect();
            dedup_by_value(&projected, ctx.catalog)
        }
        ProjOp::DistinctRename(pairs) => {
            let old: Vec<Sym> = pairs.iter().map(|(_, o)| *o).collect();
            let projected: Seq = rows
                .iter()
                .map(|t| atomize_tuple(&t.project(&old).rename(pairs), ctx.catalog))
                .collect();
            dedup_by_value(&projected, ctx.catalog)
        }
    }
}

/// μ / μ^D of one tuple, shared by both executors: emit `t` without
/// `attr`, concatenated with each (optionally value-distinct) tuple of
/// the nested relation read in place — or ⊥-padded when it is empty and
/// `preserve_empty` is set — restricted to `keep`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn unnest_tuple(
    t: Tuple,
    attr: Sym,
    distinct: bool,
    preserve_empty: bool,
    inner_attrs: &[Sym],
    keep: Option<&[Sym]>,
    ctx: &EvalCtx<'_>,
    mut emit: impl FnMut(Tuple),
) -> EvalResult<()> {
    let deduped;
    let nested: &[Tuple] = match t.get(attr) {
        Some(Value::Tuples(ts)) if distinct => {
            deduped = dedup_by_value(ts, ctx.catalog);
            &deduped
        }
        Some(Value::Tuples(ts)) => ts,
        Some(Value::Null) | None => &[],
        Some(other) => {
            return Err(EvalError::new(format!(
                "unnest({attr}): not tuple-valued: {other}"
            )))
        }
    };
    // A `keep` without `attr` drops it in the same merge that adds the
    // inner tuple; only an unrestricted μ removes it beforehand.
    let rest = match keep {
        Some(keep) if !keep.contains(&attr) => t.clone(),
        _ => t.without(&[attr]),
    };
    if nested.is_empty() {
        if preserve_empty {
            emit(rest.concat_keep(&Tuple::bottom(inner_attrs), keep));
        }
    } else {
        for inner in nested {
            emit(rest.concat_keep(inner, keep));
        }
    }
    Ok(())
}

/// Rows grouped by key: the rows of a group contiguous, the groups in
/// first-occurrence order of their keys — one buffer for all of them,
/// however many groups there are.
pub(crate) struct Groups {
    rows: Vec<Tuple>,
    /// End of each group in `rows`.
    ends: Vec<usize>,
    next: usize,
}

impl Groups {
    /// The next group's rows (never empty), if there is one.
    pub(crate) fn next_group(&mut self) -> Option<&[Tuple]> {
        let end = *self.ends.get(self.next)?;
        let start = self.next.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        self.next += 1;
        Some(&self.rows[start..end])
    }

    /// How many groups there are.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

/// The key tuple of a group: its first row projected onto the grouping
/// attributes, atomized (Γ group keys are what `distinct-values` would
/// return).
pub(crate) fn group_key(
    members: &[Tuple],
    by: &[Sym],
    ctx: &EvalCtx<'_>,
    scratch: &mut String,
) -> Tuple {
    members[0].project_map(by, |v| v.atomize_in(ctx.catalog, scratch))
}

/// Single-pass grouping by atomized key. Shared with the streaming
/// executor's blocking group cursors. Takes the rows: each moves into
/// its group's stretch of the one output buffer.
pub(crate) fn hash_groups(rows: Vec<Tuple>, by: &[Sym], ctx: &EvalCtx<'_>) -> Groups {
    // Per group its size, then (below) where its next row goes.
    let mut at: Vec<usize> = Vec::new();
    // Each row's group, decided while the rows are only borrowed: the
    // stored keys point into them and the documents. NULL keys group
    // with nothing (cmp_atomic semantics).
    let slots: Vec<Option<usize>> = {
        let mut index: HashMap<Key<'_>, usize, FastBuild> =
            HashMap::with_capacity_and_hasher(rows.len().min(1024), FastBuild);
        let mut scratch = String::new();
        let mut slot_of = |t| {
            let (probe, assembled) = probe_key(t, by, ctx.catalog, &mut scratch)?;
            if let Some(&slot) = index.get(&probe) {
                at[slot] += 1;
                return Some(slot);
            }
            // A new group is kept under a key that borrows the row or
            // the document — or, assembled in the scratch, its own text.
            let key = match assembled {
                true => probe.into_owned(),
                false => key_of(t, by, ctx.catalog)?,
            };
            index.insert(key, at.len());
            at.push(1);
            Some(at.len() - 1)
        };
        rows.iter().map(&mut slot_of).collect()
    };
    let mut grouped = 0;
    for size in &mut at {
        grouped += std::mem::replace(size, grouped);
    }
    let mut placed = vec![Tuple::empty(); grouped];
    for (t, slot) in rows.into_iter().zip(slots) {
        if let Some(slot) = slot {
            placed[at[slot]] = t;
            at[slot] += 1;
        }
    }
    // Every group is full: `at` now holds the groups' ends.
    Groups {
        rows: placed,
        ends: at,
        next: 0,
    }
}
