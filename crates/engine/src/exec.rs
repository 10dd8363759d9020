//! Per-tuple helpers shared by the pipeline's cursors
//! ([`crate::pipeline`]) and the access-path recipe runtime
//! ([`crate::access::probe`]): Π over a row slice, μ of one tuple, and
//! Γ's single-buffer grouping.

use std::collections::HashMap;

use nal::eval::{dedup_by_value, EvalCtx, EvalError, EvalResult};
use nal::hash::FastBuild;
use nal::{ProjOp, Seq, Sym, Tuple, Value};

use crate::key::{key_of, probe_key, Key};

/// Π over a row slice: the access-path probe runtime replays recorded
/// `Project` build operators with it per reconstructed candidate.
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

/// μ / μ^D of one tuple: emit `t` without
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
                "μ[{attr}]: attribute is not tuple-valued: {other}"
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

/// Single-pass grouping by atomized key, for the blocking Γ and grouped
/// Ξ cursors. Takes the rows: each moves into its group's stretch of the
/// one output buffer.
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
