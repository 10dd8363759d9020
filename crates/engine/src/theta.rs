//! The shared θ-probe: non-equi (loop) joins without the quadratic pair
//! loop.
//!
//! A [`PhysPlan::LoopJoin`](crate::plan::PhysPlan::LoopJoin) carries its
//! predicate twice: whole (`pred`, what the access-path tracer and the Ξ
//! analysis read) and as a compile-time [`ThetaSplit`] of its conjuncts
//! by the side they mention. [`ThetaBuild`] is the materialized right
//! side prepared for probing — built once per execution, on the first
//! pull of the [`crate::pipeline::join::LoopJoin`] cursor that decides
//! every probe tuple with it:
//!
//! * **right-only** conjuncts (no attribute of the left side; constants
//!   and outer-scope attributes count as neither side) filter the build
//!   rows once, O(|right|);
//! * **left-only** conjuncts run once per probe tuple;
//! * only the **pair** part runs per surviving row, and a predicate
//!   with no pair part decides a semi/anti probe in O(1): `left_only(lt)
//!   ∧ build non-empty` — the scan twin of
//!   [`AccessRecipe::probe_invariant`](crate::access::AccessRecipe::probe_invariant);
//! * when the pair part holds range conjuncts `side θ key` over one
//!   build column, the build keeps that column's keys ordered in the two
//!   views [`xmldb::ValueIndex`] uses (parsed-numeric, string) and a
//!   probe enumerates only the key window that can satisfy θ.
//!
//! The split is applied only when **every** conjunct is
//! [`Scalar::replay_safe`] — the rule the index tracer uses: evaluations
//! the probe skips must be unobservable (no nested algebra, no Ξ, no
//! erroring call). Otherwise the whole predicate is the pair part and
//! every row is examined in arrival order, exactly the definitional
//! loop.
//!
//! **The ordered views are a superset filter, never the judge.** A
//! window may leave out only rows [`nal::cmp_general`] would reject for
//! the range conjuncts; every candidate that decides a probe is still
//! verified by evaluating the pair part over the joined tuple. Build
//! keys that are not one string or number (sequences, booleans), typed
//! numbers against a text probe, and probe values that are neither fall
//! back to "every surviving row is a candidate".
//!
//! `Metrics::probe_tuples` (right-side candidates actually examined) is
//! counted here and nowhere else for loop joins.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Range;

use nal::eval::{EvalCtx, EvalResult, Scope};
use nal::{CmpOp, Scalar, Sym, Tuple};
use xmldb::{Catalog, ValueKey};

use crate::access::RangeProbe;
use crate::key::key_val;
use crate::nested::{Blocks, Spooled};

/// A loop join's predicate, split at compile time by the side each
/// conjunct mentions. `None` parts are empty conjunctions (true).
#[derive(Clone, Debug)]
pub struct ThetaSplit {
    /// Conjuncts free of left-side attributes: filter the build once.
    pub right_only: Option<Scalar>,
    /// Conjuncts over left-side (and outer-scope) attributes only:
    /// evaluated once per probe tuple.
    pub left_only: Option<Scalar>,
    /// Conjuncts that need both sides: evaluated per candidate over the
    /// joined tuple. The whole predicate when the split is declined.
    pub pair: Option<Scalar>,
    /// The pair part's inequality conjuncts `side θ key` over one build
    /// column — what the ordered build answers with a key window.
    pub range: Option<(Sym, Vec<RangeProbe>)>,
    /// The pair part's nested blocks, compiled (a predicate with nested
    /// algebra is never split, so they are the whole predicate's).
    pub blocks: Blocks,
}

impl ThetaSplit {
    /// Split `pred` over a join whose sides produce `a_l` / `a_r`.
    /// `schemas_known` says both attribute sets are complete (a side
    /// whose schema is not statically known could hide a reference to
    /// it); without that, or with a conjunct that is not replay-safe,
    /// the whole predicate stays the pair part. `blocks` are `pred`'s
    /// compiled nested blocks.
    pub fn of(
        pred: &Scalar,
        a_l: &BTreeSet<Sym>,
        a_r: &BTreeSet<Sym>,
        schemas_known: bool,
        blocks: Blocks,
    ) -> ThetaSplit {
        let conjuncts = pred.conjuncts();
        if !schemas_known || !conjuncts.iter().all(|c| c.replay_safe()) {
            return ThetaSplit {
                right_only: None,
                left_only: None,
                pair: Some(pred.clone()),
                range: None,
                blocks,
            };
        }
        let (mut right_only, mut left_only, mut pair) = (Vec::new(), Vec::new(), Vec::new());
        let mut range: Option<(Sym, Vec<RangeProbe>)> = None;
        for c in conjuncts {
            let free = c.free_attrs();
            let on_right = free.iter().any(|a| a_r.contains(a));
            if !free.iter().any(|a| a_l.contains(a)) {
                right_only.push(c.clone());
            } else if !on_right {
                left_only.push(c.clone());
            } else {
                pair.push(c.clone());
                match (as_range_conjunct(c, a_r), &mut range) {
                    (Some((_, probe)), _) if probe.op == CmpOp::Eq => {}
                    (Some((key, probe)), None) => range = Some((key, vec![probe])),
                    (Some((key, probe)), Some((k, probes))) if *k == key => probes.push(probe),
                    _ => {}
                }
            }
        }
        let part = |cs: Vec<Scalar>| (!cs.is_empty()).then(|| Scalar::conjoin(cs));
        ThetaSplit {
            right_only: part(right_only),
            left_only: part(left_only),
            pair: part(pair),
            range,
            blocks,
        }
    }
}

/// Recognize `side θ key` (or `key θ side`, flipped) with θ ∈
/// {=, <, ≤, >, ≥}, where `key` is a bare build-side attribute and
/// `side` is a replay-safe scalar free of build-side attributes. `≠`
/// is no range: its key set is two disjoint ranges, not one. The one
/// definition of "range conjunct" — the index tracer
/// ([`crate::access::join_recipe`]) and [`ThetaSplit::of`] both use it.
pub(crate) fn as_range_conjunct(c: &Scalar, r_attrs: &BTreeSet<Sym>) -> Option<(Sym, RangeProbe)> {
    let Scalar::Cmp(op, x, y) = c else {
        return None;
    };
    if matches!(op, CmpOp::Ne) {
        return None;
    }
    let as_key = |s: &Scalar| match s {
        Scalar::Attr(a) if r_attrs.contains(a) => Some(*a),
        _ => None,
    };
    let side_ok =
        |s: &Scalar| s.replay_safe() && s.free_attrs().iter().all(|a| !r_attrs.contains(a));
    if let Some(k) = as_key(y) {
        if side_ok(x) {
            return Some((
                k,
                RangeProbe {
                    side: (**x).clone(),
                    op: *op,
                },
            ));
        }
    }
    if let Some(k) = as_key(x) {
        if side_ok(y) {
            return Some((
                k,
                RangeProbe {
                    side: (**y).clone(),
                    op: op.flip(),
                },
            ));
        }
    }
    None
}

/// The range column's keys in the two orders a probe value can select
/// a window from. Each entry carries the row's position in arrival
/// order. NULL and NaN keys satisfy no comparison and are in neither
/// view.
#[derive(Default)]
struct OrderedKeys {
    /// Keys that are, or parse as, a number — by IEEE order (the bits of
    /// [`ValueKey::num`]). What a typed-numeric probe compares against.
    numeric: Vec<(u64, usize)>,
    /// String and node keys by their text. What a text probe compares
    /// against — unless `typed_numbers`.
    text: Vec<(Box<str>, usize)>,
    /// Some key is a typed number: a text probe compares numerically
    /// against it, which the text view cannot answer.
    typed_numbers: bool,
    /// Some key is neither one string nor one number (a sequence, a
    /// boolean, a missing attribute): no window is a superset.
    irregular: bool,
}

impl OrderedKeys {
    fn build(rows: &[Tuple], key: Sym, catalog: &Catalog) -> OrderedKeys {
        let mut keys = OrderedKeys::default();
        for (pos, rt) in rows.iter().enumerate() {
            match rt.get(key).map(|v| key_val(v, catalog)) {
                Some(ValueKey::Null) => {}
                Some(ValueKey::Num(bits)) => {
                    keys.typed_numbers = true;
                    keys.numeric.push((bits, pos));
                }
                Some(ValueKey::Str(s)) => {
                    // `cmp_atomic`'s coercion of untyped text, verbatim.
                    if let Ok(v) = s.trim().parse::<f64>() {
                        if let ValueKey::Num(bits) = ValueKey::num(v) {
                            keys.numeric.push((bits, pos));
                        }
                    }
                    keys.text.push((s.into_owned().into_boxed_str(), pos));
                }
                Some(ValueKey::Bool(_) | ValueKey::Other(_)) | None => {
                    keys.irregular = true;
                    return keys;
                }
            }
        }
        keys.numeric.sort_unstable();
        keys.text.sort_unstable();
        keys
    }
}

/// Which ordered view a window indexes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum View {
    Numeric,
    Text,
}

/// The slice of a key-ordered view whose keys `k` satisfy `bound op k`;
/// `cmp` orders an entry's key against the bound.
fn window<T>(view: &[T], op: CmpOp, cmp: impl Fn(&T) -> Ordering) -> Range<usize> {
    let first_ge = || view.partition_point(|e| cmp(e) == Ordering::Less);
    let first_gt = || view.partition_point(|e| cmp(e) != Ordering::Greater);
    match op {
        CmpOp::Lt => first_gt()..view.len(),
        CmpOp::Le => first_ge()..view.len(),
        CmpOp::Gt => 0..first_ge(),
        CmpOp::Ge => 0..first_gt(),
        CmpOp::Eq | CmpOp::Ne => unreachable!("only inequalities drive the ordered build"),
    }
}

/// The build rows one probe tuple has to examine, in examination order.
#[derive(Debug)]
enum Candidates {
    /// Every kept row, in arrival order.
    All,
    /// A key window of an ordered view, in key order.
    Window(View, Range<usize>),
    /// A key window's rows put back into arrival order.
    Listed(Vec<usize>),
}

/// One probe tuple's walk over its candidates (inner and outer joins
/// resume it between emitted matches).
#[derive(Debug)]
pub struct Walk {
    lt: Tuple,
    candidates: Candidates,
    next: usize,
    matched: bool,
}

impl Walk {
    /// The probe tuple, if no candidate has passed — what an outer join
    /// pads once the walk is exhausted.
    pub fn unmatched(&self) -> Option<&Tuple> {
        (!self.matched).then_some(&self.lt)
    }
}

/// A loop join's build side, ready for probing: the rows that passed
/// the right-only part, in arrival order, plus the range column's
/// ordered keys when the split has range conjuncts.
pub struct ThetaBuild {
    rows: Vec<Tuple>,
    keys: Option<OrderedKeys>,
}

impl ThetaBuild {
    /// Prepare the materialized right side: keep the rows passing the
    /// right-only part (evaluated once each, in `env`), and order the
    /// range column's keys.
    pub fn new(
        mut rows: Vec<Tuple>,
        split: &ThetaSplit,
        env: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<ThetaBuild> {
        if let Some(p) = &split.right_only {
            let mut kept = Vec::with_capacity(rows.len());
            for rt in rows {
                if Spooled::NONE.truthy(p, &rt, env, ctx)? {
                    kept.push(rt);
                }
            }
            rows = kept;
        }
        let keys = split
            .range
            .as_ref()
            .map(|(key, _)| OrderedKeys::build(&rows, *key, ctx.catalog));
        Ok(ThetaBuild { rows, keys })
    }

    /// The candidates of probe tuple `lt`: none when the left-only part
    /// fails or a range side is NULL/NaN, the range conjuncts' common
    /// key window when the ordered keys can answer them, every kept row
    /// otherwise. `arrival_order` re-sorts a window by row position
    /// (joins that emit matches need right arrival order; semi/anti
    /// joins take any witness).
    fn candidates(
        &self,
        split: &ThetaSplit,
        lt: &Tuple,
        arrival_order: bool,
        env: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<Candidates> {
        const NONE: Candidates = Candidates::Listed(Vec::new());
        if self.rows.is_empty() {
            return Ok(NONE);
        }
        if split.left_only.is_none() && split.range.is_none() {
            return Ok(Candidates::All);
        }
        if let Some(p) = &split.left_only {
            if !Spooled::NONE.truthy(p, lt, env, ctx)? {
                return Ok(NONE);
            }
        }
        let (Some((_, probes)), Some(keys)) = (&split.range, &self.keys) else {
            return Ok(Candidates::All);
        };
        let mut found: Option<(View, Range<usize>)> = None;
        for probe in probes {
            // Pure and replay-safe by the split; the loop evaluated it
            // once per pair.
            let side = Spooled::NONE.eval(&probe.side, lt, env, ctx)?;
            let (view, range) = match key_val(&side, ctx.catalog) {
                // NULL and NaN satisfy no comparison: the conjunct — and
                // with it the pair part — fails for every row.
                ValueKey::Null => return Ok(NONE),
                ValueKey::Num(bits) if !keys.irregular => (
                    View::Numeric,
                    window(&keys.numeric, probe.op, |e| e.0.cmp(&bits)),
                ),
                ValueKey::Str(s) if !keys.irregular && !keys.typed_numbers => (
                    View::Text,
                    window(&keys.text, probe.op, |e| (*e.0).cmp(&*s)),
                ),
                _ => continue,
            };
            found = match found {
                None => Some((view, range)),
                Some((v, r)) if v == view => {
                    Some((v, r.start.max(range.start)..r.end.min(range.end)))
                }
                // A window of the other view: the first one drives.
                other => other,
            };
        }
        Ok(match found {
            None => Candidates::All,
            Some((_, r)) if r.is_empty() => NONE,
            Some((view, r)) if arrival_order => {
                let mut listed: Vec<usize> = match view {
                    View::Numeric => keys.numeric[r].iter().map(|e| e.1).collect(),
                    View::Text => keys.text[r].iter().map(|e| e.1).collect(),
                };
                listed.sort_unstable();
                Candidates::Listed(listed)
            }
            Some((view, r)) => Candidates::Window(view, r),
        })
    }

    /// The `i`-th candidate's row.
    fn candidate(&self, candidates: &Candidates, i: usize) -> Option<&Tuple> {
        let pos = match candidates {
            Candidates::All => i,
            Candidates::Window(view, r) => {
                let at = r.start + i;
                if at >= r.end {
                    return None;
                }
                let keys = self.keys.as_ref().expect("windows come from ordered keys");
                match view {
                    View::Numeric => keys.numeric[at].1,
                    View::Text => keys.text[at].1,
                }
            }
            Candidates::Listed(listed) => *listed.get(i)?,
        };
        self.rows.get(pos)
    }

    /// Semi/anti probe: does some build row match `lt`? Stops at the
    /// first verified candidate; a predicate without a pair part is
    /// decided without examining any.
    pub(crate) fn matches(
        &self,
        split: &ThetaSplit,
        lt: &Tuple,
        env: &Scope<'_>,
        blocks: &Spooled<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<bool> {
        let candidates = self.candidates(split, lt, false, env, ctx)?;
        if split.pair.is_none() {
            return Ok(self.candidate(&candidates, 0).is_some());
        }
        let mut i = 0;
        while let Some(rt) = self.candidate(&candidates, i) {
            i += 1;
            if verify(split, lt, rt, env, blocks, ctx)?.is_some() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Start an inner/outer probe of `lt`: its candidates in right
    /// arrival order.
    pub fn walk(
        &self,
        split: &ThetaSplit,
        lt: Tuple,
        env: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<Walk> {
        let candidates = self.candidates(split, &lt, true, env, ctx)?;
        Ok(Walk {
            lt,
            candidates,
            next: 0,
            matched: false,
        })
    }

    /// The next joined tuple of a walk, or `None` once its candidates
    /// are exhausted.
    pub(crate) fn next_match(
        &self,
        split: &ThetaSplit,
        walk: &mut Walk,
        env: &Scope<'_>,
        blocks: &Spooled<'_>,
        ctx: &mut EvalCtx<'_>,
    ) -> EvalResult<Option<Tuple>> {
        while let Some(rt) = self.candidate(&walk.candidates, walk.next) {
            walk.next += 1;
            if let Some(joined) = verify(split, &walk.lt, rt, env, blocks, ctx)? {
                walk.matched = true;
                return Ok(Some(joined));
            }
        }
        Ok(None)
    }
}

/// Examine one candidate: the joined tuple if the pair part holds over
/// it (its blocks evaluated through `blocks`, the probing cursor's). The
/// one place a loop join counts `probe_tuples`.
fn verify(
    split: &ThetaSplit,
    lt: &Tuple,
    rt: &Tuple,
    env: &Scope<'_>,
    blocks: &Spooled<'_>,
    ctx: &mut EvalCtx<'_>,
) -> EvalResult<Option<Tuple>> {
    ctx.metrics.probe_tuples += 1;
    let joined = lt.concat(rt);
    let passes = match &split.pair {
        None => true,
        Some(pair) => blocks.truthy(pair, &joined, env, ctx)?,
    };
    Ok(passes.then_some(joined))
}
