//! The θ-probe: non-equi joins without the quadratic pair loop.
//!
//! A [`PhysPlan::Join`](crate::plan::PhysPlan::Join) with the θ strategy
//! ([`JoinOn::Theta`](crate::plan::JoinOn::Theta)) carries its predicate
//! twice: whole (`pred`, what the access-path tracer reads) and as a
//! compile-time [`ThetaSplit`] of its conjuncts by the side they
//! mention — the sides' [`Schema::may`](crate::plan::Schema) says
//! which. [`ThetaBuild`] is the materialized right side
//! prepared for probing — built once per execution, on the first pull of
//! the [`crate::pipeline::join::Join`] cursor, which asks it for each
//! probe tuple's candidates and verifies them:
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
//! erroring call) — both sides' `may` is known, and no conjunct reads an
//! attribute a side may lack (in its `may`, not its `sure`), which would
//! fail on the row without it. Otherwise the whole predicate is the pair
//! part and every row is examined in arrival order, exactly the
//! definitional loop.
//!
//! **The ordered views are a superset filter, never the judge.** A
//! window may leave out only rows [`nal::cmp_general`] would reject for
//! the range conjuncts; every candidate that decides a probe is still
//! verified by evaluating the pair part over the joined tuple. A
//! sequence key has an entry per item, so its row may fall in a window
//! twice: candidates are then listed, each row once, and only the first
//! range conjunct's window is used. Build keys with a boolean item or
//! none at all, typed numbers against a text probe, and probe values
//! that are no string, node or number fall back to "every surviving row
//! is a candidate". The same ordered keys index a nested block's spool
//! ([`crate::nested`]).
//!
//! × is the empty predicate: a split with no part, so every build row
//! is a candidate of every probe tuple and nothing is evaluated per
//! pair.

use std::cmp::Ordering;
use std::ops::Range;

use nal::eval::{EvalCtx, EvalResult, Scope};
use nal::{CmpOp, Scalar, Sym, Tuple, Value};
use xmldb::{Catalog, ValueKey};

use crate::access::RangeProbe;
use crate::nested::{Blocks, Spooled};
use crate::plan::Schema;

/// A θ-join's predicate, split at compile time by the side each
/// conjunct mentions. `None` parts are empty conjunctions (true); the
/// split with no part at all ([`ThetaSplit::default`]) is ×'s.
#[derive(Clone, Debug, Default)]
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
    /// Has the split no part — is it ×'s empty predicate? A split of a
    /// predicate never is: each of its conjuncts lands in some part.
    pub(crate) fn is_empty(&self) -> bool {
        self.right_only.is_none() && self.left_only.is_none() && self.pair.is_none()
    }

    /// Split `pred` over a join whose sides carry `left` / `right`. The
    /// whole predicate stays the pair part unless both sides' `may` is
    /// known (a side could otherwise hide a reference to it), every
    /// conjunct is replay-safe, and each attribute a conjunct reads of a
    /// side is one every tuple of that side carries (a row without it
    /// fails the conjunct, which the split may not evaluate). `blocks`
    /// are `pred`'s compiled nested blocks.
    pub fn of(pred: &Scalar, left: &Schema, right: &Schema, blocks: Blocks) -> ThetaSplit {
        let conjuncts = pred.conjuncts();
        let (Some(a_l), Some(a_r)) = (&left.may, &right.may) else {
            return ThetaSplit::whole(pred, blocks);
        };
        let (mut right_only, mut left_only, mut pair) = (Vec::new(), Vec::new(), Vec::new());
        let mut range: Option<(Sym, Vec<RangeProbe>)> = None;
        for c in conjuncts {
            let (mut on_left, mut on_right, mut bound) = (false, false, true);
            // Replay-safe conjuncts embed no nested algebra: flat.
            let flat = c.flat_attrs(&mut |a| {
                let (l, r) = (a_l.contains(&a), a_r.contains(&a));
                (on_left, on_right) = (on_left || l, on_right || r);
                bound &= (!l || left.sure.contains(&a)) && (!r || right.sure.contains(&a));
            });
            if !(flat && bound && c.replay_safe()) {
                return ThetaSplit::whole(pred, blocks);
            }
            if !on_left {
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

    /// The declined split: the whole predicate is the pair part.
    fn whole(pred: &Scalar, blocks: Blocks) -> ThetaSplit {
        ThetaSplit {
            pair: Some(pred.clone()),
            blocks,
            ..ThetaSplit::default()
        }
    }
}

/// Recognize `side θ key` (or `key θ side`, flipped) with θ ∈
/// {=, <, ≤, >, ≥}, where `key` is a bare build-side attribute and
/// `side` is a replay-safe scalar free of build-side attributes. `≠`
/// is no range: its key set is two disjoint ranges, not one. The one
/// definition of "range conjunct" — the index tracer
/// ([`crate::access::join_recipe`]) and [`ThetaSplit::of`] both use it.
pub(crate) fn as_range_conjunct(c: &Scalar, r_attrs: &[Sym]) -> Option<(Sym, RangeProbe)> {
    match c {
        Scalar::Cmp(op, x, y) if *op != CmpOp::Ne => range_sides(*op, x, y, r_attrs),
        _ => None,
    }
}

/// `x op y` as `side op' key`: [`as_range_conjunct`] of a comparison
/// given by its parts.
pub(crate) fn range_sides(
    op: CmpOp,
    x: &Scalar,
    y: &Scalar,
    r_attrs: &[Sym],
) -> Option<(Sym, RangeProbe)> {
    let as_key = |s: &Scalar| match s {
        Scalar::Attr(a) if r_attrs.contains(a) => Some(*a),
        _ => None,
    };
    let side_ok = |s: &Scalar| {
        let mut free = true;
        s.replay_safe() && s.flat_attrs(&mut |a| free &= !r_attrs.contains(&a)) && free
    };
    let probe = |side: &Scalar, op| RangeProbe {
        side: side.clone(),
        op,
    };
    match (as_key(x), as_key(y)) {
        (_, Some(k)) if side_ok(x) => Some((k, probe(x, op))),
        (Some(k), _) if side_ok(y) => Some((k, probe(y, op.flip()))),
        _ => None,
    }
}

/// A key column's entries in the two orders a probe value can select a
/// window from — a θ-join's range column, or the column a nested
/// block's indexed spool ([`crate::nested`]) is probed on. Each entry
/// carries its row's position in arrival order; a sequence key has an
/// entry per item, as [`nal::cmp_general`] compares it item by item.
/// NULL and NaN items satisfy no comparison and are in neither view.
#[derive(Default)]
pub(crate) struct OrderedKeys {
    /// Items that are, or parse as, a number — by IEEE order (the bits
    /// of [`ValueKey::num`]). What a typed-numeric probe compares
    /// against.
    numeric: Vec<(u64, usize)>,
    /// String and node items by their text, which stays where it is
    /// stored: entries order by the text's first [`PREFIX`] bytes
    /// ([`text_prefix`]), and only equal prefixes compare the rest in
    /// place ([`nal::cmp_text_items`]). What a text probe compares
    /// against — unless `typed_numbers`.
    text: Vec<(Prefix, Value, usize)>,
    /// Some item is a typed number: a text probe compares numerically
    /// against it, which the text view cannot answer.
    typed_numbers: bool,
    /// Some key is missing or holds an item that is neither a string,
    /// a node nor a number (a boolean): no window is a superset.
    irregular: bool,
    /// Some row has more than one entry: a window can name it twice.
    repeats: bool,
}

impl OrderedKeys {
    /// Order the `key` column of `rows`.
    pub(crate) fn build(rows: &[Tuple], key: Sym, catalog: &Catalog) -> OrderedKeys {
        let mut keys = OrderedKeys::default();
        let mut scratch = String::new();
        for (pos, rt) in rows.iter().enumerate() {
            let Some(v) = rt.get(key) else {
                keys.irregular = true;
                return keys;
            };
            let entries = keys.numeric.len() + keys.text.len();
            let regular = leaves(v, &mut |item| match item {
                Value::Int(_) | Value::Dec(_) => {
                    keys.typed_numbers = true;
                    keys.push_number(item.as_number(), pos);
                    true
                }
                Value::Str(_) | Value::Node(_) => {
                    let text = match item {
                        Value::Node(n) => {
                            catalog.doc(n.doc).string_value_in(n.node, &mut scratch).0
                        }
                        Value::Str(s) => s,
                        _ => unreachable!("matched above"),
                    };
                    keys.push_number(text.trim().parse().ok(), pos);
                    let prefix = text_prefix([text]);
                    keys.text.push((prefix, item.clone(), pos));
                    true
                }
                _ => false,
            });
            if !regular {
                keys.irregular = true;
                return keys;
            }
            keys.repeats |= keys.numeric.len() + keys.text.len() > entries + 1;
        }
        keys.numeric.sort_unstable();
        keys.text.sort_unstable_by(|a, b| {
            let text = || nal::cmp_text_items(&a.1, &b.1, catalog).expect("text entries");
            a.0.cmp(&b.0).then_with(text).then(a.2.cmp(&b.2))
        });
        keys
    }

    /// `cmp_atomic`'s coercion of a number or of untyped text, verbatim:
    /// NaN and text that is no number have no numeric entry.
    fn push_number(&mut self, n: Option<f64>, pos: usize) {
        if let Some(ValueKey::Num(bits)) = n.map(ValueKey::num) {
            self.numeric.push((bits, pos));
        }
    }

    /// The entries whose key `k` can satisfy `side op k`, as a window of
    /// one view (empty when no row can: a NULL, NaN or empty `side`), or
    /// `None` when the views cannot answer: an irregular column, a
    /// sequence or boolean `side`, a text `side` against typed numbers.
    pub(crate) fn window(
        &self,
        op: CmpOp,
        side: &Value,
        catalog: &Catalog,
    ) -> Option<(View, Range<usize>)> {
        const NONE: Option<(View, Range<usize>)> = Some((View::Numeric, 0..0));
        match side {
            Value::Null => NONE,
            Value::Items(items) if items.is_empty() => NONE,
            _ if self.irregular => None,
            Value::Int(_) | Value::Dec(_) => match side.as_number().map(ValueKey::num) {
                Some(ValueKey::Num(bits)) => {
                    Some((View::Numeric, window(&self.numeric, op, |e| e.0.cmp(&bits))))
                }
                _ => NONE,
            },
            Value::Str(s) if !self.typed_numbers => {
                Some(self.text_window(op, side, [&**s], catalog))
            }
            Value::Node(n) if !self.typed_numbers => {
                let pieces = catalog.doc(n.doc).text_pieces(n.node);
                Some(self.text_window(op, side, pieces, catalog))
            }
            _ => None,
        }
    }

    /// [`Self::window`] of the text view for a text `side`, given by
    /// its pieces.
    fn text_window<'t>(
        &self,
        op: CmpOp,
        side: &Value,
        pieces: impl IntoIterator<Item = &'t str>,
        catalog: &Catalog,
    ) -> (View, Range<usize>) {
        let prefix = text_prefix(pieces);
        let cmp = |e: &(Prefix, Value, usize)| {
            let text = || nal::cmp_text_items(&e.1, side, catalog).expect("text entries");
            e.0.cmp(&prefix).then_with(text)
        };
        (View::Text, window(&self.text, op, cmp))
    }

    /// The arrival position of the row of a window's `at`-th entry.
    pub(crate) fn row(&self, view: View, at: usize) -> usize {
        match view {
            View::Numeric => self.numeric[at].1,
            View::Text => self.text[at].2,
        }
    }

    /// A window's rows in arrival order, each once.
    pub(crate) fn listed(&self, view: View, window: Range<usize>) -> Vec<usize> {
        let mut listed: Vec<usize> = window.map(|at| self.row(view, at)).collect();
        listed.sort_unstable();
        listed.dedup();
        listed
    }

    /// Can a window name a row more than once?
    pub(crate) fn repeats(&self) -> bool {
        self.repeats
    }
}

/// How many leading bytes of a text its entry keeps. Sixteen left
/// §5.3's titles (three words and a volume number) sharing a prefix in
/// groups of ≈ 8 at 10,000 reviews, and every comparison inside a group
/// walks two nodes' text.
const PREFIX: usize = 32;

/// A text's first [`PREFIX`] bytes, as two big-endian numbers: they
/// compare as the bytes do, in two instructions.
type Prefix = (u128, u128);

/// A text's first [`PREFIX`] bytes, given by its pieces, zero-padded:
/// two texts whose prefixes differ order as the prefixes do (`str::cmp`
/// is byte order), so comparing them settles most comparisons without
/// reading the texts again.
fn text_prefix<'t>(pieces: impl IntoIterator<Item = &'t str>) -> Prefix {
    let mut prefix = [0; PREFIX];
    let mut at = 0;
    for piece in pieces {
        let n = piece.len().min(PREFIX - at);
        prefix[at..at + n].copy_from_slice(&piece.as_bytes()[..n]);
        at += n;
        if at == PREFIX {
            break;
        }
    }
    let half = |at: usize| u128::from_be_bytes(prefix[at..at + 16].try_into().expect("16 bytes"));
    (half(0), half(16))
}

/// Hand `f` the atomic items of `v`, in order, as [`nal::cmp_general`]
/// visits them (a nested relation's tuples contribute their values);
/// `false` as soon as `f` does.
fn leaves(v: &Value, f: &mut impl FnMut(&Value) -> bool) -> bool {
    match v {
        Value::Null => true,
        Value::Items(items) => items.iter().all(|item| leaves(item, f)),
        Value::Tuples(ts) => ts.iter().all(|t| t.values().all(|item| leaves(item, f))),
        item => f(item),
    }
}

/// Which ordered view a window indexes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum View {
    Numeric,
    Text,
}

/// The slice of a key-ordered view whose keys `k` satisfy `bound op k`;
/// `cmp` orders an entry's key against the bound.
fn window<T>(view: &[T], op: CmpOp, cmp: impl Fn(&T) -> Ordering) -> Range<usize> {
    let first_ge = || view.partition_point(|e| cmp(e) == Ordering::Less);
    let first_gt = || view.partition_point(|e| cmp(e) != Ordering::Greater);
    match op {
        CmpOp::Eq => {
            // An `=` window is short: gallop to its end from its start.
            let start = first_ge();
            let tail = &view[start..];
            let (mut equal, mut probe) = (0, 1);
            while probe <= tail.len() && cmp(&tail[probe - 1]) == Ordering::Equal {
                (equal, probe) = (probe, probe * 2);
            }
            let rest = &tail[equal..probe.min(tail.len())];
            start..start + equal + rest.partition_point(|e| cmp(e) == Ordering::Equal)
        }
        CmpOp::Lt => first_gt()..view.len(),
        CmpOp::Le => first_ge()..view.len(),
        CmpOp::Gt => 0..first_ge(),
        CmpOp::Ge => 0..first_gt(),
        CmpOp::Ne => unreachable!("≠ selects no one window"),
    }
}

/// The build rows one probe tuple has to examine, in examination order.
#[derive(Debug)]
pub(crate) enum Candidates {
    /// Every kept row, in arrival order.
    All,
    /// A key window of an ordered view, in key order.
    Window(View, Range<usize>),
    /// A key window's rows put back into arrival order.
    Listed(Vec<usize>),
}

/// A θ-join's build side, ready for probing: the rows that passed
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
    pub(crate) fn candidates(
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
            let Some((view, range)) = keys.window(probe.op, &side, ctx.catalog) else {
                continue;
            };
            if range.is_empty() {
                // No row satisfies the conjunct, so none the pair part.
                return Ok(NONE);
            }
            found = match found {
                None => Some((view, range)),
                // A row of a sequence key may satisfy each conjunct with
                // another item: only one window is a superset then.
                Some((v, r)) if v == view && !keys.repeats() => {
                    Some((v, r.start.max(range.start)..r.end.min(range.end)))
                }
                // A window of the other view: the first one drives.
                other => other,
            };
        }
        Ok(match found {
            None => Candidates::All,
            Some((_, r)) if r.is_empty() => NONE,
            Some((view, r)) if arrival_order || keys.repeats() => {
                Candidates::Listed(keys.listed(view, r))
            }
            Some((view, r)) => Candidates::Window(view, r),
        })
    }

    /// The `i`-th candidate's row.
    pub(crate) fn candidate(&self, candidates: &Candidates, i: usize) -> Option<&Tuple> {
        let pos = match candidates {
            Candidates::All => i,
            Candidates::Window(view, r) => {
                let at = r.start + i;
                if at >= r.end {
                    return None;
                }
                let keys = self.keys.as_ref().expect("windows come from ordered keys");
                keys.row(*view, at)
            }
            Candidates::Listed(listed) => *listed.get(i)?,
        };
        self.rows.get(pos)
    }
}
