//! Tuples: unordered sets of variable bindings (§2).
//!
//! "SAL and NAL work on sequences of sets of variable bindings, i.e.,
//! sequences of unordered tuples where every attribute corresponds to a
//! variable." A tuple maps attribute symbols to values; we store the
//! fields sorted by symbol so equality, hashing, and display are
//! canonical.
//!
//! A tuple is **one heap block**, an `Arc<[(Sym, Value)]>`: clones
//! (which joins and maps do constantly) are a pointer copy, and every
//! operation that builds a tuple works out its exact arity first and
//! fills the block from an exact-length iterator — one allocation per
//! tuple, each field written once, no insert-and-shift. `◦` and `χ`'s
//! extension are sorted merges of already-sorted field lists.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::sym::Sym;
use crate::value::Value;

type Field = (Sym, Value);

/// An unordered tuple of attribute bindings.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    fields: Arc<[Field]>,
}

/// Fill a field block from exactly `n` calls of `next`. `Range::map`
/// reports a trusted exact length, which lets `Arc<[T]>` allocate the
/// block once and write the fields straight into it.
fn collect_exact(n: usize, mut next: impl FnMut() -> Field) -> Arc<[Field]> {
    (0..n).map(|_| next()).collect()
}

/// The next field of the sorted merge of `l` and `r` and whether it is
/// `r`'s, advancing the two positions; an attribute both sides bind
/// yields the right one.
fn next_merged<'a>(
    l: &'a [Field],
    r: &'a [Field],
    i: &mut usize,
    j: &mut usize,
) -> (&'a Field, bool) {
    let order = match (l.get(*i), r.get(*j)) {
        (Some(x), Some(y)) => x.0.cmp(&y.0),
        (Some(_), None) => Ordering::Less,
        (None, _) => Ordering::Greater,
    };
    if order != Ordering::Greater {
        *i += 1;
    }
    if order != Ordering::Less {
        *j += 1;
        (&r[*j - 1], true)
    } else {
        (&l[*i - 1], false)
    }
}

/// `(map(l) ◦ r)|_keep` — the sorted merge behind the operations that
/// build a *restricted* tuple from two field lists; `map` (when given)
/// replaces the surviving values of `l`. Counted first, so the block is
/// allocated once at its final arity — or not at all, when what
/// survives is `l` itself (a binding nothing reads) or nothing. (Plain
/// `◦` and `extend`, the reference evaluator's two primitives, keep
/// their own leaner loops: measured 105 ns against 150 ns through
/// here for a 2 ◦ 3-field concatenation.)
fn merge(
    l: &Tuple,
    r: &[Field],
    keep: Option<&[Sym]>,
    mut map: Option<&mut dyn FnMut(&Value) -> Value>,
) -> Tuple {
    let kept = |f: &Field| match keep {
        None => true,
        Some(keep) => keep.contains(&f.0),
    };
    let (mut i, mut j, mut n, mut from_r) = (0, 0, 0, 0);
    while i < l.fields.len() || j < r.len() {
        let (field, right) = next_merged(&l.fields, r, &mut i, &mut j);
        if kept(field) {
            n += 1;
            from_r += usize::from(right);
        }
    }
    if n == 0 {
        return Tuple::empty();
    }
    if from_r == 0 && n == l.fields.len() && map.is_none() {
        return l.clone();
    }
    let (mut i, mut j) = (0, 0);
    let fields = collect_exact(n, || loop {
        let (field, right) = next_merged(&l.fields, r, &mut i, &mut j);
        if kept(field) {
            return match &mut map {
                Some(map) if !right => (field.0, map(&field.1)),
                _ => field.clone(),
            };
        }
    });
    Tuple { fields }
}

impl Tuple {
    /// The empty tuple (the single element of the `□` singleton sequence).
    pub fn empty() -> Tuple {
        static EMPTY: std::sync::OnceLock<Tuple> = std::sync::OnceLock::new();
        EMPTY
            .get_or_init(|| Tuple {
                fields: Arc::from([]),
            })
            .clone()
    }

    /// `[a: v]`
    pub fn singleton(a: Sym, v: Value) -> Tuple {
        Tuple {
            fields: Arc::from([(a, v)]),
        }
    }

    /// Build from pairs; later bindings of the same attribute win.
    pub fn from_pairs(mut pairs: Vec<Field>) -> Tuple {
        if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable, so equal attributes stay in binding order and the
            // dedup below can keep the last one.
            pairs.sort_by_key(|pair| pair.0);
            pairs.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
        }
        Tuple {
            fields: pairs.into(),
        }
    }

    /// `⊥_A`: all attributes of `attrs` bound to NULL (§2).
    pub fn bottom(attrs: &[Sym]) -> Tuple {
        Tuple::from_pairs(attrs.iter().map(|&a| (a, Value::Null)).collect())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// `true` for the empty tuple.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Look up attribute `a`: a scan comparing interned pointers. Tuples
    /// are narrow (2–3 attributes on average over Q1–Q10, ~10 at most),
    /// where this beats a binary search's string compares severalfold.
    pub fn get(&self, a: Sym) -> Option<&Value> {
        self.fields.iter().find(|(s, _)| *s == a).map(|(_, v)| v)
    }

    /// The attribute set, sorted.
    pub fn attrs(&self) -> Vec<Sym> {
        self.fields.iter().map(|(s, _)| *s).collect()
    }

    /// Iterate over `(attr, value)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &Value)> {
        self.fields.iter().map(|(s, v)| (*s, v))
    }

    /// Iterate over values in attribute order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.fields.iter().map(|(_, v)| v)
    }

    /// Concatenation `◦`. The paper requires disjoint attribute sets; for
    /// evaluation environments we let the *right* operand shadow the left,
    /// which coincides with `◦` on disjoint tuples and gives lexical
    /// scoping for nested query evaluation.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let (l, r) = (&*self.fields, &*other.fields);
        let (mut i, mut j, mut shared) = (0, 0, 0);
        while i < l.len() && j < r.len() {
            match l[i].0.cmp(&r[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let (mut i, mut j) = (0, 0);
        let fields = collect_exact(l.len() + r.len() - shared, || {
            next_merged(l, r, &mut i, &mut j).0.clone()
        });
        Tuple { fields }
    }

    /// `(self ◦ other)|_keep` in one block: what a join emits when only
    /// `keep` is read above it (`None`: everything).
    pub fn concat_keep(&self, other: &Tuple, keep: Option<&[Sym]>) -> Tuple {
        match keep {
            None => self.concat(other),
            Some(_) => merge(self, &other.fields, keep, None),
        }
    }

    /// Extend with one binding (the map operator's `t ◦ [a: v]`).
    pub fn extend(&self, a: Sym, v: Value) -> Tuple {
        let (before, after) = match self.fields.binary_search_by(|(s, _)| s.cmp(&a)) {
            Ok(i) => (i, i + 1),
            Err(i) => (i, i),
        };
        Tuple {
            fields: self.fields[..before]
                .iter()
                .cloned()
                .chain(std::iter::once((a, v)))
                .chain(self.fields[after..].iter().cloned())
                .collect(),
        }
    }

    /// `(self ◦ bound)|_keep` in one block, for `bound` sorted by
    /// attribute without repeats: what χ and Υ emit when only `keep` is
    /// read above them (`None`: everything). A run of χ bindings lands
    /// in the output with one merge instead of one block per binding.
    pub fn merged(&self, bound: &[(Sym, Value)], keep: Option<&[Sym]>) -> Tuple {
        debug_assert!(bound.windows(2).all(|w| w[0].0 < w[1].0));
        match (bound, keep) {
            ([(a, v)], None) => self.extend(*a, v.clone()),
            _ => merge(self, bound, keep, None),
        }
    }

    /// [`Self::merged`] with every surviving value of `self` replaced by
    /// `map(value)` — a Γ result in one block: the key attributes of a
    /// group member, atomized, and the aggregate.
    pub fn merged_with(
        &self,
        bound: &[(Sym, Value)],
        keep: Option<&[Sym]>,
        mut map: impl FnMut(&Value) -> Value,
    ) -> Tuple {
        merge(self, bound, keep, Some(&mut map))
    }

    /// The fields satisfying `keep`, in order — still sorted, so no
    /// re-sort; counted first so the block is allocated once.
    fn filtered(&self, keep: impl Fn(Sym) -> bool) -> Tuple {
        let n = self.fields.iter().filter(|(s, _)| keep(*s)).count();
        if n == self.fields.len() {
            return self.clone();
        }
        let mut kept = self.fields.iter().filter(|(s, _)| keep(*s));
        Tuple {
            fields: collect_exact(n, || kept.next().expect("counted above").clone()),
        }
    }

    /// Projection `|_A`: keep only the attributes in `attrs`.
    /// Missing attributes are skipped (the paper's tuples always have
    /// them; being lenient keeps ⊥-padded tuples workable).
    pub fn project(&self, attrs: &[Sym]) -> Tuple {
        self.filtered(|s| attrs.contains(&s))
    }

    /// Drop the attributes in `attrs` (the paper's `Π_{Ā}`).
    pub fn without(&self, attrs: &[Sym]) -> Tuple {
        self.filtered(|s| !attrs.contains(&s))
    }

    /// `Π_A` with every kept value replaced by `f(value)`, in one block
    /// (a Γ key tuple: project onto the key, atomize).
    pub fn project_map(&self, attrs: &[Sym], f: impl FnMut(&Value) -> Value) -> Tuple {
        self.merged_with(&[], Some(attrs), f)
    }

    /// The same attributes with every value replaced by `f(value)`.
    pub fn map_values(&self, mut f: impl FnMut(&Value) -> Value) -> Tuple {
        Tuple {
            fields: self.fields.iter().map(|(s, v)| (*s, f(v))).collect(),
        }
    }

    /// Rename per `(new, old)` pairs; attributes not mentioned are kept
    /// (`Π_{A':A}`, §2: "Attributes other than those in A remain
    /// untouched").
    pub fn rename(&self, pairs: &[(Sym, Sym)]) -> Tuple {
        let renamed = |s: Sym| {
            pairs
                .iter()
                .find(|(_, old)| *old == s)
                .map_or(s, |(new, _)| *new)
        };
        let still_sorted = self
            .fields
            .windows(2)
            .all(|w| renamed(w[0].0) < renamed(w[1].0));
        let fields = self.fields.iter().map(|(s, v)| (renamed(*s), v.clone()));
        if still_sorted {
            Tuple {
                fields: fields.collect(),
            }
        } else {
            Tuple::from_pairs(fields.collect())
        }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (s, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}: {v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: &str) -> Sym {
        Sym::new(n)
    }

    fn t(pairs: &[(&str, i64)]) -> Tuple {
        Tuple::from_pairs(pairs.iter().map(|&(n, v)| (s(n), Value::Int(v))).collect())
    }

    #[test]
    fn construction_and_lookup() {
        let tup = t(&[("b", 2), ("a", 1)]);
        assert_eq!(tup.get(s("a")), Some(&Value::Int(1)));
        assert_eq!(tup.get(s("b")), Some(&Value::Int(2)));
        assert_eq!(tup.get(s("c")), None);
        assert_eq!(tup.attrs(), vec![s("a"), s("b")]);
        assert_eq!(tup.arity(), 2);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        assert_eq!(t(&[("a", 1), ("b", 2)]), t(&[("b", 2), ("a", 1)]));
    }

    #[test]
    fn concat_disjoint_and_shadowing() {
        let l = t(&[("a", 1)]);
        let r = t(&[("b", 2)]);
        assert_eq!(l.concat(&r), t(&[("a", 1), ("b", 2)]));
        // shadowing: right wins
        let r2 = t(&[("a", 9)]);
        assert_eq!(l.concat(&r2), t(&[("a", 9)]));
        // identity cases
        assert_eq!(Tuple::empty().concat(&l), l);
        assert_eq!(l.concat(&Tuple::empty()), l);
    }

    #[test]
    fn project_without_rename() {
        let tup = t(&[("a", 1), ("b", 2), ("c", 3)]);
        assert_eq!(tup.project(&[s("c"), s("a")]), t(&[("a", 1), ("c", 3)]));
        assert_eq!(tup.without(&[s("b")]), t(&[("a", 1), ("c", 3)]));
        let renamed = tup.rename(&[(s("x"), s("a"))]);
        assert_eq!(renamed, t(&[("x", 1), ("b", 2), ("c", 3)]));
    }

    #[test]
    fn bottom_is_all_nulls() {
        let b = Tuple::bottom(&[s("a"), s("b")]);
        assert_eq!(b.get(s("a")), Some(&Value::Null));
        assert_eq!(b.get(s("b")), Some(&Value::Null));
        assert_eq!(b.arity(), 2);
    }

    #[test]
    fn extend_overwrites() {
        let tup = t(&[("a", 1)]);
        let e = tup.extend(s("b"), Value::Int(5));
        assert_eq!(e, t(&[("a", 1), ("b", 5)]));
        let e2 = e.extend(s("a"), Value::Int(7));
        assert_eq!(e2.get(s("a")), Some(&Value::Int(7)));
    }

    #[test]
    fn display_is_sorted() {
        assert_eq!(t(&[("b", 2), ("a", 1)]).to_string(), "[a: 1, b: 2]");
    }
}
