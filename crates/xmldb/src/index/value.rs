//! The value index: typed atomized value → node ids, ordered on both
//! axes.
//!
//! Keys are [`ValueKey`]s — a totally ordered, typed mirror of the
//! engine's hash-join key domain, so that an index probe finds exactly
//! the nodes a hash bucket lookup would. Keys live in a `BTreeMap`, so
//! iterating the index walks keys in ascending [`ValueKey`] order (the
//! foundation of [`ValueIndex::range`]); each posting list holds node
//! ids in document order (insertion order during the build pass).
//!
//! XML nodes always atomize to their *string value*, so every key stored
//! by [`ValueIndex::build`] is a [`ValueKey::Str`]. The other variants
//! exist so that probes carrying non-string values are well-defined —
//! and, by deliberate design, *miss*: that is exactly the behaviour of
//! the hash operators (`engine::key::key_val`), which never equate a
//! numeric probe with a string build key. Byte-identical plans first.
//!
//! Besides the string-keyed map, the index keeps a **numeric view**: for
//! every node whose string value parses as a finite-or-infinite `f64`
//! (the engine's coercion rule for `@year > 1993`-style comparisons), a
//! second `BTreeMap` keyed by order-preserving bits of the parsed value.
//! [`ValueIndex::range`] probes either view depending on the bound type,
//! which is what turns inequality quantifier joins into index seeks.
//!
//! Key edge semantics (shared with `cmp_atomic` and the hash keys):
//! `NaN` behaves like NULL — it is unmatchable on build *and* probe
//! ([`ValueKey::num`] canonicalizes it to [`ValueKey::Null`], and nodes
//! whose value parses to NaN are left out of the numeric view) — and
//! `-0.0` canonicalizes to `0.0`, so both zeros are a single key point.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use crate::document::Document;
use crate::node::NodeId;

/// A typed, totally ordered index key.
///
/// Ordering: `Null < Bool < Num < Str < Other`, with numbers compared by
/// IEEE-754 total order (via an order-preserving bit mapping, with both
/// zeros canonicalized to `+0.0` and NaN canonicalized to `Null` — see
/// [`ValueKey::num`]) and strings lexicographically.
///
/// A string key borrows its text when it can: a *probe* key points into
/// the probing value or the document ([`crate::Document::string_value`])
/// and is compared against the stored (owned, `'static`) keys without
/// copying a byte.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ValueKey<'a> {
    /// NULL — present for completeness; never stored (NULL keys match
    /// nothing) and probes with it always miss.
    Null,
    /// A boolean key (`false < true`).
    Bool(bool),
    /// A numeric key, stored as order-preserving bits of the
    /// (zero-canonicalized, non-NaN) `f64` value so that derived `Ord`
    /// equals IEEE order.
    Num(u64),
    /// A string key, ordered lexicographically.
    Str(Cow<'a, str>),
    /// Non-atomic leftovers by canonical rendering (sequences etc.).
    Other(String),
}

impl<'a> ValueKey<'a> {
    /// Numeric key from an `f64` (order preserving). `NaN` canonicalizes
    /// to [`ValueKey::Null`] — NaN never satisfies a comparison, so a NaN
    /// key must be unmatchable on build and probe alike — and `-0.0`
    /// canonicalizes to `0.0`, making the two zeros one key point.
    pub fn num(v: f64) -> ValueKey<'a> {
        if v.is_nan() {
            return ValueKey::Null;
        }
        let v = if v == 0.0 { 0.0 } else { v };
        ValueKey::Num(f64_order_bits(v))
    }

    /// Recover the `f64` of a numeric key.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ValueKey::Num(bits) => Some(f64_from_order_bits(*bits)),
            _ => None,
        }
    }

    /// NULL keys never match anything, including each other.
    pub fn matchable(&self) -> bool {
        !matches!(self, ValueKey::Null)
    }

    /// The key with its text owned — the form the indexes store.
    pub fn into_owned(self) -> ValueKey<'static> {
        match self {
            ValueKey::Null => ValueKey::Null,
            ValueKey::Bool(b) => ValueKey::Bool(b),
            ValueKey::Num(n) => ValueKey::Num(n),
            ValueKey::Str(s) => ValueKey::Str(Cow::Owned(s.into_owned())),
            ValueKey::Other(s) => ValueKey::Other(s),
        }
    }
}

/// Map an `f64` to bits whose unsigned order equals `total_cmp` order:
/// flip all bits of negatives, flip only the sign bit of non-negatives.
#[inline]
pub fn f64_order_bits(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1u64 << 63)
    }
}

/// Inverse of [`f64_order_bits`].
#[inline]
pub fn f64_from_order_bits(b: u64) -> f64 {
    if b >> 63 == 1 {
        f64::from_bits(b ^ (1u64 << 63))
    } else {
        f64::from_bits(!b)
    }
}

impl fmt::Display for ValueKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueKey::Null => write!(f, "NULL"),
            ValueKey::Bool(b) => write!(f, "{b}"),
            ValueKey::Num(_) => write!(f, "{}", self.as_f64().expect("Num variant")),
            ValueKey::Str(s) => write!(f, "\"{s}\""),
            ValueKey::Other(s) => write!(f, "⟨{s}⟩"),
        }
    }
}

/// An ordered value index over the node set of one path pattern
/// (typically the result of a [`super::PathIndex`] lookup), maintained
/// incrementally under document updates by the catalog's delta
/// machinery ([`ValueIndex::insert_node`] / [`ValueIndex::remove_node`]).
#[derive(Clone)]
pub struct ValueIndex {
    entries: BTreeMap<ValueKey<'static>, Vec<NodeId>>,
    /// Numeric view: order bits of the parsed string value → nodes, for
    /// every node whose value coerces to a (non-NaN) number. `-0.0` is
    /// canonicalized to `0.0` on entry.
    numeric: BTreeMap<u64, Vec<NodeId>>,
    total_nodes: usize,
}

impl ValueIndex {
    /// Index `nodes` (which must be in document order — posting lists
    /// inherit it) by their atomized string value, and additionally by
    /// their parsed numeric value where one exists (the numeric view
    /// range probes use).
    pub fn build(doc: &Document, nodes: &[NodeId]) -> ValueIndex {
        let mut entries: BTreeMap<ValueKey<'static>, Vec<NodeId>> = BTreeMap::new();
        let mut numeric: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        for &n in nodes {
            let s = doc.string_value(n);
            // Mirror `Value::as_number`'s coercion exactly; NaN-parsing
            // values stay out (NaN keys are unmatchable by decision).
            if let Ok(v) = s.trim().parse::<f64>() {
                if let ValueKey::Num(bits) = ValueKey::num(v) {
                    numeric.entry(bits).or_default().push(n);
                }
            }
            entries
                .entry(ValueKey::Str(Cow::Owned(s.into_owned())))
                .or_default()
                .push(n);
        }
        ValueIndex {
            entries,
            numeric,
            total_nodes: nodes.len(),
        }
    }

    // -----------------------------------------------------------------
    // Incremental maintenance
    // -----------------------------------------------------------------

    /// Add one node with atomized string value `value` (both the string
    /// map and, when the value parses numerically, the numeric view).
    /// Posting lists stay in document order by binary insert — `NodeId`
    /// order survives updates thanks to the gap-based ordering keys.
    /// Returns the number of postings written.
    pub fn insert_node(&mut self, value: String, node: NodeId) -> usize {
        let mut written = 1;
        if let Ok(v) = value.trim().parse::<f64>() {
            if let ValueKey::Num(bits) = ValueKey::num(v) {
                super::path::ordered_insert(self.numeric.entry(bits).or_default(), node);
                written += 1;
            }
        }
        super::path::ordered_insert(
            self.entries
                .entry(ValueKey::Str(Cow::Owned(value)))
                .or_default(),
            node,
        );
        self.total_nodes += 1;
        written
    }

    /// Remove one node whose (pre-update) atomized string value was
    /// `value`. Returns the number of postings removed.
    pub fn remove_node(&mut self, value: &str, node: NodeId) -> usize {
        let mut removed = 0;
        let key = ValueKey::Str(Cow::Owned(value.to_string()));
        if let Some(list) = self.entries.get_mut(&key) {
            removed += super::path::ordered_remove(list, node);
            if list.is_empty() {
                self.entries.remove(&key);
            }
        }
        if let Ok(v) = value.trim().parse::<f64>() {
            if let ValueKey::Num(bits) = ValueKey::num(v) {
                if let Some(list) = self.numeric.get_mut(&bits) {
                    removed += super::path::ordered_remove(list, node);
                    if list.is_empty() {
                        self.numeric.remove(&bits);
                    }
                }
            }
        }
        self.total_nodes = self.total_nodes.saturating_sub(1);
        removed
    }

    /// Posting list of `key`, in document order. Empty for misses and for
    /// unmatchable (NULL) probes. (The stored keys are viewed at the
    /// probe key's lifetime for the comparison, which is why the result
    /// cannot outlive what the key borrows.)
    pub fn get<'k>(&'k self, key: &ValueKey<'k>) -> &'k [NodeId] {
        if !key.matchable() {
            return &[];
        }
        self.entries.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `true` iff at least one node carries `key`.
    pub fn contains<'k>(&'k self, key: &ValueKey<'k>) -> bool {
        !self.get(key).is_empty()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.total_nodes
    }

    /// `true` when no node is indexed.
    pub fn is_empty(&self) -> bool {
        self.total_nodes == 0
    }

    /// Iterate `(key, posting list)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&ValueKey<'static>, &[NodeId])> {
        self.entries.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Nodes whose value falls in the `(lo, hi)` key range, with the
    /// per-key posting lists merged back into **document order**.
    ///
    /// The comparison regime follows the bound type, mirroring
    /// `cmp_atomic`'s coercion rules exactly:
    ///
    /// * [`ValueKey::Str`] bounds select string keys lexicographically;
    /// * [`ValueKey::Num`] bounds probe the numeric view — nodes whose
    ///   string value parses as a number, compared numerically. NaN is
    ///   excluded on both axes: NaN-valued nodes are not in the view, and
    ///   a NaN endpoint arrives here as [`ValueKey::Null`] (see
    ///   [`ValueKey::num`]), which selects nothing;
    /// * a [`ValueKey::Null`] bound selects nothing (NULL and NaN probes
    ///   are unmatchable);
    /// * mixed `Str`/`Num` or other-typed bounds have no defined order
    ///   against the stored keys and select nothing;
    /// * two unbounded ends return every indexed node (in document
    ///   order).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::ops::Bound;
    /// use xmldb::{parse_document, PathIndex, PathPattern, PatternStep, ValueIndex, ValueKey};
    ///
    /// let doc = parse_document("p.xml", "<r><v>10</v><v>2</v><v>30</v><v>abc</v></r>").unwrap();
    /// let nodes = PathIndex::build(&doc)
    ///     .lookup(&PathPattern::new(vec![PatternStep::Descendant(Some("v".into()))]))
    ///     .unwrap();
    /// let idx = ValueIndex::build(&doc, &nodes);
    ///
    /// // Numeric bounds probe the numeric view: parsed values, IEEE order.
    /// let small = idx.range(Bound::Unbounded, Bound::Included(&ValueKey::num(10.0)));
    /// assert_eq!(small.len(), 2); // 2 and 10; "abc" is not in the view
    ///
    /// // String bounds are lexicographic over every node's string value.
    /// let lex = idx.range(
    ///     Bound::Included(&ValueKey::Str("1".into())),
    ///     Bound::Excluded(&ValueKey::Str("3".into())),
    /// );
    /// assert_eq!(lex.len(), 2); // "10" and "2" sort inside ["1", "3")
    /// ```
    pub fn range<'k>(
        &'k self,
        lo: Bound<&'k ValueKey<'k>>,
        hi: Bound<&'k ValueKey<'k>>,
    ) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.range_iter(lo, hi).collect();
        out.sort_unstable();
        out
    }

    /// Lazy form of [`Self::range`]: the same node set, streamed in
    /// **key order** (document order within each key) without
    /// materializing or merging. Existence probes (`some`/`every` with
    /// no replayed pipeline or residual) short-circuit on the first
    /// yielded node.
    pub fn range_iter<'a>(
        &'a self,
        lo: Bound<&'a ValueKey<'a>>,
        hi: Bound<&'a ValueKey<'a>>,
    ) -> Box<dyn Iterator<Item = NodeId> + 'a> {
        fn typed<'k>(b: Bound<&'k ValueKey<'k>>) -> Option<&'k ValueKey<'k>> {
            match b {
                Bound::Included(k) | Bound::Excluded(k) => Some(k),
                Bound::Unbounded => None,
            }
        }
        match (typed(lo), typed(hi)) {
            (None, None) => Box::new(self.entries.values().flatten().copied()),
            (Some(ValueKey::Null), _) | (_, Some(ValueKey::Null)) => Box::new(std::iter::empty()),
            (Some(ValueKey::Num(_)), Some(ValueKey::Num(_)))
            | (Some(ValueKey::Num(_)), None)
            | (None, Some(ValueKey::Num(_))) => {
                let bits = |b: Bound<&ValueKey>| match b {
                    Bound::Included(ValueKey::Num(n)) => Bound::Included(*n),
                    Bound::Excluded(ValueKey::Num(n)) => Bound::Excluded(*n),
                    _ => Bound::Unbounded,
                };
                let (lo, hi) = (bits(lo), bits(hi));
                if !bounds_ordered(&lo, &hi) {
                    return Box::new(std::iter::empty());
                }
                Box::new(
                    self.numeric
                        .range((lo, hi))
                        .flat_map(|(_, v)| v.iter().copied()),
                )
            }
            (Some(ValueKey::Str(_)), Some(ValueKey::Str(_)))
            | (Some(ValueKey::Str(_)), None)
            | (None, Some(ValueKey::Str(_))) => {
                if !bounds_ordered(&lo, &hi) {
                    return Box::new(std::iter::empty());
                }
                Box::new(
                    self.entries
                        .range((lo, hi))
                        .flat_map(|(_, v)| v.iter().copied()),
                )
            }
            _ => Box::new(std::iter::empty()),
        }
    }
}

// ---------------------------------------------------------------------
// Composite keys
// ---------------------------------------------------------------------

/// How one component of a composite key is derived from a primary node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyComponent {
    /// The primary node's own string value.
    Primary,
    /// The `i`-th member column's string value (index into
    /// [`CompositeSpec::members`]).
    Member(usize),
}

/// One member column of a composite key: nodes selected by `rel` from
/// the anchor `levels` parent hops above the primary node (`None` = the
/// document node, for doc-rooted members).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemberSpec {
    /// Parent hops from the primary node to the anchor (`None`: the
    /// document node).
    pub levels: Option<usize>,
    /// Relative pattern evaluated from the anchor.
    pub rel: super::path::PathPattern,
}

/// Declarative build spec of a [`CompositeValueIndex`]: the primary key
/// column's absolute pattern, its member columns in **build (chain)
/// order** — the order their `Υ` bindings nest in the replaced build
/// side, outermost member first — and the key component order the probe
/// uses (the join's key list order, which need not equal chain order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompositeSpec {
    /// Absolute pattern of the primary key column.
    pub primary: super::path::PathPattern,
    /// Member columns, in chain order.
    pub members: Vec<MemberSpec>,
    /// Key component order (the join's key-list order).
    pub key: Vec<KeyComponent>,
}

impl CompositeSpec {
    /// Canonical cache key.
    pub fn cache_key(&self) -> String {
        use std::fmt::Write;
        let mut out = self.primary.key();
        for m in &self.members {
            match m.levels {
                Some(l) => write!(out, "|^{l}{}", m.rel.key()).expect("write to string"),
                None => write!(out, "|doc{}", m.rel.key()).expect("write to string"),
            }
        }
        out.push('|');
        for k in &self.key {
            match k {
                KeyComponent::Primary => out.push('p'),
                KeyComponent::Member(i) => write!(out, "m{i}").expect("write to string"),
            }
        }
        out
    }
}

/// One posting entry of a composite key: the primary node plus the
/// member nodes (chain order) that produced the key — everything a probe
/// needs to reconstruct the original build row.
///
/// The derived ordering — `(primary, members)` lexicographically, i.e.
/// document order of the primary then of each member in chain order —
/// *is* build-row order, which is what lets incremental maintenance
/// binary-insert new entries into a posting list instead of rebuilding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CompositeEntry {
    /// The primary key column's node.
    pub primary: NodeId,
    /// Member column nodes, in chain order.
    pub members: Vec<NodeId>,
}

/// An ordered **composite** value index: lexicographic `Vec<ValueKey>`
/// keys (derived `Ord` on vectors is lexicographic by component, so the
/// single-component order above extends componentwise) mapping to
/// posting entries in build-row order. This is what converts *multi-key*
/// semi/anti quantifier joins to index joins: one typed probe with the
/// full composite key replaces the hash join's build-side scan.
///
/// Every stored component is a [`ValueKey::Str`] (XML nodes atomize to
/// their string value), so probes carrying non-string components miss by
/// design — exactly the hash operators' typed-key behaviour, and NaN /
/// `-0.0` probe components canonicalize through [`ValueKey::num`] like
/// every other access path (NaN → the unmatchable NULL key).
#[derive(Clone)]
pub struct CompositeValueIndex {
    entries: BTreeMap<Vec<ValueKey<'static>>, Vec<CompositeEntry>>,
    total_rows: usize,
}

/// The composite `(key, entry)` rows one primary node contributes under
/// `spec`: the cross product of its member columns, nested in chain
/// order (member 0 varies slowest) — mirroring the `Υ` nesting of the
/// replaced build side, so the rows come out in build-row order. A
/// primary whose member evaluation is empty (or whose anchor walk runs
/// past the root) contributes nothing, exactly as the scan build's
/// empty `Υ` fan-out drops the row.
///
/// Shared by [`CompositeValueIndex::build`] and the incremental
/// maintenance, which re-derives exactly the *affected* primaries'
/// rows after an update instead of rebuilding the index.
pub fn entries_for_primary(
    doc: &Document,
    p: NodeId,
    spec: &CompositeSpec,
) -> Vec<(Vec<ValueKey<'static>>, CompositeEntry)> {
    let member_lists: Option<Vec<Vec<NodeId>>> = spec
        .members
        .iter()
        .map(|m| {
            let anchor = match m.levels {
                None => Some(NodeId::DOCUMENT),
                Some(l) => super::ancestor::nth_parent(doc, p, l),
            };
            anchor.map(|a| super::ancestor::eval_relative(doc, a, &m.rel))
        })
        .collect();
    let Some(member_lists) = member_lists else {
        return Vec::new();
    };
    if member_lists.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let primary_value = doc.string_value(p).into_owned();
    let mut out = Vec::new();
    let mut combo = vec![0usize; member_lists.len()];
    loop {
        let members: Vec<NodeId> = member_lists
            .iter()
            .zip(&combo)
            .map(|(list, &i)| list[i])
            .collect();
        let key: Vec<ValueKey<'static>> = spec
            .key
            .iter()
            .map(|c| {
                ValueKey::Str(Cow::Owned(match c {
                    KeyComponent::Primary => primary_value.clone(),
                    KeyComponent::Member(i) => doc.string_value(members[*i]).into_owned(),
                }))
            })
            .collect();
        out.push((
            key,
            CompositeEntry {
                primary: p,
                members,
            },
        ));
        // Advance the cross product, innermost (last) member first.
        let mut level = member_lists.len();
        loop {
            if level == 0 {
                break;
            }
            level -= 1;
            combo[level] += 1;
            if combo[level] < member_lists[level].len() {
                break;
            }
            combo[level] = 0;
        }
        if combo.iter().all(|&i| i == 0) {
            break;
        }
    }
    out
}

impl CompositeValueIndex {
    /// Index the cross product of member columns under each primary node
    /// (`primary_nodes` must be in document order); see
    /// [`entries_for_primary`] for the per-primary row derivation and
    /// ordering.
    pub fn build(doc: &Document, primary_nodes: &[NodeId], spec: &CompositeSpec) -> Self {
        let mut entries: BTreeMap<Vec<ValueKey<'static>>, Vec<CompositeEntry>> = BTreeMap::new();
        let mut total_rows = 0usize;
        for &p in primary_nodes {
            for (key, entry) in entries_for_primary(doc, p, spec) {
                entries.entry(key).or_default().push(entry);
                total_rows += 1;
            }
        }
        CompositeValueIndex {
            entries,
            total_rows,
        }
    }

    // -----------------------------------------------------------------
    // Incremental maintenance
    // -----------------------------------------------------------------

    /// Add one `(key, entry)` row, keeping the posting list in build-row
    /// order ([`CompositeEntry`]'s derived ordering) by binary insert.
    /// Returns the number of postings written (1).
    pub fn insert_entry(&mut self, key: Vec<ValueKey<'static>>, entry: CompositeEntry) -> usize {
        let list = self.entries.entry(key).or_default();
        let pos = list.partition_point(|e| *e < entry);
        if list.get(pos) == Some(&entry) {
            return 0;
        }
        list.insert(pos, entry);
        self.total_rows += 1;
        1
    }

    /// Remove one previously indexed `(key, entry)` row. Returns the
    /// number of postings removed (0 or 1).
    pub fn remove_entry(&mut self, key: &[ValueKey<'static>], entry: &CompositeEntry) -> usize {
        let Some(list) = self.entries.get_mut(key) else {
            return 0;
        };
        let pos = list.partition_point(|e| e < entry);
        if list.get(pos) != Some(entry) {
            return 0;
        }
        list.remove(pos);
        if list.is_empty() {
            self.entries.remove(key);
        }
        self.total_rows -= 1;
        1
    }

    /// Posting entries of a composite key, in build-row order. Empty for
    /// misses and for probes with any unmatchable (NULL/NaN) component.
    pub fn get<'k>(&'k self, key: &[ValueKey<'k>]) -> &'k [CompositeEntry] {
        if key.iter().any(|k| !k.matchable()) {
            return &[];
        }
        self.entries.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct composite keys.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// Number of indexed build rows.
    pub fn len(&self) -> usize {
        self.total_rows
    }

    /// `true` when no build row is indexed.
    pub fn is_empty(&self) -> bool {
        self.total_rows == 0
    }

    /// Iterate `(key, entries)` in ascending lexicographic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[ValueKey<'static>], &[CompositeEntry])> {
        self.entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
    }
}

/// Is `(lo, hi)` a non-empty, `BTreeMap::range`-safe bound pair? Degenerate
/// pairs (start past end, or a shared endpoint that at least one side
/// excludes) select nothing, so callers can return empty directly.
fn bounds_ordered<T: Ord>(lo: &Bound<T>, hi: &Bound<T>) -> bool {
    match (lo, hi) {
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            if a > b {
                return false;
            }
            if a == b && (matches!(lo, Bound::Excluded(_)) || matches!(hi, Bound::Excluded(_))) {
                return false;
            }
            true
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::path::{PathIndex, PathPattern, PatternStep};
    use crate::parser::parse_document;

    fn doc() -> Document {
        parse_document(
            "t.xml",
            r#"<bib>
                 <book><title>Beta</title></book>
                 <book><title>Alpha</title></book>
                 <book><title>Beta</title></book>
               </bib>"#,
        )
        .unwrap()
    }

    #[test]
    fn posting_lists_in_document_order_keys_in_key_order() {
        let d = doc();
        let pidx = PathIndex::build(&d);
        let titles = pidx
            .lookup(&PathPattern::new(vec![PatternStep::Descendant(Some(
                "title".into(),
            ))]))
            .unwrap();
        let vidx = ValueIndex::build(&d, &titles);
        assert_eq!(vidx.len(), 3);
        assert_eq!(vidx.distinct_keys(), 2);
        let beta = vidx.get(&ValueKey::Str("Beta".into()));
        assert_eq!(beta.len(), 2);
        assert!(beta[0] < beta[1], "posting list must be in document order");
        let keys: Vec<&ValueKey> = vidx.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                &ValueKey::Str("Alpha".into()),
                &ValueKey::Str("Beta".into())
            ]
        );
        assert!(vidx.contains(&ValueKey::Str("Alpha".into())));
        assert!(!vidx.contains(&ValueKey::Str("Gamma".into())));
    }

    #[test]
    fn non_string_probes_miss_by_design() {
        let d = parse_document("n.xml", "<r><v>42</v></r>").unwrap();
        let pidx = PathIndex::build(&d);
        let vs = pidx
            .lookup(&PathPattern::new(vec![PatternStep::Descendant(Some(
                "v".into(),
            ))]))
            .unwrap();
        let vidx = ValueIndex::build(&d, &vs);
        // The node's value is the *string* "42"; a numeric probe misses,
        // exactly as the hash operators' typed keys would.
        assert!(vidx.contains(&ValueKey::Str("42".into())));
        assert!(!vidx.contains(&ValueKey::num(42.0)));
        assert!(!vidx.contains(&ValueKey::Null));
    }

    #[test]
    fn numeric_key_order_matches_ieee_order() {
        let samples = [-1.5f64, -0.0, 0.0, 1.0, 2.5, f64::INFINITY, -f64::INFINITY];
        for &a in &samples {
            assert_eq!(ValueKey::num(a).as_f64(), Some(a), "round-trip {a}");
            for &b in &samples {
                assert_eq!(
                    ValueKey::num(a).cmp(&ValueKey::num(b)),
                    a.partial_cmp(&b).expect("no NaN in samples"),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn nan_keys_are_unmatchable_and_zeros_collapse() {
        // NaN canonicalizes to the unmatchable Null key on build & probe.
        assert_eq!(ValueKey::num(f64::NAN), ValueKey::Null);
        assert!(!ValueKey::num(f64::NAN).matchable());
        // -0.0 and 0.0 are one key point.
        assert_eq!(ValueKey::num(-0.0), ValueKey::num(0.0));
        let d = parse_document("z.xml", "<r><v>-0</v><v>0</v><v>0.0</v></r>").unwrap();
        let pidx = PathIndex::build(&d);
        let vs = pidx
            .lookup(&PathPattern::new(vec![PatternStep::Descendant(Some(
                "v".into(),
            ))]))
            .unwrap();
        let vidx = ValueIndex::build(&d, &vs);
        // All three spellings live under the single canonical zero in the
        // numeric view.
        let zeroes = vidx.range(
            Bound::Included(&ValueKey::num(-0.0)),
            Bound::Included(&ValueKey::num(0.0)),
        );
        assert_eq!(zeroes.len(), 3);
    }

    #[test]
    fn range_probes_numeric_and_string_regimes() {
        let d = parse_document(
            "n.xml",
            "<r><v>10</v><v>2</v><v>30</v><v>abc</v><v>NaN</v></r>",
        )
        .unwrap();
        let pidx = PathIndex::build(&d);
        let vs = pidx
            .lookup(&PathPattern::new(vec![PatternStep::Descendant(Some(
                "v".into(),
            ))]))
            .unwrap();
        let vidx = ValueIndex::build(&d, &vs);
        // Numeric regime: parsed values in numeric order; "abc" and "NaN"
        // are not in the view.
        let le_10 = vidx.range(Bound::Unbounded, Bound::Included(&ValueKey::num(10.0)));
        assert_eq!(le_10.len(), 2, "2 and 10");
        let gt_2 = vidx.range(Bound::Excluded(&ValueKey::num(2.0)), Bound::Unbounded);
        assert_eq!(gt_2.len(), 2, "10 and 30");
        assert!(gt_2.windows(2).all(|w| w[0] < w[1]), "document order");
        // String regime: lexicographic, every node participates.
        let lex = vidx.range(
            Bound::Included(&ValueKey::Str("1".into())),
            Bound::Excluded(&ValueKey::Str("3".into())),
        );
        assert_eq!(lex.len(), 2, "\"10\" and \"2\" sort inside [\"1\", \"3\")");
        // NaN endpoints (canonicalized to Null) select nothing.
        assert!(vidx
            .range(Bound::Included(&ValueKey::num(f64::NAN)), Bound::Unbounded)
            .is_empty());
        // Mixed regimes have no defined order.
        assert!(vidx
            .range(
                Bound::Included(&ValueKey::num(1.0)),
                Bound::Included(&ValueKey::Str("z".into()))
            )
            .is_empty());
        // Degenerate bounds are empty, not a panic.
        assert!(vidx
            .range(
                Bound::Excluded(&ValueKey::num(5.0)),
                Bound::Excluded(&ValueKey::num(5.0))
            )
            .is_empty());
        assert!(vidx
            .range(
                Bound::Included(&ValueKey::Str("z".into())),
                Bound::Included(&ValueKey::Str("a".into()))
            )
            .is_empty());
        // Fully unbounded: every node, in document order.
        let all = vidx.range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 5);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn variant_order_is_total() {
        let mut keys = [
            ValueKey::Str("a".into()),
            ValueKey::num(1.0),
            ValueKey::Null,
            ValueKey::Bool(true),
            ValueKey::Other("(1, 2)".into()),
            ValueKey::Bool(false),
        ];
        keys.sort();
        assert_eq!(keys[0], ValueKey::Null);
        assert_eq!(keys[1], ValueKey::Bool(false));
        assert_eq!(keys[2], ValueKey::Bool(true));
        assert!(matches!(keys[3], ValueKey::Num(_)));
        assert!(matches!(keys[4], ValueKey::Str(_)));
        assert!(matches!(keys[5], ValueKey::Other(_)));
    }
}
