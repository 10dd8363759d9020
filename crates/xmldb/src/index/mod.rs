//! Ordered access-path indexes.
//!
//! The paper's quantifier rewrites turn `some`/`every` into semi/anti
//! joins, but the engine would still *scan* full document sequences for
//! every build and probe. This subsystem provides the order-aware access
//! paths that make those joins pay off at scale:
//!
//! * [`PathIndex`] — label path / tag → element & attribute nodes, in
//!   document order (document order is the result order every NAL
//!   operator assumes, so index results can be substituted for scans
//!   without re-sorting);
//! * [`ValueIndex`] — typed atomized value → nodes, ordered on both the
//!   key axis (`BTreeMap` over [`ValueKey`]) and the posting-list axis
//!   (document order);
//! * [`CompositeValueIndex`] — lexicographic multi-key variant backing
//!   composite quantifier joins;
//! * [`IndexCatalog`] — a per-catalog registry caching one lazily built
//!   [`PathIndex`] per document and one [`ValueIndex`] /
//!   [`CompositeValueIndex`] per `(document, pattern/spec)` the engine
//!   has probed.
//!
//! Indexes are built lazily on first use (the first lookup pays the
//! build) or eagerly via [`crate::Catalog::prewarm_indexes`]. Documents
//! are **mutable**: catalog-level updates
//! ([`crate::Catalog::insert_subtree`] and friends) keep every cached
//! index consistent by applying posting-list deltas derived from the
//! touched subtree ([`delta`]), tracked per document by an epoch
//! counter. URI re-registration and ordering-key rebalances fall back to
//! dropping the document's cached indexes (rebuilt on next use).

pub mod ancestor;
pub mod delta;
pub mod path;
pub mod value;

pub use ancestor::{eval_relative, matched_assignments, nth_parent, AncestorChainSpec};
pub use delta::{MaintenanceMode, MaintenanceStats};
pub use path::{PathIndex, PathIndexStats, PathPattern, PatternStep};
pub use value::{
    entries_for_primary, CompositeEntry, CompositeSpec, CompositeValueIndex, KeyComponent,
    MemberSpec, ValueIndex, ValueKey,
};

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::catalog::DocId;
use crate::document::Document;

/// Cached value indexes, keyed by `(document, pattern key)` and stored
/// with the pattern so the delta machinery can re-match touched nodes.
type ValueCache = HashMap<(DocId, String), (PathPattern, Arc<ValueIndex>)>;
/// Cached composite indexes, keyed by `(document, spec cache key)`.
type CompositeCache = HashMap<(DocId, String), (CompositeSpec, Arc<CompositeValueIndex>)>;

/// Registry of lazily built indexes for the documents of one
/// [`crate::Catalog`]. Interior mutability keeps the catalog shareable
/// by `&` during query execution (the engine holds `&Catalog`).
///
/// Each cache entry remembers the pattern/spec it was built for, so the
/// update path ([`delta`]) can decide which indexes a touched subtree
/// affects and apply posting-list deltas in place.
#[derive(Default)]
pub struct IndexCatalog {
    paths: RwLock<HashMap<DocId, Arc<PathIndex>>>,
    values: RwLock<ValueCache>,
    composites: RwLock<CompositeCache>,
    /// Per-document update epoch: bumped on every applied delta and on
    /// every invalidation (re-registration, rebalance). Monotonic across
    /// document replacement, unlike [`Document::epoch`].
    epochs: RwLock<HashMap<DocId, u64>>,
    mode: RwLock<MaintenanceMode>,
    stats: RwLock<MaintenanceStats>,
}

/// Cloning shares every built index by `Arc` — the clone is a map copy,
/// not an index rebuild. A later delta application on either copy goes
/// through `Arc::make_mut` ([`delta`]) and copies only the one index it
/// maintains, which is what makes [`crate::snapshot::CatalogHandle`]'s
/// clone-on-write publishes cheap.
impl Clone for IndexCatalog {
    fn clone(&self) -> IndexCatalog {
        IndexCatalog {
            paths: RwLock::new(self.paths.read().expect("index lock").clone()),
            values: RwLock::new(self.values.read().expect("index lock").clone()),
            composites: RwLock::new(self.composites.read().expect("index lock").clone()),
            epochs: RwLock::new(self.epochs.read().expect("epoch lock").clone()),
            mode: RwLock::new(*self.mode.read().expect("mode lock")),
            stats: RwLock::new(*self.stats.read().expect("stats lock")),
        }
    }
}

impl IndexCatalog {
    /// An empty registry (no indexes built).
    pub fn new() -> IndexCatalog {
        IndexCatalog::default()
    }

    /// The path index of `id`, building it on first use.
    pub fn path_index(&self, id: DocId, doc: &Document) -> Arc<PathIndex> {
        if let Some(idx) = self.paths.read().expect("index lock").get(&id) {
            return idx.clone();
        }
        let built = Arc::new(PathIndex::build(doc));
        let s = built.stats();
        self.record_build((s.element_entries + s.attribute_entries) as u64);
        let mut w = self.paths.write().expect("index lock");
        // A racing builder may have won; keep the first one registered.
        w.entry(id).or_insert(built).clone()
    }

    /// The value index of `(id, pattern)`, building it on first use from
    /// the path index's node set. Returns `None` when the pattern is not
    /// resolvable by the path index.
    pub fn value_index(
        &self,
        id: DocId,
        doc: &Document,
        pattern: &PathPattern,
    ) -> Option<Arc<ValueIndex>> {
        let key = (id, pattern.key());
        if let Some((_, idx)) = self.values.read().expect("index lock").get(&key) {
            return Some(idx.clone());
        }
        let nodes = self.path_index(id, doc).lookup(pattern)?;
        let built = Arc::new(ValueIndex::build(doc, &nodes));
        self.record_build(built.len() as u64);
        let mut w = self.values.write().expect("index lock");
        Some(w.entry(key).or_insert((pattern.clone(), built)).1.clone())
    }

    /// The composite value index of `(id, spec)`, building it on first
    /// use from the path index's primary-node set. Returns `None` when
    /// the primary pattern is not resolvable by the path index.
    pub fn composite_index(
        &self,
        id: DocId,
        doc: &Document,
        spec: &CompositeSpec,
    ) -> Option<Arc<CompositeValueIndex>> {
        let key = (id, spec.cache_key());
        if let Some((_, idx)) = self.composites.read().expect("index lock").get(&key) {
            return Some(idx.clone());
        }
        let primary = self.path_index(id, doc).lookup(&spec.primary)?;
        let built = Arc::new(CompositeValueIndex::build(doc, &primary, spec));
        self.record_build(built.len() as u64);
        let mut w = self.composites.write().expect("index lock");
        Some(w.entry(key).or_insert((spec.clone(), built)).1.clone())
    }

    /// Drop every cached index of `id` (URI re-registration, ordering
    /// rebalance, or an update in [`MaintenanceMode::Rebuild`]). Bumps
    /// the document's epoch.
    pub fn invalidate(&self, id: DocId) {
        self.paths.write().expect("index lock").remove(&id);
        self.values
            .write()
            .expect("index lock")
            .retain(|(doc, _), _| *doc != id);
        self.composites
            .write()
            .expect("index lock")
            .retain(|(doc, _), _| *doc != id);
        self.bump_epoch(id);
    }

    /// The document's index epoch: how many times its cached indexes
    /// have been delta-maintained or invalidated. Consumers holding
    /// epoch-stamped state (compiled access recipes, memoized
    /// statistics) compare against this to detect staleness.
    pub fn epoch(&self, id: DocId) -> u64 {
        self.epochs
            .read()
            .expect("epoch lock")
            .get(&id)
            .copied()
            .unwrap_or(0)
    }

    pub(crate) fn bump_epoch(&self, id: DocId) {
        *self
            .epochs
            .write()
            .expect("epoch lock")
            .entry(id)
            .or_insert(0) += 1;
    }

    /// How updates maintain built indexes (delta vs. rebuild).
    pub fn maintenance_mode(&self) -> MaintenanceMode {
        *self.mode.read().expect("mode lock")
    }

    /// Select the maintenance strategy
    /// (`tests/update_workloads.rs::delta_maintenance_touches_fewer_postings_than_rebuild`
    /// switches this to compare deltas against rebuilds).
    pub fn set_maintenance_mode(&self, mode: MaintenanceMode) {
        *self.mode.write().expect("mode lock") = mode;
    }

    /// Cumulative build/maintenance posting counters.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        *self.stats.read().expect("stats lock")
    }

    /// Reset the counters (per-phase bench accounting).
    pub fn reset_maintenance_stats(&self) {
        *self.stats.write().expect("stats lock") = MaintenanceStats::default();
    }

    fn record_build(&self, postings: u64) {
        let mut s = self.stats.write().expect("stats lock");
        s.full_builds += 1;
        s.postings_built += postings;
    }

    /// Number of built path indexes (observability / tests).
    pub fn built_path_indexes(&self) -> usize {
        self.paths.read().expect("index lock").len()
    }

    /// Number of built value indexes.
    pub fn built_value_indexes(&self) -> usize {
        self.values.read().expect("index lock").len()
    }

    /// Number of built composite value indexes.
    pub fn built_composite_indexes(&self) -> usize {
        self.composites.read().expect("index lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::parser::parse_document;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            parse_document("a.xml", "<r><x>1</x><x>2</x></r>").expect("well-formed document"),
        );
        cat
    }

    fn x_pattern() -> PathPattern {
        PathPattern::new(vec![PatternStep::Descendant(Some("x".into()))])
    }

    #[test]
    fn indexes_build_lazily_and_cache() {
        let cat = catalog();
        let id = cat.by_uri("a.xml").unwrap();
        assert_eq!(cat.indexes().built_path_indexes(), 0);
        let p1 = cat.path_index(id);
        let p2 = cat.path_index(id);
        assert!(Arc::ptr_eq(&p1, &p2), "path index must be cached");
        assert_eq!(cat.indexes().built_path_indexes(), 1);
        let v1 = cat.value_index(id, &x_pattern()).unwrap();
        let v2 = cat.value_index(id, &x_pattern()).unwrap();
        assert!(Arc::ptr_eq(&v1, &v2), "value index must be cached");
        assert_eq!(v1.len(), 2);
        let stats = cat.indexes().maintenance_stats();
        assert_eq!(stats.full_builds, 2, "one path + one value build");
        assert!(stats.postings_built >= 5, "3 path + 2 value postings");
    }

    #[test]
    fn reregistration_invalidates() {
        let mut cat = catalog();
        let id = cat.by_uri("a.xml").unwrap();
        let before = cat.value_index(id, &x_pattern()).unwrap();
        assert_eq!(before.len(), 2);
        let epoch = cat.indexes().epoch(id);
        cat.register(parse_document("a.xml", "<r><x>1</x></r>").unwrap());
        assert!(cat.indexes().epoch(id) > epoch, "invalidation bumps epoch");
        let after = cat.value_index(id, &x_pattern()).unwrap();
        assert_eq!(after.len(), 1, "stale index must be dropped");
    }

    #[test]
    fn reregistration_rebuilds_composite_indexes() {
        // Regression for the stale-posting bug class: a composite index
        // cached for a URI must be dropped and rebuilt when that URI is
        // re-registered, like every other index kind.
        let mut cat = Catalog::new();
        cat.register(
            parse_document(
                "c.xml",
                "<r><p><x>1</x><y>a</y></p><p><x>2</x><y>b</y></p></r>",
            )
            .unwrap(),
        );
        let id = cat.by_uri("c.xml").unwrap();
        let spec = CompositeSpec {
            primary: PathPattern::new(vec![PatternStep::Descendant(Some("x".into()))]),
            members: vec![MemberSpec {
                levels: Some(1),
                rel: PathPattern::new(vec![PatternStep::Child(Some("y".into()))]),
            }],
            key: vec![KeyComponent::Primary, KeyComponent::Member(0)],
        };
        let before = cat.composite_index(id, &spec).unwrap();
        assert_eq!(before.len(), 2);
        assert_eq!(cat.indexes().built_composite_indexes(), 1);
        assert_eq!(
            before
                .get(&[ValueKey::Str("1".into()), ValueKey::Str("a".into())])
                .len(),
            1
        );
        cat.register(parse_document("c.xml", "<r><p><x>1</x><y>Z</y></p></r>").unwrap());
        assert_eq!(cat.indexes().built_composite_indexes(), 0, "must drop");
        let after = cat.composite_index(id, &spec).unwrap();
        assert_eq!(after.len(), 1, "stale composite entries must be gone");
        assert!(after
            .get(&[ValueKey::Str("1".into()), ValueKey::Str("a".into())])
            .is_empty());
        assert_eq!(
            after
                .get(&[ValueKey::Str("1".into()), ValueKey::Str("Z".into())])
                .len(),
            1
        );
    }

    #[test]
    fn prewarm_builds_all_path_indexes() {
        let mut cat = catalog();
        cat.register(parse_document("b.xml", "<r/>").unwrap());
        cat.prewarm_indexes();
        assert_eq!(cat.indexes().built_path_indexes(), 2);
    }
}
