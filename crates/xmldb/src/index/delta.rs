//! Incremental index maintenance: posting-list deltas for document
//! updates.
//!
//! A catalog-level update ([`crate::Catalog::insert_subtree`],
//! [`crate::Catalog::delete_subtree`], [`crate::Catalog::replace_text`])
//! runs in three phases:
//!
//! 1. **capture** (pre-mutation): against the *old* tree, record what
//!    each cached index is about to lose — the touched subtree's
//!    postings, the pre-update string values of every node whose key may
//!    change, and the pre-update composite rows of every affected
//!    primary (`IndexCatalog::capture_delta`);
//! 2. the document mutation itself;
//! 3. **apply** (post-mutation): against the *new* tree, remove the
//!    captured postings, re-derive the affected keys/rows, and insert
//!    the new subtree's postings (`IndexCatalog::apply_delta`).
//!
//! The affected set is *local by construction*: a node's string value
//! changes only when the touch happens strictly inside its subtree, so
//! the only pre-existing nodes whose value-index keys move are the
//! **element ancestors of the touch seam** (attribute values never
//! contain descendant text, so attribute edits affect only the edited
//! node). Composite rows additionally re-derive for primaries whose
//! member *anchor* is a seam ancestor — those primaries sit exactly
//! `levels` below a seam element, so they are enumerated by a
//! bounded-depth walk under the seam (output-sensitive: the cost
//! tracks the seam's local fan-out, never the number of primaries in
//! the document). Members rooted at the **document node** see every
//! touch; such specs fall back to a rebuild (dropped here, rebuilt on
//! next use) rather than re-deriving every primary as a "delta".
//!
//! Deltas never apply across an ordering-key rebalance (stored
//! [`NodeId`]s of the renumbered region would compare with stale keys);
//! the catalog detects the `order_epoch` bump and invalidates instead.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use crate::catalog::DocId;
use crate::document::Document;
use crate::node::{NodeId, NodeKind};

use super::value::{entries_for_primary, CompositeEntry, CompositeSpec, ValueKey};
use super::{IndexCatalog, PathPattern};

/// How the catalog maintains built indexes across document updates.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MaintenanceMode {
    /// Apply posting-list deltas derived from the touched subtree (the
    /// default).
    #[default]
    Delta,
    /// Drop the document's cached indexes on every update and rebuild
    /// them on next use — the pre-mutable-store behaviour, kept as the
    /// baseline
    /// `tests/update_workloads.rs::delta_maintenance_touches_fewer_postings_than_rebuild`
    /// measures deltas against.
    Rebuild,
}

/// Cumulative maintenance counters (see
/// [`IndexCatalog::maintenance_stats`]).
/// `tests/update_workloads.rs::delta_maintenance_touches_fewer_postings_than_rebuild`
/// asserts [`postings_total`](Self::postings_total) under
/// [`MaintenanceMode::Delta`] stays strictly below the same total under
/// [`MaintenanceMode::Rebuild`] for the same updates and queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Postings written by full index builds.
    pub postings_built: u64,
    /// Postings written or removed by update deltas.
    pub postings_maintained: u64,
    /// Full index builds performed.
    pub full_builds: u64,
    /// Updates applied as deltas.
    pub delta_updates: u64,
}

impl MaintenanceStats {
    /// Total postings written by any means — the cost figure compared
    /// across maintenance modes.
    pub fn postings_total(&self) -> u64 {
        self.postings_built + self.postings_maintained
    }
}

/// What an update is about to touch, described against the pre-update
/// tree.
pub(crate) enum TouchPre {
    /// A subtree will be inserted under `parent`.
    Insert { parent: NodeId },
    /// `root`'s subtree will be deleted.
    Delete { root: NodeId },
    /// `node`'s (text or attribute) content will be replaced.
    Text { node: NodeId },
}

/// The same update, described against the post-update tree.
pub(crate) enum TouchPost {
    /// The inserted subtree's root.
    Insert { root: NodeId },
    /// Deletion (everything needed was captured pre-mutation).
    Delete,
    /// Text replacement (the captured re-key set names the node).
    Text,
}

/// Everything captured pre-mutation that [`IndexCatalog::apply_delta`]
/// needs: removals with their old keys, plus the affected node/primary
/// sets to re-derive post-mutation.
pub(crate) struct DeltaPlan {
    /// Pattern cache key → pre-existing surviving nodes whose value key
    /// may change, with their pre-update values.
    value_rekey: Vec<(String, Vec<(NodeId, String)>)>,
    /// Pattern cache key → nodes leaving the index (deletions), with
    /// their pre-update values.
    value_remove: Vec<(String, Vec<(NodeId, String)>)>,
    /// Deleted elements: (label trail, node).
    path_remove_elems: Vec<(Vec<String>, NodeId)>,
    /// Deleted attributes: (owner label trail, attribute name, node).
    path_remove_attrs: Vec<(Vec<String>, String, NodeId)>,
    /// Composite spec cache key → per-spec plan.
    composites: Vec<(String, CompositePlan)>,
}

enum CompositePlan {
    /// A doc-rooted member (or unresolvable primary) makes every
    /// primary "affected": drop the index, rebuild on next use.
    Rebuild,
    Delta {
        /// Pre-update rows to remove (deleted primaries + the old rows
        /// of affected surviving primaries).
        removals: Vec<(Vec<ValueKey<'static>>, CompositeEntry)>,
        /// Surviving primaries whose rows re-derive post-mutation.
        affected: Vec<NodeId>,
    },
}

/// Strict element ancestors of `node`, nearest-first (the document node
/// excluded).
fn element_ancestors(doc: &Document, node: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut cur = doc.parent(node);
    while let Some(p) = cur {
        if doc.kind(p).is_element() {
            out.push(p);
        }
        cur = doc.parent(p);
    }
    out
}

/// Label trail of an element (element names root-first, including
/// `node` itself).
fn element_trail(doc: &Document, node: NodeId) -> Vec<String> {
    let mut out: Vec<String> = element_ancestors(doc, node)
        .into_iter()
        .rev()
        .map(|n| doc.node_name(n).expect("element name").to_string())
        .collect();
    out.push(doc.node_name(node).expect("element name").to_string());
    out
}

/// The structural postings of `root`'s subtree: every element with its
/// label trail (trail includes the element), and every attribute with
/// its owner trail and name — document order.
type SubtreePostings = (
    Vec<(Vec<String>, NodeId)>,
    Vec<(Vec<String>, String, NodeId)>,
);

fn subtree_postings(doc: &Document, root: NodeId) -> SubtreePostings {
    let mut elems: Vec<(Vec<String>, NodeId)> = Vec::new();
    let mut attrs: Vec<(Vec<String>, String, NodeId)> = Vec::new();
    let mut trail = root_walk_trail(doc, root);
    walk_subtree(doc, root, &mut trail, &mut elems, &mut attrs);
    (elems, attrs)
}

fn walk_subtree(
    doc: &Document,
    node: NodeId,
    trail: &mut Vec<String>,
    elems: &mut Vec<(Vec<String>, NodeId)>,
    attrs: &mut Vec<(Vec<String>, String, NodeId)>,
) {
    match doc.kind(node) {
        NodeKind::Element(_) => {
            trail.push(doc.node_name(node).expect("element name").to_string());
            elems.push((trail.clone(), node));
            for a in doc.attributes(node) {
                attrs.push((
                    trail.clone(),
                    doc.node_name(a).expect("attribute name").to_string(),
                    a,
                ));
            }
            for c in doc.children(node) {
                walk_subtree(doc, c, trail, elems, attrs);
            }
            trail.pop();
        }
        NodeKind::Attribute(_) => {
            attrs.push((
                trail.clone(),
                doc.node_name(node).expect("attribute name").to_string(),
                node,
            ));
        }
        _ => {}
    }
}

impl IndexCatalog {
    /// Phase 1: capture, against the pre-update tree, everything the
    /// apply phase needs. Cheap when nothing is cached for `id`.
    pub(crate) fn capture_delta(&self, id: DocId, doc: &Document, touch: &TouchPre) -> DeltaPlan {
        // The touch seam. `value_seam`: elements whose *string value*
        // changes (ancestors of inserted/deleted/retextualized content —
        // attribute text never feeds element values). `anchor_seam`:
        // elements through which the touch is structurally visible
        // (composite member anchors to re-derive under).
        let (touched, is_attr_touch) = match touch {
            TouchPre::Insert { parent } => (*parent, false),
            TouchPre::Delete { root } => (*root, doc.kind(*root).is_attribute()),
            TouchPre::Text { node } => (*node, doc.kind(*node).is_attribute()),
        };
        let mut anchor_seam: Vec<NodeId> = element_ancestors(doc, touched);
        if matches!(touch, TouchPre::Insert { .. }) {
            anchor_seam.insert(0, touched);
        }
        let value_seam: Vec<NodeId> = if is_attr_touch {
            Vec::new()
        } else {
            anchor_seam.clone()
        };
        // The attribute whose own indexed value changes, if any.
        let touched_attr: Option<NodeId> = match touch {
            TouchPre::Text { node } if is_attr_touch => Some(*node),
            _ => None,
        };

        let seam_trails: Vec<(NodeId, Vec<String>)> = value_seam
            .iter()
            .map(|&n| (n, element_trail(doc, n)))
            .collect();

        // Value indexes: which cached patterns do the seam nodes (and
        // the touched attribute) belong to, and what were their values?
        let mut value_rekey: Vec<(String, Vec<(NodeId, String)>)> = Vec::new();
        let mut value_remove: Vec<(String, Vec<(NodeId, String)>)> = Vec::new();
        let deleted: Option<Vec<NodeId>> = match touch {
            TouchPre::Delete { root } => Some(doc.subtree_nodes(*root)),
            _ => None,
        };
        let deleted_set: HashSet<NodeId> = deleted.iter().flatten().copied().collect();
        {
            let values = self.values.read().expect("index lock");
            for ((did, pkey), (pattern, _)) in values.iter() {
                if *did != id {
                    continue;
                }
                let mut rekey: Vec<(NodeId, String)> = Vec::new();
                for (n, trail) in &seam_trails {
                    if deleted_set.contains(n) {
                        continue; // removals cover it
                    }
                    let segs: Vec<&str> = trail.iter().map(String::as_str).collect();
                    if pattern.matches_element_path(&segs) {
                        rekey.push((*n, doc.string_value(*n).into_owned()));
                    }
                }
                if let Some(a) = touched_attr {
                    let owner = doc.parent(a).expect("attributes have owners");
                    let owner_trail = element_trail(doc, owner);
                    let segs: Vec<&str> = owner_trail.iter().map(String::as_str).collect();
                    if pattern.matches_attribute(&segs, doc.node_name(a).expect("attr name")) {
                        rekey.push((a, doc.string_value(a).into_owned()));
                    }
                }
                if !rekey.is_empty() {
                    value_rekey.push((pkey.clone(), rekey));
                }
                if let TouchPre::Delete { root } = touch {
                    let removals = capture_subtree_matches(doc, *root, pattern);
                    if !removals.is_empty() {
                        value_remove.push((pkey.clone(), removals));
                    }
                }
            }
        }

        // Path index removals (deletions only; inserts are walked
        // post-mutation, text edits don't change structure).
        let mut path_remove_elems: Vec<(Vec<String>, NodeId)> = Vec::new();
        let mut path_remove_attrs: Vec<(Vec<String>, String, NodeId)> = Vec::new();
        if let TouchPre::Delete { root } = touch {
            if self.paths.read().expect("index lock").contains_key(&id) {
                (path_remove_elems, path_remove_attrs) = subtree_postings(doc, *root);
            }
        }

        // Composite indexes: affected primaries and their old rows. The
        // enumeration is output-sensitive — candidates come from the
        // seam itself, never from a scan of every primary in the
        // document:
        //
        // * a primary's own key value changes only when it *is* a seam
        //   ancestor (checked against `seam_trails`),
        // * a primary's member columns re-derive only when its anchor —
        //   `nth_parent(P, levels)` — is a seam element, i.e. `P` sits
        //   exactly `levels` below some seam node: enumerated by a
        //   bounded-depth ring walk under each seam anchor,
        // * deleted primaries come from the deleted subtree's own walk.
        let mut composites: Vec<(String, CompositePlan)> = Vec::new();
        let specs: Vec<(String, CompositeSpec)> = {
            let c = self.composites.read().expect("index lock");
            c.iter()
                .filter(|((did, _), _)| *did == id)
                .map(|((_, ckey), (spec, _))| (ckey.clone(), spec.clone()))
                .collect()
        };
        for (ckey, spec) in specs {
            if spec.members.iter().any(|m| m.levels.is_none()) {
                composites.push((ckey, CompositePlan::Rebuild));
                continue;
            }
            let mut affected_set: BTreeSet<NodeId> = BTreeSet::new();
            // (a) Seam elements whose string value changes and which are
            // themselves primaries.
            for (n, trail) in &seam_trails {
                let segs: Vec<&str> = trail.iter().map(String::as_str).collect();
                if spec.primary.matches_element_path(&segs) {
                    affected_set.insert(*n);
                }
            }
            // The retextualized attribute, if it is a primary.
            if let Some(a) = touched_attr {
                let owner = doc.parent(a).expect("attributes have owners");
                let owner_trail = element_trail(doc, owner);
                let segs: Vec<&str> = owner_trail.iter().map(String::as_str).collect();
                if spec
                    .primary
                    .matches_attribute(&segs, doc.node_name(a).expect("attr name"))
                {
                    affected_set.insert(a);
                }
            }
            // (b) Primaries anchored at a seam element: exactly `levels`
            // below it.
            let mut levels: Vec<usize> = spec.members.iter().filter_map(|m| m.levels).collect();
            levels.sort_unstable();
            levels.dedup();
            for &a_node in &anchor_seam {
                let mut trail = element_trail(doc, a_node);
                for &l in &levels {
                    collect_primary_ring(
                        doc,
                        a_node,
                        &mut trail,
                        l,
                        &spec.primary,
                        &mut affected_set,
                    );
                }
            }
            affected_set.retain(|p| !deleted_set.contains(p));

            let mut removals: Vec<(Vec<ValueKey<'static>>, CompositeEntry)> = Vec::new();
            // Deleted primaries: pure removals, from the subtree walk.
            if let TouchPre::Delete { root } = touch {
                for (p, _) in capture_subtree_matches(doc, *root, &spec.primary) {
                    removals.extend(entries_for_primary(doc, p, &spec));
                }
            }
            let affected: Vec<NodeId> = affected_set.into_iter().collect();
            for &p in &affected {
                removals.extend(entries_for_primary(doc, p, &spec));
            }
            composites.push((ckey, CompositePlan::Delta { removals, affected }));
        }

        DeltaPlan {
            value_rekey,
            value_remove,
            path_remove_elems,
            path_remove_attrs,
            composites,
        }
    }

    /// Phase 3: apply the captured plan against the post-update tree.
    /// Bumps the document's index epoch.
    pub(crate) fn apply_delta(&self, id: DocId, doc: &Document, plan: DeltaPlan, post: TouchPost) {
        let mut maintained: u64 = 0;

        // Path index: structural postings.
        {
            let mut paths = self.paths.write().expect("index lock");
            if let Some(arc) = paths.get_mut(&id) {
                let idx = Arc::make_mut(arc);
                for (trail, n) in &plan.path_remove_elems {
                    maintained += idx.remove_element(trail, *n) as u64;
                }
                for (trail, name, n) in &plan.path_remove_attrs {
                    maintained += idx.remove_attribute(trail, name, *n) as u64;
                }
                if let TouchPost::Insert { root } = post {
                    let (elems, attrs) = subtree_postings(doc, root);
                    for (t, n) in &elems {
                        maintained += idx.insert_element(t, *n) as u64;
                    }
                    for (t, a, n) in &attrs {
                        maintained += idx.insert_attribute(t, a, *n) as u64;
                    }
                }
            }
        }

        // Value indexes: removals, re-keys, and fresh postings.
        {
            let mut values = self.values.write().expect("index lock");
            for ((did, pkey), (pattern, arc)) in values.iter_mut() {
                if *did != id {
                    continue;
                }
                let idx = Arc::make_mut(arc);
                if let Some((_, removals)) = plan.value_remove.iter().find(|(k, _)| k == pkey) {
                    for (n, old) in removals {
                        maintained += idx.remove_node(old, *n) as u64;
                    }
                }
                if let Some((_, rekey)) = plan.value_rekey.iter().find(|(k, _)| k == pkey) {
                    for (n, old) in rekey {
                        let new = doc.string_value(*n);
                        if new != *old {
                            maintained += idx.remove_node(old, *n) as u64;
                            maintained += idx.insert_node(new.into_owned(), *n) as u64;
                        }
                    }
                }
                if let TouchPost::Insert { root } = post {
                    for (n, value) in capture_subtree_matches(doc, root, pattern) {
                        maintained += idx.insert_node(value, n) as u64;
                    }
                }
            }
        }

        // Composite indexes: row removals + re-derived rows.
        {
            let mut composites = self.composites.write().expect("index lock");
            let mut drop_keys: Vec<(DocId, String)> = Vec::new();
            for (ckey, cplan) in &plan.composites {
                let map_key = (id, ckey.clone());
                let Some((spec, arc)) = composites.get_mut(&map_key) else {
                    continue;
                };
                match cplan {
                    CompositePlan::Rebuild => drop_keys.push(map_key),
                    CompositePlan::Delta { removals, affected } => {
                        let idx = Arc::make_mut(arc);
                        for (key, entry) in removals {
                            maintained += idx.remove_entry(key, entry) as u64;
                        }
                        for &p in affected {
                            for (key, entry) in entries_for_primary(doc, p, spec) {
                                maintained += idx.insert_entry(key, entry) as u64;
                            }
                        }
                        if let TouchPost::Insert { root } = post {
                            for p in new_pattern_matches(doc, root, &spec.primary) {
                                for (key, entry) in entries_for_primary(doc, p, spec) {
                                    maintained += idx.insert_entry(key, entry) as u64;
                                }
                            }
                        }
                    }
                }
            }
            for k in drop_keys {
                composites.remove(&k);
            }
        }

        let mut s = self.stats.write().expect("stats lock");
        s.postings_maintained += maintained;
        s.delta_updates += 1;
        drop(s);
        self.bump_epoch(id);
    }
}

/// The trail a [`walk_subtree`] of `root` starts from: the root's
/// *ancestors'* names (the walk pushes the root's own name, or uses the
/// trail as the owner path for an attribute root).
fn root_walk_trail(doc: &Document, root: NodeId) -> Vec<String> {
    element_ancestors(doc, root)
        .into_iter()
        .rev()
        .map(|n| doc.node_name(n).expect("element name").to_string())
        .collect()
}

/// `(node, string value)` of every node in `root`'s subtree the pattern
/// selects (elements for element patterns, attributes for
/// attribute-final ones).
fn capture_subtree_matches(
    doc: &Document,
    root: NodeId,
    pattern: &PathPattern,
) -> Vec<(NodeId, String)> {
    let mut out: Vec<(NodeId, String)> = Vec::new();
    let (elems, attrs) = subtree_postings(doc, root);
    for (t, n) in &elems {
        let segs: Vec<&str> = t.iter().map(String::as_str).collect();
        if pattern.matches_element_path(&segs) {
            out.push((*n, doc.string_value(*n).into_owned()));
        }
    }
    for (t, a, n) in &attrs {
        let segs: Vec<&str> = t.iter().map(String::as_str).collect();
        if pattern.matches_attribute(&segs, a) {
            out.push((*n, doc.string_value(*n).into_owned()));
        }
    }
    out
}

/// Nodes of `root`'s subtree the pattern selects (element or attribute),
/// without values — new composite primaries after an insert.
fn new_pattern_matches(doc: &Document, root: NodeId, pattern: &PathPattern) -> Vec<NodeId> {
    capture_subtree_matches(doc, root, pattern)
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

/// Collect primary-pattern matches anchored at `node` with `remaining`
/// parent hops — element primaries exactly `remaining` element levels
/// below `node` (whose own trail arrives in `trail`), and attribute
/// primaries owned by elements `remaining − 1` levels below it (an
/// attribute's first parent hop reaches its owner). The walk is bounded
/// by the member depth, so enumeration cost tracks the seam's local
/// fan-out, not the number of primaries in the document.
fn collect_primary_ring(
    doc: &Document,
    node: NodeId,
    trail: &mut Vec<String>,
    remaining: usize,
    pattern: &PathPattern,
    out: &mut BTreeSet<NodeId>,
) {
    if remaining == 0 {
        let segs: Vec<&str> = trail.iter().map(String::as_str).collect();
        if pattern.matches_element_path(&segs) {
            out.insert(node);
        }
        return;
    }
    if remaining == 1 && pattern.selects_attributes() {
        let segs: Vec<&str> = trail.iter().map(String::as_str).collect();
        for a in doc.attributes(node) {
            if pattern.matches_attribute(&segs, doc.node_name(a).expect("attr name")) {
                out.insert(a);
            }
        }
        return;
    }
    for c in doc.children(node) {
        if doc.kind(c).is_element() {
            trail.push(doc.node_name(c).expect("element name").to_string());
            collect_primary_ring(doc, c, trail, remaining - 1, pattern, out);
            trail.pop();
        }
    }
}
