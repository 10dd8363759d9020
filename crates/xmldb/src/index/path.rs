//! The path index: label paths → element/attribute nodes in document
//! order.
//!
//! Every element node of a document has exactly one *label path* — the
//! chain of element names from the root down to the node, e.g.
//! `/bib/book/author`. Documents with a schema have few distinct label
//! paths (tens, not thousands), so the index stores one posting list per
//! distinct label path plus one per tag name, both in document order
//! (arena order *is* document order, so build order gives this for free).
//!
//! Lookups take a [`PathPattern`] — the index-side mirror of a structural
//! XPath (`xmldb` sits below the `xpath` crate in the dependency order,
//! so it cannot consume `xpath::Path` directly; the engine converts). A
//! pattern is matched against each distinct label path; the posting lists
//! of the matching paths are merged back into document order. The common
//! single-step `//name` shape is answered directly from the tag map.

use std::collections::HashMap;
use std::fmt;

use crate::document::Document;
use crate::node::{NodeId, NodeKind};

/// One step of a [`PathPattern`], mirroring the engine's path axes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PatternStep {
    /// `/name` — the next label-path segment must equal `name`
    /// (`None` for the `*` wildcard: any one segment).
    Child(Option<String>),
    /// `//name` — some segment at this depth or deeper equals `name`
    /// (`None`: any segment, i.e. `//*`).
    Descendant(Option<String>),
    /// `/@name` — terminal attribute step (`None` for `@*`).
    Attribute(Option<String>),
}

/// A document-rooted structural path pattern, resolvable against a
/// [`PathIndex`] without touching the document tree.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct PathPattern {
    /// The pattern's steps, outermost first.
    pub steps: Vec<PatternStep>,
}

impl PathPattern {
    /// A pattern from its steps.
    pub fn new(steps: Vec<PatternStep>) -> PathPattern {
        PathPattern { steps }
    }

    /// Canonical cache key (also the display form).
    pub fn key(&self) -> String {
        self.to_string()
    }

    /// `true` iff the final step is an attribute step.
    pub fn selects_attributes(&self) -> bool {
        matches!(self.steps.last(), Some(PatternStep::Attribute(_)))
    }

    /// A pattern is resolvable when it has at least one step and
    /// attribute steps occur only in final position.
    pub fn is_resolvable(&self) -> bool {
        !self.steps.is_empty()
            && self.steps[..self.steps.len() - 1]
                .iter()
                .all(|s| !matches!(s, PatternStep::Attribute(_)))
    }

    /// Does this (element-selecting) pattern match an element with the
    /// absolute label path `segs` (`["bib", "book", "author"]`)? `false`
    /// for attribute-final or unresolvable patterns. The incremental
    /// index maintenance uses this to decide which cached value indexes
    /// a touched node belongs to.
    pub fn matches_element_path(&self, segs: &[&str]) -> bool {
        self.is_resolvable() && !self.selects_attributes() && self.matches_elements(segs)
    }

    /// Does this (attribute-final) pattern match an attribute named
    /// `name` whose owner element has the label path `owner_segs`?
    /// `false` for element-selecting or unresolvable patterns.
    pub fn matches_attribute(&self, owner_segs: &[&str], name: &str) -> bool {
        if !self.is_resolvable() || self.steps.len() < 2 {
            return false;
        }
        match self.steps.last() {
            Some(PatternStep::Attribute(test)) => {
                name_matches(test, name) && self.matches_elements(owner_segs)
            }
            _ => false,
        }
    }

    /// Match the element steps against an absolute label path
    /// (`segs = ["bib", "book", "author"]`), anchored at the document
    /// node. Attribute-final patterns match when the element prefix
    /// matches the whole segment list.
    fn matches_elements(&self, segs: &[&str]) -> bool {
        let steps = match self.steps.last() {
            Some(PatternStep::Attribute(_)) => &self.steps[..self.steps.len() - 1],
            _ => &self.steps[..],
        };
        matches_from(steps, segs)
    }
}

/// Recursive pattern match: `steps` against the remaining `segs`, where a
/// child step consumes exactly one segment and a descendant step consumes
/// one or more (the named segment may sit at any deeper position). Shared
/// with [`super::ancestor`], which matches *relative* spans between a
/// reconstructed ancestor binding and its key node with the same anchored
/// semantics.
pub(crate) fn matches_from(steps: &[PatternStep], segs: &[&str]) -> bool {
    let Some((step, rest)) = steps.split_first() else {
        // All steps consumed: the path matches iff it is fully consumed
        // (the final step names the *selected* node, not an ancestor).
        return segs.is_empty();
    };
    match step {
        PatternStep::Child(test) => match segs.split_first() {
            Some((seg, tail)) => name_matches(test, seg) && matches_from(rest, tail),
            None => false,
        },
        PatternStep::Descendant(test) => (0..segs.len())
            .any(|skip| name_matches(test, segs[skip]) && matches_from(rest, &segs[skip + 1..])),
        // Attribute steps are stripped by the caller.
        PatternStep::Attribute(_) => false,
    }
}

#[inline]
pub(crate) fn name_matches(test: &Option<String>, seg: &str) -> bool {
    match test {
        None => true,
        Some(n) => n == seg,
    }
}

impl fmt::Display for PathPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            let (sep, test) = match step {
                PatternStep::Child(t) => ("/", t),
                PatternStep::Descendant(t) => ("//", t),
                PatternStep::Attribute(t) => ("/@", t),
            };
            write!(f, "{sep}{}", test.as_deref().unwrap_or("*"))?;
        }
        Ok(())
    }
}

/// Per-path statistics exposed for cost estimation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathIndexStats {
    /// Distinct element label paths.
    pub distinct_paths: usize,
    /// Indexed element nodes.
    pub element_entries: usize,
    /// Indexed attribute nodes.
    pub attribute_entries: usize,
}

/// The document-order path index of one document.
#[derive(Clone)]
pub struct PathIndex {
    /// Distinct element label paths, each with its posting list in
    /// document order. Paths are stored pre-split for matching.
    paths: Vec<(Vec<String>, Vec<NodeId>)>,
    /// Tag name → element nodes in document order (`//name` fast path).
    by_tag: HashMap<String, Vec<NodeId>>,
    /// (owner label path, attribute name) → attribute nodes in document
    /// order, the owner path stored pre-split like `paths`.
    attrs: Vec<(Vec<String>, String, Vec<NodeId>)>,
}

impl PathIndex {
    /// One pre-order pass over the document. Nodes are visited in arena
    /// (= document) order, so every posting list comes out ordered.
    pub fn build(doc: &Document) -> PathIndex {
        let mut path_slots: HashMap<Vec<String>, usize> = HashMap::new();
        let mut paths: Vec<(Vec<String>, Vec<NodeId>)> = Vec::new();
        let mut by_tag: HashMap<String, Vec<NodeId>> = HashMap::new();
        let mut attr_slots: HashMap<(Vec<String>, String), usize> = HashMap::new();
        let mut attrs: Vec<(Vec<String>, String, Vec<NodeId>)> = Vec::new();

        // Depth-tracking walk: maintain the label path of the current node.
        let mut trail: Vec<String> = Vec::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for n in doc.descendants(NodeId::DOCUMENT) {
            // Pop ancestors that are no longer on the path to `n`.
            while let Some(&top) = stack.last() {
                if doc.is_ancestor(top, n) {
                    break;
                }
                stack.pop();
                trail.pop();
            }
            if let NodeKind::Element(name_idx) = doc.kind(n) {
                let name = doc.name(name_idx).to_string();
                trail.push(name.clone());
                stack.push(n);
                let slot = *path_slots.entry(trail.clone()).or_insert_with(|| {
                    paths.push((trail.clone(), Vec::new()));
                    paths.len() - 1
                });
                paths[slot].1.push(n);
                by_tag.entry(name).or_default().push(n);
                for a in doc.attributes(n) {
                    let aname = doc.node_name(a).expect("attribute name").to_string();
                    let key = (trail.clone(), aname.clone());
                    let slot = *attr_slots.entry(key).or_insert_with(|| {
                        attrs.push((trail.clone(), aname.clone(), Vec::new()));
                        attrs.len() - 1
                    });
                    attrs[slot].2.push(a);
                }
            }
        }
        PathIndex {
            paths,
            by_tag,
            attrs,
        }
    }

    /// Resolve a pattern to the matching nodes in document order.
    /// Returns `None` when the pattern is not resolvable by this index
    /// (empty pattern or a non-final attribute step) — callers fall back
    /// to tree navigation.
    pub fn lookup(&self, pattern: &PathPattern) -> Option<Vec<NodeId>> {
        if !pattern.is_resolvable() {
            return None;
        }
        // Fast path: a single descendant step with a literal name.
        if pattern.steps.len() == 1 {
            if let PatternStep::Descendant(Some(name)) = &pattern.steps[0] {
                return Some(self.by_tag.get(name).cloned().unwrap_or_default());
            }
        }
        let mut lists: Vec<&[NodeId]> = Vec::new();
        if let Some(PatternStep::Attribute(test)) = pattern.steps.last() {
            if pattern.steps.len() == 1 {
                // A bare `//@a`-style pattern is not produced by the
                // engine's paths (attribute steps follow element steps),
                // but `/@a` from the document node selects nothing.
                return Some(Vec::new());
            }
            for (owner, aname, nodes) in &self.attrs {
                let segs: Vec<&str> = owner.iter().map(String::as_str).collect();
                if name_matches(test, aname) && pattern.matches_elements(&segs) {
                    lists.push(nodes);
                }
            }
        } else {
            for (path, nodes) in &self.paths {
                let segs: Vec<&str> = path.iter().map(String::as_str).collect();
                if pattern.matches_elements(&segs) {
                    lists.push(nodes);
                }
            }
        }
        Some(merge_ordered(lists))
    }

    /// Number of nodes a pattern selects (same `None` contract as
    /// [`PathIndex::lookup`]).
    pub fn count(&self, pattern: &PathPattern) -> Option<usize> {
        self.lookup(pattern).map(|nodes| nodes.len())
    }

    // -----------------------------------------------------------------
    // Incremental maintenance
    // -----------------------------------------------------------------
    //
    // Posting lists are ordered by `NodeId` — and NodeId order is
    // document order even after updates (gap-based ordering keys) — so a
    // delta is a binary-search insert/remove per touched node, never a
    // rebuild. Each method returns the number of postings written or
    // removed (the maintained-postings counter that
    // `tests/update_workloads.rs` compares against full rebuilds).

    /// Add a newly inserted element with label path `trail` to its path
    /// and tag posting lists.
    pub fn insert_element(&mut self, trail: &[String], node: NodeId) -> usize {
        let slot = match self.paths.iter().position(|(p, _)| p == trail) {
            Some(i) => i,
            None => {
                self.paths.push((trail.to_vec(), Vec::new()));
                self.paths.len() - 1
            }
        };
        ordered_insert(&mut self.paths[slot].1, node);
        let tag = trail.last().expect("element trails are non-empty");
        ordered_insert(self.by_tag.entry(tag.clone()).or_default(), node);
        2
    }

    /// Remove a deleted element from its path and tag posting lists.
    pub fn remove_element(&mut self, trail: &[String], node: NodeId) -> usize {
        let mut removed = 0;
        if let Some(i) = self.paths.iter().position(|(p, _)| p == trail) {
            removed += ordered_remove(&mut self.paths[i].1, node);
            if self.paths[i].1.is_empty() {
                self.paths.remove(i);
            }
        }
        let tag = trail.last().expect("element trails are non-empty");
        if let Some(list) = self.by_tag.get_mut(tag.as_str()) {
            removed += ordered_remove(list, node);
            if list.is_empty() {
                self.by_tag.remove(tag.as_str());
            }
        }
        removed
    }

    /// Add a newly inserted attribute (owner label path + attribute
    /// name) to its posting list.
    pub fn insert_attribute(&mut self, owner_trail: &[String], name: &str, node: NodeId) -> usize {
        let slot = match self
            .attrs
            .iter()
            .position(|(p, a, _)| p == owner_trail && a == name)
        {
            Some(i) => i,
            None => {
                self.attrs
                    .push((owner_trail.to_vec(), name.to_string(), Vec::new()));
                self.attrs.len() - 1
            }
        };
        ordered_insert(&mut self.attrs[slot].2, node);
        1
    }

    /// Remove a deleted attribute from its posting list.
    pub fn remove_attribute(&mut self, owner_trail: &[String], name: &str, node: NodeId) -> usize {
        let mut removed = 0;
        if let Some(i) = self
            .attrs
            .iter()
            .position(|(p, a, _)| p == owner_trail && a == name)
        {
            removed += ordered_remove(&mut self.attrs[i].2, node);
            if self.attrs[i].2.is_empty() {
                self.attrs.remove(i);
            }
        }
        removed
    }

    /// Index size statistics.
    pub fn stats(&self) -> PathIndexStats {
        PathIndexStats {
            distinct_paths: self.paths.len(),
            element_entries: self.paths.iter().map(|(_, ns)| ns.len()).sum(),
            attribute_entries: self.attrs.iter().map(|(_, _, ns)| ns.len()).sum(),
        }
    }
}

/// Binary-search insert into an ascending (document-order) posting
/// list; idempotent for an already-present node.
pub(crate) fn ordered_insert(list: &mut Vec<NodeId>, node: NodeId) {
    let pos = list.partition_point(|&n| n < node);
    if list.get(pos) != Some(&node) {
        list.insert(pos, node);
    }
}

/// Binary-search removal from an ascending posting list; returns the
/// number of postings removed (0 or 1).
pub(crate) fn ordered_remove(list: &mut Vec<NodeId>, node: NodeId) -> usize {
    let pos = list.partition_point(|&n| n < node);
    if list.get(pos) == Some(&node) {
        list.remove(pos);
        1
    } else {
        0
    }
}

/// Merge posting lists (each ascending, mutually disjoint — every node
/// has exactly one label path) back into one ascending list.
fn merge_ordered(lists: Vec<&[NodeId]>) -> Vec<NodeId> {
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].to_vec(),
        _ => {
            let total = lists.iter().map(|l| l.len()).sum();
            let mut out = Vec::with_capacity(total);
            let mut cursors = vec![0usize; lists.len()];
            for _ in 0..total {
                let mut best: Option<usize> = None;
                for (i, list) in lists.iter().enumerate() {
                    if cursors[i] < list.len() {
                        let candidate = list[cursors[i]];
                        if best.is_none_or(|b| candidate < lists[b][cursors[b]]) {
                            best = Some(i);
                        }
                    }
                }
                let b = best.expect("total bounds the iterations");
                out.push(lists[b][cursors[b]]);
                cursors[b] += 1;
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    fn doc() -> Document {
        parse_document(
            "t.xml",
            r#"<bib>
                 <book year="1994"><title>T1</title><author><last>A</last></author></book>
                 <book year="2000"><title>T2</title>
                   <author><last>B</last></author>
                   <author><last>C</last></author>
                 </book>
                 <article><author><last>D</last></author></article>
               </bib>"#,
        )
        .unwrap()
    }

    fn pat(steps: Vec<PatternStep>) -> PathPattern {
        PathPattern::new(steps)
    }

    fn values(d: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| d.string_value(n).into_owned())
            .collect()
    }

    #[test]
    fn tag_fast_path_in_document_order() {
        let d = doc();
        let idx = PathIndex::build(&d);
        let nodes = idx
            .lookup(&pat(vec![PatternStep::Descendant(Some("last".into()))]))
            .unwrap();
        assert_eq!(values(&d, &nodes), vec!["A", "B", "C", "D"]);
        let mut sorted = nodes.clone();
        sorted.sort();
        assert_eq!(nodes, sorted);
    }

    #[test]
    fn descendant_child_chain_merges_paths() {
        let d = doc();
        let idx = PathIndex::build(&d);
        // //author/last matches both /bib/book/author/last and
        // /bib/article/author/last.
        let nodes = idx
            .lookup(&pat(vec![
                PatternStep::Descendant(Some("author".into())),
                PatternStep::Child(Some("last".into())),
            ]))
            .unwrap();
        assert_eq!(values(&d, &nodes), vec!["A", "B", "C", "D"]);
        // //book/author excludes the article author.
        let nodes = idx
            .lookup(&pat(vec![
                PatternStep::Descendant(Some("book".into())),
                PatternStep::Child(Some("author".into())),
            ]))
            .unwrap();
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn absolute_child_chain() {
        let d = doc();
        let idx = PathIndex::build(&d);
        let nodes = idx
            .lookup(&pat(vec![
                PatternStep::Child(Some("bib".into())),
                PatternStep::Child(Some("book".into())),
                PatternStep::Child(Some("title".into())),
            ]))
            .unwrap();
        assert_eq!(values(&d, &nodes), vec!["T1", "T2"]);
        // A child step from the document node that is not the root
        // element selects nothing.
        let none = idx
            .lookup(&pat(vec![PatternStep::Child(Some("book".into()))]))
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn attribute_patterns() {
        let d = doc();
        let idx = PathIndex::build(&d);
        let nodes = idx
            .lookup(&pat(vec![
                PatternStep::Descendant(Some("book".into())),
                PatternStep::Attribute(Some("year".into())),
            ]))
            .unwrap();
        assert_eq!(values(&d, &nodes), vec!["1994", "2000"]);
        let none = idx
            .lookup(&pat(vec![
                PatternStep::Descendant(Some("book".into())),
                PatternStep::Attribute(Some("missing".into())),
            ]))
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn wildcards() {
        let d = doc();
        let idx = PathIndex::build(&d);
        // //* — all 14 elements.
        let all = idx
            .lookup(&pat(vec![PatternStep::Descendant(None)]))
            .unwrap();
        assert_eq!(all.len(), 14);
        // /bib/* — the three publications.
        let pubs = idx
            .lookup(&pat(vec![
                PatternStep::Child(Some("bib".into())),
                PatternStep::Child(None),
            ]))
            .unwrap();
        assert_eq!(pubs.len(), 3);
    }

    #[test]
    fn unresolvable_patterns_decline() {
        let d = doc();
        let idx = PathIndex::build(&d);
        assert_eq!(idx.lookup(&PathPattern::default()), None);
        // Non-final attribute step.
        assert_eq!(
            idx.lookup(&pat(vec![
                PatternStep::Attribute(Some("year".into())),
                PatternStep::Child(Some("x".into())),
            ])),
            None
        );
    }

    #[test]
    fn stats_count_entries() {
        let d = doc();
        let idx = PathIndex::build(&d);
        let s = idx.stats();
        assert_eq!(s.element_entries, 14);
        assert_eq!(s.attribute_entries, 2);
        // /bib, /bib/book, /bib/book/title, /bib/book/author,
        // /bib/book/author/last, /bib/article, /bib/article/author,
        // /bib/article/author/last
        assert_eq!(s.distinct_paths, 8);
    }

    #[test]
    fn display_roundtrips() {
        let p = pat(vec![
            PatternStep::Descendant(Some("book".into())),
            PatternStep::Child(Some("title".into())),
        ]);
        assert_eq!(p.key(), "//book/title");
        let q = pat(vec![
            PatternStep::Child(Some("bib".into())),
            PatternStep::Attribute(None),
        ]);
        assert_eq!(q.key(), "/bib/@*");
    }
}
