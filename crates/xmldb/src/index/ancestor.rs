//! Relative pattern evaluation and variable-depth ancestor
//! reconstruction.
//!
//! Two pieces of the index-join machinery live here because both need
//! the document's parent pointers and the [`PathPattern`] step semantics:
//!
//! * [`eval_relative`] evaluates a pattern *relative to a context node*
//!   — the index-build-time mirror of the engine's per-tuple XPath
//!   evaluation (child steps select named element children, descendant
//!   steps named descendants at any depth ≥ 1, attribute steps the named
//!   attributes; results in document order, duplicate-free). Composite
//!   value indexes use it to derive member key columns from each primary
//!   node's anchor.
//! * [`matched_assignments`] reconstructs **variable-depth ancestor
//!   bindings**: given a candidate key node and an [`AncestorChainSpec`],
//!   it enumerates every assignment of binding nodes along the
//!   candidate's ancestor path such that each relative pattern matches
//!   the span between consecutive bindings. This is what lets an index
//!   join rebuild a referenced binding that sits a *descendant* step
//!   above the key (`$l2 in $b2//last`), where parent navigation alone
//!   cannot know how many levels to climb — the former decline case of
//!   the access-path tracer.
//!
//! No new storage is required: the arena's parent pointers *are* the
//! parent index, and matching walks one root-to-candidate path (cost
//! bounded by tree depth, not document size).

use crate::document::Document;
use crate::node::{NodeId, NodeKind};

use super::path::{matches_from, name_matches, PathPattern, PatternStep};

/// Evaluate `pattern` relative to `ctx` with the engine's step semantics:
/// element-only child/descendant axes, attribute steps select attribute
/// nodes of the context elements. The result is in document order and
/// duplicate-free (each step sorts and dedups, exactly like the XPath
/// evaluator the scan plans run).
pub fn eval_relative(doc: &Document, ctx: NodeId, pattern: &PathPattern) -> Vec<NodeId> {
    let mut current: Vec<NodeId> = vec![ctx];
    for step in &pattern.steps {
        let mut next: Vec<NodeId> = Vec::new();
        for &node in &current {
            match step {
                PatternStep::Child(test) => {
                    for c in doc.children(node) {
                        if let NodeKind::Element(i) = doc.kind(c) {
                            if name_matches(test, doc.name(i)) {
                                next.push(c);
                            }
                        }
                    }
                }
                PatternStep::Descendant(test) => {
                    for d in doc.descendants(node) {
                        if let NodeKind::Element(i) = doc.kind(d) {
                            if name_matches(test, doc.name(i)) {
                                next.push(d);
                            }
                        }
                    }
                }
                PatternStep::Attribute(test) => {
                    for a in doc.attributes(node) {
                        if let NodeKind::Attribute(i) = doc.kind(a) {
                            if name_matches(test, doc.name(i)) {
                                next.push(a);
                            }
                        }
                    }
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        if next.is_empty() {
            return next;
        }
        current = next;
    }
    current
}

/// The `levels`-th ancestor of `node` (`0` = the node itself), or `None`
/// when the walk runs past the document node.
pub fn nth_parent(doc: &Document, node: NodeId, levels: usize) -> Option<NodeId> {
    let mut cur = node;
    for _ in 0..levels {
        cur = doc.parent(cur)?;
    }
    Some(cur)
}

/// How a chain of ancestor bindings relates a candidate key node to the
/// document root, for variable-depth reconstruction.
///
/// Bindings are listed **deepest-first** (nearest the document root):
/// `rels[0]` is the relative pattern from the deepest binding to the one
/// above it, and the *last* `rels` entry is the relative pattern from the
/// binding nearest the key to the candidate itself. `base` is the
/// absolute pattern of the deepest binding (matched against its label
/// path from the root).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AncestorChainSpec {
    /// Absolute pattern of the deepest binding.
    pub base: PathPattern,
    /// Relative patterns between consecutive bindings, deepest-first;
    /// the last spans from the nearest binding to the key candidate.
    pub rels: Vec<PathPattern>,
}

impl AncestorChainSpec {
    /// Canonical rendering (used as part of cache keys and diagnostics).
    pub fn key(&self) -> String {
        let rels: Vec<String> = self.rels.iter().map(|r| r.key()).collect();
        format!("{}⇐[{}]", self.base.key(), rels.join(", "))
    }
}

/// Enumerate every consistent assignment of the spec's bindings to
/// element ancestors of `candidate`, handing each to `found`.
///
/// Each assignment lists the binding nodes **deepest-first** (parallel
/// to `spec.rels`); assignments come out ordered by the deepest
/// binding's depth first (ascending), then the next, and so on — which
/// is the build-row order of the replaced scan: outer bindings iterate
/// in document order, and along one root-to-candidate path, document
/// order *is* depth order. The slice is only valid during the call (it
/// is the search's own working buffer).
pub fn matched_assignments(
    doc: &Document,
    candidate: NodeId,
    spec: &AncestorChainSpec,
    found: &mut dyn FnMut(&[NodeId]),
) {
    if spec.rels.is_empty() {
        return;
    }
    // The candidate's strict element ancestors, root-first, and the
    // segment names along them — followed, for an element candidate, by
    // its own name, so that every span up to the candidate is a plain
    // sub-slice. An attribute candidate's name is matched separately.
    let mut spine: Vec<NodeId> = Vec::new();
    let mut cur = doc.parent(candidate);
    while let Some(p) = cur {
        if matches!(doc.kind(p), NodeKind::Element(_)) {
            spine.push(p);
        }
        cur = doc.parent(p);
    }
    spine.reverse();
    let mut seg_names: Vec<&str> = Vec::with_capacity(spine.len() + 1);
    seg_names.extend(
        spine
            .iter()
            .map(|&n| doc.node_name(n).expect("element name")),
    );
    let tail_attr = match doc.kind(candidate) {
        NodeKind::Element(i) => {
            seg_names.push(doc.name(i));
            None
        }
        NodeKind::Attribute(i) => Some(doc.name(i)),
        _ => return,
    };

    // Recursive position search: assign spec binding `level`
    // (deepest-first) to spine positions ≥ `min_pos`, checking the base
    // pattern at level 0 and the inter-binding span otherwise; after the
    // last binding, the final rel must span to the candidate tail.
    let mut assignment: Vec<NodeId> = Vec::with_capacity(spec.rels.len());
    search(
        spec,
        &spine,
        &seg_names,
        tail_attr,
        0,
        0,
        &mut assignment,
        found,
    );
}

#[allow(clippy::too_many_arguments)]
fn search(
    spec: &AncestorChainSpec,
    spine: &[NodeId],
    seg_names: &[&str],
    tail_attr: Option<&str>,
    level: usize,
    min_pos: usize,
    assignment: &mut Vec<NodeId>,
    found: &mut dyn FnMut(&[NodeId]),
) {
    for pos in min_pos..spine.len() {
        let placed_ok = if level == 0 {
            // Deepest binding: its whole label path matches `base`.
            matches_from(&spec.base.steps, &seg_names[..=pos])
        } else {
            // Inter-binding span: segments strictly after the previous
            // binding (which sits at `min_pos - 1`), up to and including
            // this one.
            span_matches(&spec.rels[level - 1].steps, &seg_names[min_pos..=pos], None)
        };
        if !placed_ok {
            continue;
        }
        assignment.push(spine[pos]);
        if level + 1 == spec.rels.len() {
            // Final span: from this binding to the candidate itself.
            if span_matches(&spec.rels[level].steps, &seg_names[pos + 1..], tail_attr) {
                found(assignment);
            }
        } else {
            search(
                spec,
                spine,
                seg_names,
                tail_attr,
                level + 1,
                pos + 1,
                assignment,
                found,
            );
        }
        assignment.pop();
    }
}

/// Match a relative span: the pattern's element steps consume `segs`
/// exactly ([`matches_from`] semantics, anchored at the binding), and a
/// final attribute step — legal only when the span ends at an attribute
/// candidate — must match `attr_tail`.
fn span_matches(steps: &[PatternStep], segs: &[&str], attr_tail: Option<&str>) -> bool {
    match (steps.last(), attr_tail) {
        (Some(PatternStep::Attribute(test)), Some(attr)) => {
            name_matches(test, attr) && matches_from(&steps[..steps.len() - 1], segs)
        }
        (Some(PatternStep::Attribute(_)), None) | (None, _) => false,
        (_, Some(_)) => false, // span ends at an attribute, pattern does not
        (_, None) => matches_from(steps, segs),
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

    fn pat(s: &[PatternStep]) -> PathPattern {
        PathPattern::new(s.to_vec())
    }

    fn desc(n: &str) -> PatternStep {
        PatternStep::Descendant(Some(n.into()))
    }

    fn child(n: &str) -> PatternStep {
        PatternStep::Child(Some(n.into()))
    }

    fn attr(n: &str) -> PatternStep {
        PatternStep::Attribute(Some(n.into()))
    }

    fn matched_assignments(
        d: &Document,
        candidate: NodeId,
        spec: &AncestorChainSpec,
    ) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        super::matched_assignments(d, candidate, spec, &mut |a| out.push(a.to_vec()));
        out
    }

    fn values(d: &Document, nodes: &[NodeId]) -> Vec<String> {
        nodes
            .iter()
            .map(|&n| d.string_value(n).into_owned())
            .collect()
    }

    #[test]
    fn relative_child_and_descendant_steps() {
        let d = doc();
        let root = d.root_element().unwrap();
        let books = eval_relative(&d, root, &pat(&[child("book")]));
        assert_eq!(books.len(), 2);
        let lasts = eval_relative(&d, books[1], &pat(&[desc("last")]));
        assert_eq!(values(&d, &lasts), vec!["B", "C"]);
        let years = eval_relative(&d, books[0], &pat(&[attr("year")]));
        assert_eq!(values(&d, &years), vec!["1994"]);
        // From the document node, absolute patterns work unchanged.
        let all_lasts = eval_relative(&d, NodeId::DOCUMENT, &pat(&[desc("last")]));
        assert_eq!(values(&d, &all_lasts), vec!["A", "B", "C", "D"]);
        assert!(eval_relative(&d, books[0], &pat(&[child("missing")])).is_empty());
    }

    #[test]
    fn relative_results_deduplicate_nested_contexts() {
        let d = parse_document("n.xml", "<a><b><b><c>x</c></b></b></a>").unwrap();
        let root = d.root_element().unwrap();
        // //b//c from <a>: both <b>s reach the same <c>; one result.
        let bs = eval_relative(&d, root, &pat(&[desc("b")]));
        assert_eq!(bs.len(), 2);
        let cs = eval_relative(&d, root, &pat(&[desc("b"), desc("c")]));
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn matched_assignments_single_variable_link() {
        let d = doc();
        let lasts = eval_relative(&d, NodeId::DOCUMENT, &pat(&[desc("last")]));
        // b2 ← //book, key ← b2//last: the article's last has no book
        // ancestor, the others exactly one.
        let spec = AncestorChainSpec {
            base: pat(&[desc("book")]),
            rels: vec![pat(&[desc("last")])],
        };
        let counts: Vec<usize> = lasts
            .iter()
            .map(|&l| matched_assignments(&d, l, &spec).len())
            .collect();
        assert_eq!(counts, vec![1, 1, 1, 0]);
        let first = matched_assignments(&d, lasts[0], &spec);
        assert_eq!(d.node_name(first[0][0]), Some("book"));
    }

    #[test]
    fn matched_assignments_enumerate_nested_anchors_outermost_first() {
        let d = parse_document("nest.xml", "<r><s><s><k>v</k></s></s><s><k>w</k></s></r>").unwrap();
        let ks = eval_relative(&d, NodeId::DOCUMENT, &pat(&[desc("k")]));
        let spec = AncestorChainSpec {
            base: pat(&[desc("s")]),
            rels: vec![pat(&[desc("k")])],
        };
        // v sits under two nested <s>: both assignments, outermost first.
        let a = matched_assignments(&d, ks[0], &spec);
        assert_eq!(a.len(), 2);
        assert!(a[0][0] < a[1][0], "outer anchor enumerates first");
        assert_eq!(matched_assignments(&d, ks[1], &spec).len(), 1);
    }

    #[test]
    fn matched_assignments_two_links_and_attribute_tails() {
        let d = doc();
        // b ← //book, a ← b/author, key ← a/last.
        let lasts = eval_relative(&d, NodeId::DOCUMENT, &pat(&[desc("last")]));
        let spec = AncestorChainSpec {
            base: pat(&[desc("book")]),
            rels: vec![pat(&[child("author")]), pat(&[child("last")])],
        };
        let a = matched_assignments(&d, lasts[0], &spec);
        assert_eq!(a.len(), 1);
        assert_eq!(d.node_name(a[0][0]), Some("book"));
        assert_eq!(d.node_name(a[0][1]), Some("author"));
        // Attribute candidate: b ← //book, key ← b/@year.
        let years = eval_relative(&d, NodeId::DOCUMENT, &pat(&[desc("book"), attr("year")]));
        let spec = AncestorChainSpec {
            base: pat(&[desc("book")]),
            rels: vec![pat(&[attr("year")])],
        };
        for &y in &years {
            assert_eq!(matched_assignments(&d, y, &spec).len(), 1);
        }
        // A mismatching relative pattern yields no assignment.
        let bad = AncestorChainSpec {
            base: pat(&[desc("article")]),
            rels: vec![pat(&[child("last")])],
        };
        assert!(matched_assignments(&d, lasts[0], &bad).is_empty());
    }

    #[test]
    fn nth_parent_walks_and_bounds() {
        let d = doc();
        let lasts = eval_relative(&d, NodeId::DOCUMENT, &pat(&[desc("last")]));
        let author = nth_parent(&d, lasts[0], 1).unwrap();
        assert_eq!(d.node_name(author), Some("author"));
        assert_eq!(nth_parent(&d, lasts[0], 0), Some(lasts[0]));
        assert_eq!(nth_parent(&d, lasts[0], 64), None);
    }
}
