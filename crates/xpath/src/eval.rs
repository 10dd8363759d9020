//! Path evaluation: document order, duplicate-free.

use xmldb::{Document, NodeId, NodeKind};

use crate::ast::{Axis, NameTest, Path, Step};

/// Counters the engine uses for the paper's "number of document scans"
/// argument (§5.1: the nested plan scans the document |author|+1 times).
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCounters {
    /// Number of descendant-axis traversals started from the document node
    /// or the root element — i.e. full document scans.
    pub doc_scans: u64,
    /// Total nodes visited while evaluating steps.
    pub nodes_visited: u64,
}

/// Evaluate `path` over the given context nodes (all from `doc`).
///
/// The context sequence must be in document order and duplicate-free;
/// each step then produces a document-order, duplicate-free result, which
/// is the invariant the NAL operators assume.
pub fn eval_path(
    doc: &Document,
    context: &[NodeId],
    path: &Path,
    counters: &mut EvalCounters,
) -> Vec<NodeId> {
    let mut buffers = PathBuffers::default();
    buffers.eval(doc, context, path, counters);
    buffers.current
}

/// The two node buffers path evaluation alternates between. A caller
/// that evaluates one path per tuple keeps them, so a path costs no
/// allocation once they have grown to the largest step result.
#[derive(Default)]
pub struct PathBuffers {
    current: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl PathBuffers {
    /// [`eval_path`] into the buffers; the result stays valid until the
    /// next call. The first step reads the caller's slice in place,
    /// every later step the previous step's output.
    pub fn eval(
        &mut self,
        doc: &Document,
        context: &[NodeId],
        path: &Path,
        counters: &mut EvalCounters,
    ) -> &[NodeId] {
        match path.steps.split_first() {
            None => {
                self.current.clear();
                self.current.extend_from_slice(context);
            }
            Some((first, rest)) => {
                eval_step(doc, context, first, counters, &mut self.current);
                for step in rest {
                    eval_step(doc, &self.current, step, counters, &mut self.next);
                    std::mem::swap(&mut self.current, &mut self.next);
                }
            }
        }
        &self.current
    }
}

/// A step's name test resolved against one document's interned names,
/// so that testing a node is an integer comparison.
#[derive(Clone, Copy)]
enum IdTest {
    /// `*`.
    Any,
    /// A literal name: its id in the document, or `None` if the document
    /// never interned it — then no node can carry it.
    Id(Option<u32>),
}

impl IdTest {
    fn resolve(test: &NameTest, doc: &Document) -> IdTest {
        match test.literal() {
            None => IdTest::Any,
            Some(name) => IdTest::Id(doc.find_name(name)),
        }
    }

    #[inline]
    fn matches(self, name: u32) -> bool {
        match self {
            IdTest::Any => true,
            IdTest::Id(wanted) => wanted == Some(name),
        }
    }
}

/// One step over an ordered, duplicate-free context, into `out`.
fn eval_step(
    doc: &Document,
    context: &[NodeId],
    step: &Step,
    counters: &mut EvalCounters,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    let test = IdTest::resolve(&step.test, doc);
    for &node in context {
        apply_step(doc, node, step.axis, test, out, counters);
    }
    // Document order == NodeId order. One context node yields its
    // matches in order, each once. Several can interleave (a child or
    // descendant step when one context node contains another) or repeat
    // (a descendant step, same case); then a sort restores the
    // invariant. Strictly ascending output needs neither — the usual
    // case, decided in one pass.
    if context.len() > 1 && !out.windows(2).all(|w| w[0] < w[1]) {
        out.sort_unstable();
        out.dedup();
    }
}

fn apply_step(
    doc: &Document,
    node: NodeId,
    axis: Axis,
    test: IdTest,
    out: &mut Vec<NodeId>,
    counters: &mut EvalCounters,
) {
    match axis {
        Axis::Child => {
            for c in doc.children(node) {
                counters.nodes_visited += 1;
                if let NodeKind::Element(name) = doc.kind(c) {
                    if test.matches(name) {
                        out.push(c);
                    }
                }
            }
        }
        Axis::Descendant => {
            let is_root = node == NodeId::DOCUMENT || Some(node) == doc.root_element();
            if is_root {
                counters.doc_scans += 1;
            }
            for d in doc.descendants(node) {
                counters.nodes_visited += 1;
                if let NodeKind::Element(name) = doc.kind(d) {
                    if test.matches(name) {
                        out.push(d);
                    }
                }
            }
        }
        Axis::Attribute => {
            for a in doc.attributes(node) {
                counters.nodes_visited += 1;
                if let NodeKind::Attribute(name) = doc.kind(a) {
                    if test.matches(name) {
                        out.push(a);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_path;
    use xmldb::parse_document;

    fn doc() -> Document {
        parse_document(
            "t.xml",
            r#"<bib>
                 <book year="1994"><title>T1</title><author><last>A</last></author></book>
                 <book year="2000"><title>T2</title>
                   <author><last>B</last></author>
                   <author><last>C</last></author>
                 </book>
               </bib>"#,
        )
        .unwrap()
    }

    fn eval(d: &Document, path: &str) -> Vec<String> {
        let mut c = EvalCounters::default();
        eval_path(d, &[NodeId::DOCUMENT], &parse_path(path).unwrap(), &mut c)
            .into_iter()
            .map(|n| d.string_value(n).into_owned())
            .collect()
    }

    #[test]
    fn descendant_child_chain() {
        let d = doc();
        assert_eq!(eval(&d, "//book/title"), vec!["T1", "T2"]);
        assert_eq!(eval(&d, "//author/last"), vec!["A", "B", "C"]);
        assert_eq!(eval(&d, "//last"), vec!["A", "B", "C"]);
    }

    #[test]
    fn attribute_axis() {
        let d = doc();
        assert_eq!(eval(&d, "//book/@year"), vec!["1994", "2000"]);
    }

    #[test]
    fn results_are_in_document_order_and_duplicate_free() {
        let d = doc();
        let mut c = EvalCounters::default();
        // Context with nested nodes (document node AND root element):
        // descendants overlap, so dedup matters.
        let root = d.root_element().unwrap();
        let nodes = eval_path(
            &d,
            &[NodeId::DOCUMENT, root],
            &parse_path("//author").unwrap(),
            &mut c,
        );
        assert_eq!(nodes.len(), 3);
        let mut sorted = nodes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(nodes, sorted);
    }

    #[test]
    fn doc_scan_counter() {
        let d = doc();
        let mut c = EvalCounters::default();
        eval_path(
            &d,
            &[NodeId::DOCUMENT],
            &parse_path("//book").unwrap(),
            &mut c,
        );
        assert_eq!(c.doc_scans, 1);
        eval_path(
            &d,
            &[NodeId::DOCUMENT],
            &parse_path("//book").unwrap(),
            &mut c,
        );
        assert_eq!(c.doc_scans, 2);
        // A child step is not a scan.
        let before = c.doc_scans;
        eval_path(
            &d,
            &[NodeId::DOCUMENT],
            &parse_path("/bib").unwrap(),
            &mut c,
        );
        assert_eq!(c.doc_scans, before);
    }

    #[test]
    fn wildcard_matches_all_elements() {
        let d = doc();
        let mut c = EvalCounters::default();
        let all = eval_path(&d, &[NodeId::DOCUMENT], &parse_path("//*").unwrap(), &mut c);
        // bib + 2 book + 2 title + 3 author + 3 last = 11 elements.
        assert_eq!(all.len(), 11);
    }

    #[test]
    fn empty_result_for_missing_names() {
        let d = doc();
        assert!(eval(&d, "//nonexistent").is_empty());
        assert!(eval(&d, "//book/@missing").is_empty());
        // A name the document never interned resolves to no id; the
        // step still walks (and counts) exactly what any other name
        // would.
        assert_eq!(d.find_name("nonexistent"), None);
        let visited = |path: &str| {
            let mut c = EvalCounters::default();
            eval_path(&d, &[NodeId::DOCUMENT], &parse_path(path).unwrap(), &mut c);
            c
        };
        assert_eq!(visited("//nonexistent"), visited("//last"));
        assert_eq!(visited("/bib/nonexistent"), visited("/bib/book"));
    }
}
