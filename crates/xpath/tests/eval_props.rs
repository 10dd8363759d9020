//! `eval_path` against the formulation it replaced — copy the context,
//! apply each step to every node, sort and dedup after every step — on
//! random documents whose elements nest under their own names, so
//! multi-node and *nested* contexts (the one case that really needs the
//! sort and the dedup) occur all the time. Results and `EvalCounters`
//! must be identical.

use proptest::prelude::*;

use xmldb::{Document, DocumentBuilder, NodeId, NodeKind};
use xpath::{eval_path, Axis, EvalCounters, NameTest, Path, PathBuffers, Step};

const NAMES: [&str; 3] = ["s", "k", "v"];

/// Build a document from a shape: each entry opens an element (name by
/// `pick % 3`), gives it an attribute and/or a text child by the higher
/// bits, then closes `closes` open elements — so depth, nesting of equal
/// names and mixed content all vary.
fn build_doc(shape: &[(u32, u32)]) -> Document {
    let mut b = DocumentBuilder::new("prop.xml");
    b.start_element("r");
    let mut depth = 0u32;
    for &(pick, closes) in shape {
        b.start_element(NAMES[pick as usize % 3]);
        depth += 1;
        if pick & 4 != 0 {
            b.attribute("k", &pick.to_string());
        }
        if pick & 8 != 0 {
            b.text("t");
        }
        for _ in 0..closes.min(depth) {
            b.end_element();
            depth -= 1;
        }
    }
    for _ in 0..=depth {
        b.end_element();
    }
    b.finish()
}

fn path_of(steps: &[(u32, u32)]) -> Path {
    Path::new(
        steps
            .iter()
            .map(|&(axis, name)| Step {
                axis: [Axis::Child, Axis::Descendant, Axis::Attribute][axis as usize % 3],
                test: match name % 4 {
                    3 => NameTest::Any,
                    n => NameTest::Name(NAMES[n as usize].to_string()),
                },
            })
            .collect(),
    )
}

/// The replaced formulation, written against the document API alone.
fn reference(
    doc: &Document,
    context: &[NodeId],
    path: &Path,
    counters: &mut EvalCounters,
) -> Vec<NodeId> {
    let mut current = context.to_vec();
    for step in &path.steps {
        let mut next = Vec::new();
        for &node in &current {
            let (candidates, want_attr): (Vec<NodeId>, bool) = match step.axis {
                Axis::Child => (doc.children(node).collect(), false),
                Axis::Attribute => (doc.attributes(node).collect(), true),
                Axis::Descendant => {
                    if node == NodeId::DOCUMENT || Some(node) == doc.root_element() {
                        counters.doc_scans += 1;
                    }
                    (doc.descendants(node).collect(), false)
                }
            };
            for c in candidates {
                counters.nodes_visited += 1;
                let name = match doc.kind(c) {
                    NodeKind::Element(i) if !want_attr => doc.name(i),
                    NodeKind::Attribute(i) if want_attr => doc.name(i),
                    _ => continue,
                };
                if step.test.matches(name) {
                    next.push(c);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        current = next;
    }
    current
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn eval_path_equals_copy_sort_dedup(
        shape in prop::collection::vec((0u32..16, 0u32..3), 1..40),
        context_name in 0u32..4,
        steps in prop::collection::vec((0u32..3, 0u32..4), 0..4),
        more_steps in prop::collection::vec((0u32..3, 0u32..4), 1..3),
    ) {
        let doc = build_doc(&shape);
        let path = path_of(&steps);
        // Contexts: the document node; every element of one name, in
        // document order — nested wherever that name nests; all elements.
        let named: Vec<NodeId> = doc
            .descendants(NodeId::DOCUMENT)
            .filter(|&n| match doc.kind(n) {
                NodeKind::Element(i) => context_name == 3 || doc.name(i) == NAMES[context_name as usize],
                _ => false,
            })
            .collect();
        let mut buffers = PathBuffers::default();
        for context in [&[NodeId::DOCUMENT][..], &named[..]] {
            let (mut got_c, mut want_c) = (EvalCounters::default(), EvalCounters::default());
            let got = eval_path(&doc, context, &path, &mut got_c);
            let want = reference(&doc, context, &path, &mut want_c);
            prop_assert_eq!(&got, &want, "path {} over {} context nodes", path, context.len());
            prop_assert_eq!(got_c, want_c);
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "document order, duplicate-free");
            // Reused buffers carry nothing over from an earlier path.
            let mut c = EvalCounters::default();
            buffers.eval(&doc, context, &path_of(&more_steps), &mut c);
            let mut c = EvalCounters::default();
            prop_assert_eq!(buffers.eval(&doc, context, &path, &mut c), &want[..]);
            prop_assert_eq!(c, want_c);
        }
    }
}
