//! XML serialization of documents and subtrees.
//!
//! Also used by the Ξ result-construction operator to print node values,
//! and by the Fig. 6 experiment to measure generated document sizes.

use std::fmt::Write as _;

use crate::document::Document;
use crate::node::{NodeId, NodeKind};

/// Append `s` to `out`, replacing each character `entity` names by its
/// entity; the stretches in between are copied whole.
fn escape_into(s: &str, out: &mut String, entity: impl Fn(char) -> Option<&'static str>) {
    let mut rest = s;
    while let Some((at, e)) = rest
        .char_indices()
        .find_map(|(i, c)| entity(c).map(|e| (i, e)))
    {
        out.push_str(&rest[..at]);
        out.push_str(e);
        // Every escaped character is one byte of ASCII.
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Escape character data (`&`, `<`, `>`).
pub fn escape_text(s: &str, out: &mut String) {
    escape_into(s, out, |c| match c {
        '&' => Some("&amp;"),
        '<' => Some("&lt;"),
        '>' => Some("&gt;"),
        _ => None,
    });
}

/// Escape an attribute value (also quotes).
pub fn escape_attr(s: &str, out: &mut String) {
    escape_into(s, out, |c| match c {
        '&' => Some("&amp;"),
        '<' => Some("&lt;"),
        '"' => Some("&quot;"),
        _ => None,
    });
}

/// Serialize the subtree rooted at `node` (the node itself included) into
/// `out`. Elements serialize as markup, text/attribute nodes as their
/// (escaped) content, the document node as its children.
pub fn serialize_node(doc: &Document, node: NodeId, out: &mut String) {
    match doc.kind(node) {
        NodeKind::Document => {
            for c in doc.children(node) {
                serialize_node(doc, c, out);
            }
        }
        NodeKind::Element(name) => {
            let name = doc.name(name);
            out.push('<');
            out.push_str(name);
            for a in doc.attributes(node) {
                out.push(' ');
                out.push_str(doc.node_name(a).expect("attribute has a name"));
                out.push_str("=\"");
                escape_attr(doc.text(a), out);
                out.push('"');
            }
            let mut has_children = false;
            for c in doc.children(node) {
                if !has_children {
                    out.push('>');
                    has_children = true;
                }
                serialize_node(doc, c, out);
            }
            if has_children {
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            } else {
                out.push_str("/>");
            }
        }
        NodeKind::Text => escape_text(doc.text(node), out),
        NodeKind::Attribute(_) => escape_text(doc.text(node), out),
    }
}

/// Serialize a whole document (no XML declaration, no DTD).
pub fn serialize_document(doc: &Document) -> String {
    let mut out = String::new();
    serialize_node(doc, NodeId::DOCUMENT, &mut out);
    out
}

/// Approximate on-disk size of the document in bytes, serialized without
/// DTD, with two-space pretty indentation — used by the Fig. 6 table.
pub fn document_size_bytes(doc: &Document) -> usize {
    serialize_pretty(doc).len()
}

/// Pretty-printed serialization: children on separate, indented lines
/// (text-only elements stay on one line). This approximates what ToXgene
/// writes and is what we measure for Fig. 6.
pub fn serialize_pretty(doc: &Document) -> String {
    let mut out = String::new();
    for c in doc.children(NodeId::DOCUMENT) {
        pretty_node(doc, c, 0, &mut out);
    }
    out
}

fn is_text_only(doc: &Document, node: NodeId) -> bool {
    doc.children(node).all(|c| doc.kind(c).is_text())
}

fn pretty_node(doc: &Document, node: NodeId, depth: usize, out: &mut String) {
    match doc.kind(node) {
        NodeKind::Element(name) => {
            let name = doc.name(name);
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push('<');
            out.push_str(name);
            for a in doc.attributes(node) {
                let aname = doc.node_name(a).expect("attribute has a name");
                let _ = write!(out, " {aname}=\"");
                escape_attr(doc.text(a), out);
                out.push('"');
            }
            if doc.first_child(node).is_none() {
                out.push_str("/>\n");
            } else if is_text_only(doc, node) {
                out.push('>');
                for c in doc.children(node) {
                    escape_text(doc.text(c), out);
                }
                let _ = writeln!(out, "</{name}>");
            } else {
                out.push_str(">\n");
                for c in doc.children(node) {
                    pretty_node(doc, c, depth + 1, out);
                }
                for _ in 0..depth {
                    out.push_str("  ");
                }
                let _ = writeln!(out, "</{name}>");
            }
        }
        NodeKind::Text => {
            for _ in 0..depth {
                out.push_str("  ");
            }
            escape_text(doc.text(node), out);
            out.push('\n');
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn roundtrip_compact() {
        let src = r#"<bib><book year="1994"><title>A &amp; B</title><note/></book></bib>"#;
        let d = parse_document("t.xml", src).unwrap();
        assert_eq!(serialize_document(&d), src);
    }

    #[test]
    fn parse_serialize_parse_is_stable() {
        let src = "<a x=\"1&amp;2\"><b>t1</b><b>t&lt;2</b><c/></a>";
        let d1 = parse_document("t.xml", src).unwrap();
        let s1 = serialize_document(&d1);
        let d2 = parse_document("t.xml", &s1).unwrap();
        assert_eq!(s1, serialize_document(&d2));
    }

    #[test]
    fn pretty_has_indentation() {
        let d = parse_document("t.xml", "<a><b><c>x</c></b></a>").unwrap();
        let p = serialize_pretty(&d);
        assert!(p.contains("\n  <b>"), "{p}");
        assert!(p.contains("\n    <c>x</c>"), "{p}");
        assert!(document_size_bytes(&d) == p.len());
    }

    #[test]
    fn subtree_serialization() {
        let d = parse_document("t.xml", "<a><b>x</b><b>y</b></a>").unwrap();
        let a = d.root_element().unwrap();
        let b2 = d.children(a).nth(1).unwrap();
        let mut out = String::new();
        serialize_node(&d, b2, &mut out);
        assert_eq!(out, "<b>y</b>");
    }
}
