//! DTD-driven provenance analysis.
//!
//! Equivalences 3, 5, 8, and 9 carry the semantic side condition
//! `e1 = Π^D_{A1:A2}(Π_{A2}(e2))`: the outer sequence must be *exactly*
//! the distinct values of the inner column. This is undecidable in
//! general; the paper discharges it with DTD knowledge ("this is the case
//! for the DTD given in the use case document. However, it is not true
//! for DBLP's DTD", §5.1). This module does the same:
//!
//! 1. [`value_descriptor`] / [`column_path`] reduce expressions and
//!    columns to *provenance descriptors* — "the (distinct values of the)
//!    nodes selected by path P in document D". Anything that cannot be
//!    reduced (selections on the way, non-path computations, …) yields
//!    `None` and the rewrite is declined.
//! 2. [`values_match`] proves two descriptors denote the same distinct
//!    value set, using [`xmldb::SchemaFacts`]: two paths select the same
//!    value set if each provably selects **all** occurrences of the same
//!    final element (e.g. `//author` vs. `//book/author` when `author`
//!    occurs only under `book`).
//!
//! Order note: both sides enumerate the same document in document order,
//! so their first-occurrence `Π^D` orders coincide — which is what makes
//! the rewritten plans byte-compatible with the nested ones.

use nal::expr::ProjOp;
use nal::{Expr, Scalar, Sym};
use xmldb::{Catalog, SchemaFacts};
use xpath::{Axis, Path};

/// Provenance of a sequence of single values.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValueDescriptor {
    /// The distinct atomized values of the nodes selected by `path` in
    /// document `uri` (first-occurrence order) — the shape
    /// `distinct-values(doc(uri)path)` produces.
    DistinctValues {
        /// The source document URI.
        uri: String,
        /// The selecting path.
        path: Path,
    },
    /// The nodes selected by `path` in `uri`, in document order,
    /// duplicate-free *as nodes* (values may repeat).
    Nodes {
        /// The source document URI.
        uri: String,
        /// The selecting path.
        path: Path,
    },
}

impl ValueDescriptor {
    /// The source document URI.
    pub fn uri(&self) -> &str {
        match self {
            ValueDescriptor::DistinctValues { uri, .. } | ValueDescriptor::Nodes { uri, .. } => uri,
        }
    }

    /// The selecting path.
    pub fn path(&self) -> &Path {
        match self {
            ValueDescriptor::DistinctValues { path, .. } | ValueDescriptor::Nodes { path, .. } => {
                path
            }
        }
    }

    /// `true` iff the sequence is provably duplicate-free *as values* —
    /// required of `e1` by the Eqv. 3/5/8/9 conditions.
    pub fn value_distinct(&self) -> bool {
        matches!(self, ValueDescriptor::DistinctValues { .. })
    }
}

/// Descriptor of the single data column of an expression producing
/// single-attribute-relevant tuples: `col` must trace back to a
/// document-rooted path without intervening selections.
pub fn value_descriptor(e: &Expr, col: Sym) -> Option<ValueDescriptor> {
    match e {
        Expr::Project { input, op } => {
            let inner_col = match op {
                ProjOp::Cols(cols) | ProjOp::DistinctCols(cols) => {
                    cols.contains(&col).then_some(col)?
                }
                ProjOp::Drop(cols) => (!cols.contains(&col)).then_some(col)?,
                ProjOp::Rename(pairs) | ProjOp::DistinctRename(pairs) => pairs
                    .iter()
                    .find(|(new, _)| *new == col)
                    .map(|(_, old)| *old)
                    .unwrap_or(col),
            };
            let d = value_descriptor(input, inner_col)?;
            // A distinct projection on the column upgrades nodes to
            // distinct values.
            match op {
                ProjOp::DistinctCols(_) | ProjOp::DistinctRename(_) => {
                    Some(ValueDescriptor::DistinctValues {
                        uri: d.uri().to_string(),
                        path: d.path().clone(),
                    })
                }
                _ => Some(d),
            }
        }
        Expr::UnnestMap { input, attr, value } if *attr == col => scalar_descriptor(value, input),
        Expr::UnnestMap { input, attr, .. } if *attr != col => value_descriptor(input, col),
        Expr::Map { input, attr, value } => {
            if *attr == col {
                scalar_descriptor(value, input)
            } else {
                value_descriptor(input, col)
            }
        }
        // Selections filter the value set; joins/groupings change
        // multiplicities in ways we do not track. Decline.
        _ => None,
    }
}

/// Resolve a scalar evaluated over `input`'s tuples to a descriptor:
/// `Attr(v)path`, with `v` itself resolving to a document-rooted path,
/// possibly wrapped in `distinct-values` or an `e[a]` lift (whose
/// *inner* values we describe).
pub(crate) fn scalar_descriptor(s: &Scalar, input: &Expr) -> Option<ValueDescriptor> {
    match s {
        Scalar::DistinctItems(inner) => {
            let d = scalar_descriptor(inner, input)?;
            Some(ValueDescriptor::DistinctValues {
                uri: d.uri().to_string(),
                path: d.path().clone(),
            })
        }
        // e[a]: the nested attribute holds the items of the inner path.
        Scalar::Lift(inner, _) => scalar_descriptor(inner, input),
        Scalar::Path(base, p) => {
            let d = scalar_descriptor(base, input)?;
            Some(match d {
                ValueDescriptor::Nodes { uri, path } => ValueDescriptor::Nodes {
                    uri,
                    path: path.join(p),
                },
                // A path step over already-atomized values is ill-typed.
                ValueDescriptor::DistinctValues { .. } => return None,
            })
        }
        Scalar::Doc(uri) => Some(ValueDescriptor::Nodes {
            uri: uri.clone(),
            path: Path::default(),
        }),
        Scalar::Attr(v) => value_descriptor(input, *v),
        _ => None,
    }
}

/// Descriptor of column `col` of `e2` — alias of [`value_descriptor`]
/// named for the Eqv. 3/5 usage where it describes the inner side.
pub fn column_path(e2: &Expr, col: Sym) -> Option<ValueDescriptor> {
    value_descriptor(e2, col)
}

/// Prove that two descriptors denote the same *distinct value set*.
pub fn values_match(catalog: &Catalog, d1: &ValueDescriptor, d2: &ValueDescriptor) -> bool {
    if d1.uri() != d2.uri() {
        return false;
    }
    if d1.path() == d2.path() {
        return true;
    }
    let Some(doc) = catalog.doc_by_uri(d1.uri()) else {
        return false;
    };
    let Some(facts) = doc.schema_facts() else {
        return false; // no schema — cannot prove anything
    };
    match (selects_all(facts, d1.path()), selects_all(facts, d2.path())) {
        (Some(t1), Some(t2)) => t1 == t2,
        _ => false,
    }
}

/// The "target" a path selects: a final element name, optionally an
/// attribute on it.
#[derive(PartialEq, Eq, Debug)]
struct Target {
    element: String,
    attribute: Option<String>,
}

/// If `path` provably selects **all** reachable occurrences of its target
/// (element, or attribute on an element), return the target.
///
/// Supported shapes (all the paper's queries fit):
///
/// * `//N0/N1/…/Nk[/@a]` — a leading descendant step followed by child
///   steps: selects all `Nk` iff every `Ni` occurs only under `N(i-1)`
///   for i ≥ 1.
/// * `/R/N1/…/Nk[/@a]` — absolute child chain from the document node:
///   requires `R` to be the DTD root and the same only-under chain.
fn selects_all(facts: &SchemaFacts, path: &Path) -> Option<Target> {
    let steps = &path.steps;
    if steps.is_empty() {
        return None;
    }
    // Split off a final attribute step.
    let (elem_steps, attribute) = match steps.last() {
        Some(s) if s.axis == Axis::Attribute => (
            &steps[..steps.len() - 1],
            Some(s.test.literal()?.to_string()),
        ),
        _ => (&steps[..], None),
    };
    if elem_steps.is_empty() {
        return None;
    }
    // First step: descendant (anchored anywhere) or child of the DTD root.
    let first = &elem_steps[0];
    let first_name = first.test.literal()?;
    match first.axis {
        Axis::Descendant => {}
        Axis::Child => {
            if first_name != facts.root() {
                return None;
            }
        }
        Axis::Attribute => return None,
    }
    // Remaining steps must be child steps forming an only-under chain.
    let mut parent = first_name;
    for step in &elem_steps[1..] {
        if step.axis != Axis::Child {
            return None;
        }
        let name = step.test.literal()?;
        if !facts.occurs_only_under(name, parent) {
            return None;
        }
        parent = name;
    }
    // For the descendant-anchored case with a chain, the chain carries the
    // proof; for a bare `//X` every reachable X is selected trivially. For
    // the absolute case the root anchor does the same. One more check for
    // the attribute: it must actually be declared on the final element.
    if !facts.reachable(parent) {
        return None;
    }
    if let Some(a) = &attribute {
        if !facts.attribute_owners(a).contains(parent) {
            return None;
        }
    }
    Some(Target {
        element: parent.to_string(),
        attribute,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::Scalar;
    use xmldb::gen::{gen_bib, gen_dblp, BibConfig, DblpConfig};
    use xpath::parse_path;

    fn bib_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(gen_bib(&BibConfig {
            books: 5,
            ..BibConfig::default()
        }));
        cat
    }

    fn p(s: &str) -> Path {
        parse_path(s).unwrap()
    }

    #[test]
    fn descriptor_of_distinct_author_scan() {
        // Υ_{a1:ΠD(d1//author)}(χ_{d1:doc}(□)) — the e1 of §5.1.
        let e1 = doc_scan("d1", "bib.xml")
            .unnest_map("a1", Scalar::attr("d1").path(p("//author")).distinct());
        let d = value_descriptor(&e1, Sym::new("a1")).unwrap();
        assert_eq!(
            d,
            ValueDescriptor::DistinctValues {
                uri: "bib.xml".into(),
                path: p("//author")
            }
        );
        assert!(d.value_distinct());
    }

    #[test]
    fn descriptor_traces_through_chained_paths_and_projections() {
        // e2's a2 column: χ_{a2:b2/author[a2']}(Υ_{b2:d2//book}(χ_{d2:doc}(□)))
        let e2 = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .map("a2", Scalar::attr("b2").path(p("/author")).lift("a2x"))
            .project(&["a2"]);
        let d = value_descriptor(&e2, Sym::new("a2")).unwrap();
        assert_eq!(
            d,
            ValueDescriptor::Nodes {
                uri: "bib.xml".into(),
                path: p("//book/author")
            }
        );
        assert!(!d.value_distinct());
    }

    #[test]
    fn selections_block_descriptors() {
        let e = doc_scan("d1", "bib.xml")
            .unnest_map("b1", Scalar::attr("d1").path(p("//book")))
            .select(Scalar::attr("b1"))
            .project(&["b1"]);
        assert_eq!(value_descriptor(&e, Sym::new("b1")), None);
    }

    #[test]
    fn bib_author_paths_match() {
        // distinct(//author) vs //book/author under the bib DTD: equal.
        let cat = bib_catalog();
        let d1 = ValueDescriptor::DistinctValues {
            uri: "bib.xml".into(),
            path: p("//author"),
        };
        let d2 = ValueDescriptor::Nodes {
            uri: "bib.xml".into(),
            path: p("//book/author"),
        };
        assert!(values_match(&cat, &d1, &d2));
        // And syntactically equal paths always match.
        assert!(values_match(&cat, &d2, &d2.clone()));
    }

    #[test]
    fn dblp_author_paths_do_not_match() {
        // The §5.1 pitfall: authors occur under several publication kinds.
        let mut cat = Catalog::new();
        cat.register(gen_dblp(&DblpConfig::default()));
        let d1 = ValueDescriptor::DistinctValues {
            uri: "dblp.xml".into(),
            path: p("//author"),
        };
        let d2 = ValueDescriptor::Nodes {
            uri: "dblp.xml".into(),
            path: p("//book/author"),
        };
        assert!(!values_match(&cat, &d1, &d2));
    }

    #[test]
    fn different_documents_never_match() {
        let cat = bib_catalog();
        let d1 = ValueDescriptor::Nodes {
            uri: "bib.xml".into(),
            path: p("//author"),
        };
        let d2 = ValueDescriptor::Nodes {
            uri: "other.xml".into(),
            path: p("//author"),
        };
        assert!(!values_match(&cat, &d1, &d2));
    }

    #[test]
    fn longer_chains_require_full_only_under_proof() {
        let cat = bib_catalog();
        // //last vs //author/last: `last` also occurs under editor → no proof.
        let d1 = ValueDescriptor::Nodes {
            uri: "bib.xml".into(),
            path: p("//last"),
        };
        let d2 = ValueDescriptor::Nodes {
            uri: "bib.xml".into(),
            path: p("//author/last"),
        };
        assert!(!values_match(&cat, &d1, &d2));
        // //title vs //book/title: title occurs only under book → proof.
        let t1 = ValueDescriptor::Nodes {
            uri: "bib.xml".into(),
            path: p("//title"),
        };
        let t2 = ValueDescriptor::Nodes {
            uri: "bib.xml".into(),
            path: p("//book/title"),
        };
        assert!(values_match(&cat, &t1, &t2));
    }

    #[test]
    fn attribute_targets() {
        let cat = bib_catalog();
        let d1 = ValueDescriptor::Nodes {
            uri: "bib.xml".into(),
            path: p("//book/@year"),
        };
        let d2 = ValueDescriptor::Nodes {
            uri: "bib.xml".into(),
            path: p("/bib/book/@year"),
        };
        assert!(values_match(&cat, &d1, &d2));
    }
}
