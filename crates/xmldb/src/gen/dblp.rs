//! Generator for a DBLP-like bibliography.
//!
//! §5.1 runs the grouping query against the real DBLP database (~140 MB)
//! and makes two points:
//!
//! 1. at that scale the nested plan is catastrophically slow (a week vs.
//!    14 seconds), and
//! 2. Eqv. 5 is **not** applicable, because DBLP contains authors that
//!    never wrote a `book` — so `distinct-values(//author)` is not the
//!    distinct author list of `//book`, and only the general outer-join
//!    plan (Eqv. 4) is sound. This is exactly the precondition missed by
//!    Paparizos et al. \[31\].
//!
//! We do not have DBLP, so this generator produces a document with the
//! same two properties at a configurable scale: publications of several
//! kinds (`article`, `inproceedings`, `book`, `phdthesis`), each with
//! `author+`, `title`, `year` — with only a fraction being books.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::document::{Document, DocumentBuilder};
use crate::dtd::Dtd;
use crate::gen::text;

/// DTD of the DBLP-like document. Note `author` occurs under four
/// different publication kinds — `SchemaFacts::occurs_only_under("author",
/// "book")` is false, which makes the rewriter refuse Eqv. 5.
pub const DBLP_DTD: &str = r#"
<!ELEMENT dblp ((article | inproceedings | book | phdthesis)*)>
<!ELEMENT article (author+, title, year)>
<!ELEMENT inproceedings (author+, title, year)>
<!ELEMENT book (author+, title, year)>
<!ELEMENT phdthesis (author, title, year)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT year (#PCDATA)>
"#;

/// Parameters for [`gen_dblp`].
#[derive(Clone, Debug)]
pub struct DblpConfig {
    /// Catalog URI of the generated document.
    pub uri: String,
    /// Total number of publications of all kinds.
    pub publications: usize,
    /// Fraction of publications that are books, in percent (default 10).
    pub book_percent: u32,
    /// Size of the author pool.
    pub authors: usize,
    /// Deterministic content seed.
    pub seed: u64,
}

impl Default for DblpConfig {
    fn default() -> DblpConfig {
        DblpConfig {
            uri: "dblp.xml".into(),
            publications: 1000,
            book_percent: 10,
            authors: 400,
            seed: 0xdb1b,
        }
    }
}

/// Generate a DBLP-like document.
pub fn gen_dblp(cfg: &DblpConfig) -> Document {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = DocumentBuilder::new(cfg.uri.clone());
    b.set_dtd(Dtd::parse_internal_subset("dblp", DBLP_DTD).expect("static DTD parses"));
    let pool = cfg.authors.max(2);
    b.start_element("dblp");
    for i in 0..cfg.publications {
        let kind = if rng.gen_range(0..100) < cfg.book_percent {
            "book"
        } else {
            ["article", "inproceedings", "phdthesis"][rng.gen_range(0..3)]
        };
        b.start_element(kind);
        let n_authors = if kind == "phdthesis" {
            1
        } else {
            rng.gen_range(1..=3)
        };
        for _ in 0..n_authors {
            b.leaf("author", &text::full_name(rng.gen_range(0..pool)));
        }
        b.leaf("title", &text::title(i));
        b.leaf("year", &rng.gen_range(1985..=2003).to_string());
        b.end_element();
    }
    b.end_element();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn contains_authors_without_books() {
        let d = gen_dblp(&DblpConfig {
            publications: 500,
            ..DblpConfig::default()
        });
        let root = d.root_element().unwrap();
        let mut all_authors = HashSet::new();
        let mut book_authors = HashSet::new();
        for p in d.children(root) {
            let is_book = d.node_name(p) == Some("book");
            for c in d.children(p) {
                if d.node_name(c) == Some("author") {
                    let v = d.string_value(c);
                    if is_book {
                        book_authors.insert(v.clone());
                    }
                    all_authors.insert(v);
                }
            }
        }
        assert!(
            book_authors.len() < all_authors.len(),
            "some authors must have no book for the Eqv. 5 pitfall to manifest"
        );
        assert!(!book_authors.is_empty(), "but some books must exist");
    }

    #[test]
    fn schema_facts_refuse_only_under_book() {
        let d = gen_dblp(&DblpConfig::default());
        let facts = d.schema_facts().unwrap();
        assert!(!facts.occurs_only_under("author", "book"));
    }

    #[test]
    fn publication_count() {
        let d = gen_dblp(&DblpConfig {
            publications: 123,
            ..DblpConfig::default()
        });
        let root = d.root_element().unwrap();
        assert_eq!(d.children(root).count(), 123);
    }
}
