//! Generator for `bib.xml` (use case XMP, Fig. 5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::document::{Document, DocumentBuilder};
use crate::dtd::Dtd;
use crate::gen::text;

/// The paper's bib DTD, verbatim from Fig. 5.
pub const BIB_DTD: &str = r#"
<!ELEMENT bib (book*)>
<!ELEMENT book (title, (author+ | editor+), publisher, price)>
<!ATTLIST book year CDATA #REQUIRED>
<!ELEMENT author (last, first)>
<!ELEMENT editor (last, first, affiliation)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT last (#PCDATA)>
<!ELEMENT first (#PCDATA)>
<!ELEMENT affiliation (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"#;

/// Parameters for [`gen_bib`].
#[derive(Clone, Debug)]
pub struct BibConfig {
    /// Catalog URI, default `bib.xml`.
    pub uri: String,
    /// Number of `book` elements (Fig. 6: 100 / 1 000 / 10 000).
    pub books: usize,
    /// Authors per book (§5.1 varies 2 / 5 / 10). Also the size of the
    /// author pool divisor: the pool has `books` distinct authors, so each
    /// author writes ≈`authors_per_book` books — the group size of the
    /// grouping experiment.
    pub authors_per_book: usize,
    /// Publication years are drawn uniformly from this inclusive range; the
    /// universal-quantification query of §5.5 filters on `> 1993`.
    pub year_range: (u32, u32),
    /// Deterministic content seed.
    pub seed: u64,
}

impl Default for BibConfig {
    fn default() -> BibConfig {
        BibConfig {
            uri: "bib.xml".into(),
            books: 100,
            authors_per_book: 2,
            year_range: (1990, 2002),
            seed: 0x0b1b,
        }
    }
}

/// Generate a `bib.xml` document.
pub fn gen_bib(cfg: &BibConfig) -> Document {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = DocumentBuilder::new(cfg.uri.clone());
    b.set_dtd(Dtd::parse_internal_subset("bib", BIB_DTD).expect("static DTD parses"));

    let pool = cfg.books.max(1);
    let k = cfg.authors_per_book.max(1).min(pool);

    b.start_element("bib");
    for i in 0..cfg.books {
        b.start_element("book");
        let year = rng.gen_range(cfg.year_range.0..=cfg.year_range.1);
        b.attribute("year", &year.to_string());
        b.leaf("title", &text::title(i));
        // k distinct authors from the pool, in random order. Floyd's
        // algorithm keeps this O(k) regardless of pool size.
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in (pool - k)..pool {
            let t = rng.gen_range(0..=j);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        for &a in &chosen {
            b.start_element("author");
            b.leaf("last", &text::last_name(a));
            b.leaf("first", &text::first_name(a));
            b.end_element();
        }
        b.leaf("publisher", text::publisher(i));
        b.leaf("price", &text::price(i, 0x0b00c));
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
    fn counts_match_config() {
        let d = gen_bib(&BibConfig {
            books: 25,
            authors_per_book: 3,
            ..BibConfig::default()
        });
        let root = d.root_element().unwrap();
        let books: Vec<_> = d.children(root).collect();
        assert_eq!(books.len(), 25);
        for &bk in &books {
            let authors = d
                .children(bk)
                .filter(|&c| d.node_name(c) == Some("author"))
                .count();
            assert_eq!(authors, 3);
            assert!(d.attribute(bk, "year").is_some());
            let names: Vec<_> = d
                .children(bk)
                .filter_map(|c| d.node_name(c).map(str::to_string))
                .collect();
            assert_eq!(names[0], "title");
            assert_eq!(*names.last().unwrap(), "price");
        }
    }

    #[test]
    fn authors_within_a_book_are_distinct() {
        let d = gen_bib(&BibConfig {
            books: 50,
            authors_per_book: 10,
            ..BibConfig::default()
        });
        let root = d.root_element().unwrap();
        for bk in d.children(root) {
            let vals: Vec<String> = d
                .children(bk)
                .filter(|&c| d.node_name(c) == Some("author"))
                .map(|a| d.string_value(a).into_owned())
                .collect();
            let set: HashSet<_> = vals.iter().collect();
            assert_eq!(set.len(), vals.len(), "duplicate author in one book");
        }
    }

    #[test]
    fn dtd_is_attached() {
        let d = gen_bib(&BibConfig::default());
        let dtd = d.dtd().unwrap();
        assert!(dtd.element("book").is_some());
        assert_eq!(dtd.doctype, "bib");
    }

    #[test]
    fn years_in_range() {
        let d = gen_bib(&BibConfig {
            books: 40,
            ..BibConfig::default()
        });
        let root = d.root_element().unwrap();
        for bk in d.children(root) {
            let y: u32 = d.text(d.attribute(bk, "year").unwrap()).parse().unwrap();
            assert!((1990..=2002).contains(&y));
        }
    }
}
