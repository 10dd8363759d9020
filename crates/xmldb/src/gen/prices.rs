//! Generator for `prices.xml` (use case XMP, Fig. 5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::document::{Document, DocumentBuilder};
use crate::dtd::Dtd;
use crate::gen::text;

/// The paper's prices DTD, verbatim from Fig. 5.
pub const PRICES_DTD: &str = r#"
<!ELEMENT prices (book*)>
<!ELEMENT book (title, source, price)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT source (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"#;

const SOURCES: [&str; 3] = [
    "bstore1.example.com",
    "bstore2.example.com",
    "bstore3.example.com",
];

/// Parameters for [`gen_prices`].
#[derive(Clone, Debug)]
pub struct PricesConfig {
    /// Catalog URI of the generated document.
    pub uri: String,
    /// Total number of `book` (price entry) elements. Every
    /// `sources_per_title` consecutive entries share a title, so the
    /// min-price aggregation of §5.2 has real groups to reduce.
    pub entries: usize,
    /// Consecutive entries sharing one title (price sources per title).
    pub sources_per_title: usize,
    /// Deterministic content seed.
    pub seed: u64,
}

impl Default for PricesConfig {
    fn default() -> PricesConfig {
        PricesConfig {
            uri: "prices.xml".into(),
            entries: 100,
            sources_per_title: 3,
            seed: 0x9a1e,
        }
    }
}

/// Generate a `prices.xml` document. Titles come from the shared pool
/// (`text::title`), so they join with `bib.xml` titles.
pub fn gen_prices(cfg: &PricesConfig) -> Document {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = DocumentBuilder::new(cfg.uri.clone());
    b.set_dtd(Dtd::parse_internal_subset("prices", PRICES_DTD).expect("static DTD parses"));
    let spt = cfg.sources_per_title.max(1);
    b.start_element("prices");
    for i in 0..cfg.entries {
        let title_idx = i / spt;
        b.start_element("book");
        b.leaf("title", &text::title(title_idx));
        b.leaf("source", SOURCES[i % SOURCES.len()]);
        // Each source quotes an independent price.
        b.leaf("price", &text::price(i, 0x50c1 ^ (rng.gen::<u64>() % 7)));
        b.end_element();
    }
    b.end_element();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_count_and_shape() {
        let d = gen_prices(&PricesConfig {
            entries: 30,
            ..PricesConfig::default()
        });
        let root = d.root_element().unwrap();
        let entries: Vec<_> = d.children(root).collect();
        assert_eq!(entries.len(), 30);
        for &e in &entries {
            let names: Vec<_> = d
                .children(e)
                .filter_map(|c| d.node_name(c).map(str::to_string))
                .collect();
            assert_eq!(names, vec!["title", "source", "price"]);
        }
    }

    #[test]
    fn titles_repeat_across_sources() {
        let d = gen_prices(&PricesConfig {
            entries: 9,
            sources_per_title: 3,
            ..Default::default()
        });
        let root = d.root_element().unwrap();
        let titles: Vec<String> = d
            .children(root)
            .map(|e| d.string_value(d.children(e).next().unwrap()).into_owned())
            .collect();
        assert_eq!(titles[0], titles[1]);
        assert_eq!(titles[1], titles[2]);
        assert_ne!(titles[2], titles[3]);
        // Shared pool: joins with bib titles.
        assert_eq!(titles[0], text::title(0));
    }
}
