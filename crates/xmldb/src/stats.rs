//! Per-document statistics for cost estimation.
//!
//! The rewriter's plan choice ("the most efficient plan should be
//! chosen", §4) needs cardinalities: how many `author` elements, how many
//! `book`s, how many distinct author values. One pre-pass over the
//! document collects them; the `unnest::cost` estimator consumes them.

use std::collections::HashMap;

use crate::document::Document;
use crate::node::{NodeId, NodeKind};

/// Collected statistics of one document.
#[derive(Debug, Clone, Default)]
pub struct DocStats {
    /// Element name → number of occurrences.
    element_counts: HashMap<String, usize>,
    /// Element name → number of *distinct string values*.
    distinct_values: HashMap<String, usize>,
    /// Attribute name → number of occurrences.
    attribute_counts: HashMap<String, usize>,
    /// Total nodes (scan cost unit).
    pub total_nodes: usize,
}

impl DocStats {
    /// One pass over the document.
    pub fn collect(doc: &Document) -> DocStats {
        let mut stats = DocStats::default();
        let mut values: HashMap<String, std::collections::HashSet<String>> = HashMap::new();
        for n in doc.descendants(NodeId::DOCUMENT) {
            stats.total_nodes += 1;
            if let NodeKind::Element(name) = doc.kind(n) {
                let name = doc.name(name).to_string();
                *stats.element_counts.entry(name.clone()).or_insert(0) += 1;
                values
                    .entry(name)
                    .or_default()
                    .insert(doc.string_value(n).into_owned());
                for a in doc.attributes(n) {
                    let aname = doc.node_name(a).expect("attr name").to_string();
                    *stats.attribute_counts.entry(aname).or_insert(0) += 1;
                }
            }
        }
        stats.distinct_values = values.into_iter().map(|(k, v)| (k, v.len())).collect();
        stats
    }

    /// Occurrences of element `name` (0 when absent).
    pub fn elements(&self, name: &str) -> usize {
        self.element_counts.get(name).copied().unwrap_or(0)
    }

    /// Distinct string values of element `name`.
    pub fn distinct(&self, name: &str) -> usize {
        self.distinct_values.get(name).copied().unwrap_or(0)
    }

    /// Occurrences of attribute `name`.
    pub fn attributes(&self, name: &str) -> usize {
        self.attribute_counts.get(name).copied().unwrap_or(0)
    }

    /// Average fan-out of `child` under `parent`.
    ///
    /// When the parent tag is absent the ratio `c / 0` is undefined; a
    /// naive division would return `inf`/`NaN` and poison every cost
    /// estimate built on top. An absent parent means nothing fans out,
    /// so the answer is 0.0 — always finite.
    pub fn avg_fanout(&self, parent: &str, child: &str) -> f64 {
        let p = self.elements(parent);
        let c = self.elements(child);
        if p == 0 {
            0.0
        } else {
            c as f64 / p as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_bib, BibConfig};

    #[test]
    fn counts_match_generator_parameters() {
        let doc = gen_bib(&BibConfig {
            books: 50,
            authors_per_book: 3,
            ..Default::default()
        });
        let stats = DocStats::collect(&doc);
        assert_eq!(stats.elements("book"), 50);
        assert_eq!(stats.elements("author"), 150);
        assert_eq!(stats.elements("title"), 50);
        assert_eq!(stats.elements("bib"), 1);
        assert_eq!(stats.elements("missing"), 0);
        assert_eq!(stats.attributes("year"), 50);
        assert!(stats.total_nodes > 300);
    }

    #[test]
    fn distinct_author_values_bounded_by_pool() {
        let doc = gen_bib(&BibConfig {
            books: 60,
            authors_per_book: 5,
            ..Default::default()
        });
        let stats = DocStats::collect(&doc);
        let d = stats.distinct("author");
        assert!(
            d > 0 && d <= 60,
            "author pool size bounds distinct values, got {d}"
        );
        // Titles are unique by construction.
        assert_eq!(stats.distinct("title"), 60);
    }

    #[test]
    fn fanout_ratios() {
        let doc = gen_bib(&BibConfig {
            books: 40,
            authors_per_book: 4,
            ..Default::default()
        });
        let stats = DocStats::collect(&doc);
        assert!((stats.avg_fanout("book", "author") - 4.0).abs() < 1e-9);
        assert!((stats.avg_fanout("book", "title") - 1.0).abs() < 1e-9);
        // Absent parent: defined (0.0), finite — not a division by zero.
        assert_eq!(stats.avg_fanout("missing", "x"), 0.0);
        assert!(stats.avg_fanout("missing", "author").is_finite());
    }
}
