//! Schema facts derived from a DTD.
//!
//! The rewriter (crate `unnest`) needs to discharge conditions like
//!
//! * *"there are no `author` elements other than those directly under
//!   `book` elements"* (Eqv. 5 applicability, §5.1),
//! * *"every `book` element has exactly one `title` child"* (so `=` can be
//!   used instead of `∈` during translation, §5.2),
//! * *"`itemno` elements appear only directly beneath `bidtuple`
//!   elements"* (Eqv. 3 applicability, §5.6).
//!
//! [`SchemaFacts`] answers exactly those questions from a parsed [`Dtd`].
//! The analysis is *conservative*: when a fact cannot be established the
//! answer is "no", which makes the rewriter skip an equivalence rather
//! than produce an unsound plan. This is precisely the safeguard whose
//! absence in Paparizos et al. the paper criticizes (DBLP has authors that
//! never wrote a book, so `distinct-values(//author)` is **not** the same
//! sequence as the distinct authors of `//book`).

use std::collections::{BTreeMap, BTreeSet};

use crate::dtd::{ContentParticle, ContentSpec, Dtd, Repetition};

/// How often a child element can occur inside one instance of a parent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Occurrence {
    /// Minimum number of occurrences.
    pub min: u32,
    /// Whether more than one occurrence is possible.
    pub many: bool,
}

impl Occurrence {
    /// Zero occurrences (absent).
    pub const ZERO: Occurrence = Occurrence {
        min: 0,
        many: false,
    };

    /// Exactly one occurrence in every instance.
    pub fn exactly_one(self) -> bool {
        self.min == 1 && !self.many
    }

    /// At least one occurrence possible.
    pub fn possible(self) -> bool {
        self.min > 0 || self.many
    }

    fn seq(self, other: Occurrence) -> Occurrence {
        Occurrence {
            min: self.min + other.min,
            many: self.many || other.many || (self.possible() && other.possible()),
        }
    }

    fn choice(self, other: Occurrence) -> Occurrence {
        Occurrence {
            min: self.min.min(other.min),
            many: self.many || other.many,
        }
    }

    fn repeat(self, rep: Repetition) -> Occurrence {
        Occurrence {
            min: self.min * rep.min(),
            many: self.many || (rep.max_many() && self.possible()),
        }
    }
}

/// Derived facts over a DTD's element graph, plus the DTD itself.
///
/// Built exactly once per document: [`crate::DocumentBuilder::set_dtd`]
/// — the only place a DTD is attached — analyzes it and stores the
/// result behind an `Arc` next to the node arena, where
/// [`crate::Document::schema_facts`] lends it out. A document's DTD
/// cannot be replaced afterwards (the field is private and updates do
/// not touch it), so the memo cannot go stale, and the clone-on-write
/// snapshots of an updated document share it instead of re-analyzing.
#[derive(Debug)]
pub struct SchemaFacts {
    /// child element name -> set of parent element names that may contain it.
    parents: BTreeMap<String, BTreeSet<String>>,
    /// attribute name -> set of element names declaring it.
    attr_owners: BTreeMap<String, BTreeSet<String>>,
    /// Elements reachable from the doctype root.
    reachable: BTreeSet<String>,
    dtd: Dtd,
}

impl SchemaFacts {
    /// Analyze `dtd`. Done once per document, where the DTD is attached
    /// (see the type's documentation); consumers borrow the result from
    /// [`crate::Document::schema_facts`].
    pub(crate) fn analyze(dtd: Dtd) -> SchemaFacts {
        let mut parents: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for decl in &dtd.elements {
            let mut names = Vec::new();
            match &decl.content {
                ContentSpec::Children(cp) => cp.names(&mut names),
                ContentSpec::Mixed(ns) => names.extend(ns.iter().cloned()),
                _ => {}
            }
            for n in names {
                parents.entry(n).or_default().insert(decl.name.clone());
            }
        }
        let mut attr_owners: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for att in &dtd.attributes {
            attr_owners
                .entry(att.name.clone())
                .or_default()
                .insert(att.element.clone());
        }
        // Reachability from the doctype root.
        let mut reachable = BTreeSet::new();
        let mut stack = vec![dtd.doctype.clone()];
        while let Some(n) = stack.pop() {
            if !reachable.insert(n.clone()) {
                continue;
            }
            if let Some(decl) = dtd.element(&n) {
                let mut names = Vec::new();
                match &decl.content {
                    ContentSpec::Children(cp) => cp.names(&mut names),
                    ContentSpec::Mixed(ns) => names.extend(ns.iter().cloned()),
                    _ => {}
                }
                stack.extend(names);
            }
        }
        SchemaFacts {
            parents,
            attr_owners,
            reachable,
            dtd,
        }
    }

    /// The analyzed DTD.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// Element names that may contain `child` (directly), restricted to
    /// elements reachable from the document root.
    pub fn parents_of(&self, child: &str) -> BTreeSet<String> {
        self.parents
            .get(child)
            .map(|s| {
                s.iter()
                    .filter(|p| self.reachable.contains(*p))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `true` iff every (reachable) occurrence of `child` is directly under
    /// an element named `parent`.
    pub fn occurs_only_under(&self, child: &str, parent: &str) -> bool {
        let mut ps = self
            .parents
            .get(child)
            .into_iter()
            .flatten()
            .filter(|p| self.reachable.contains(*p))
            .peekable();
        ps.peek().is_some() && ps.all(|p| p == parent)
    }

    /// Elements declaring attribute `attr`.
    pub fn attribute_owners(&self, attr: &str) -> BTreeSet<String> {
        self.attr_owners
            .get(attr)
            .map(|s| {
                s.iter()
                    .filter(|p| self.reachable.contains(*p))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `true` iff every (reachable) element declaring attribute `attr` is
    /// named `element`, and it is `#REQUIRED` there.
    pub fn attribute_only_on(&self, attr: &str, element: &str) -> bool {
        let owners = self.attribute_owners(attr);
        owners.len() == 1 && owners.contains(element)
    }

    /// How often `child` occurs within one `parent` instance, per the
    /// parent's content model. [`Occurrence::ZERO`] if not mentioned.
    pub fn occurrence(&self, parent: &str, child: &str) -> Occurrence {
        let Some(decl) = self.dtd.element(parent) else {
            return Occurrence::ZERO;
        };
        match &decl.content {
            ContentSpec::Children(cp) => particle_occurrence(cp, child),
            ContentSpec::Mixed(ns) if ns.iter().any(|n| n == child) => {
                Occurrence { min: 0, many: true }
            }
            _ => Occurrence::ZERO,
        }
    }

    /// `true` iff every `parent` instance has exactly one `child`.
    pub fn exactly_one_child(&self, parent: &str, child: &str) -> bool {
        self.occurrence(parent, child).exactly_one()
    }

    /// `true` iff `name` is reachable from the doctype root.
    pub fn reachable(&self, name: &str) -> bool {
        self.reachable.contains(name)
    }

    /// The doctype root element name.
    pub fn root(&self) -> &str {
        &self.dtd.doctype
    }
}

fn particle_occurrence(cp: &ContentParticle, child: &str) -> Occurrence {
    match cp {
        ContentParticle::Name(n, rep) => {
            if n == child {
                Occurrence {
                    min: 1,
                    many: false,
                }
                .repeat(*rep)
            } else {
                Occurrence::ZERO
            }
        }
        ContentParticle::Seq(items, rep) => items
            .iter()
            .map(|p| particle_occurrence(p, child))
            .fold(Occurrence::ZERO, Occurrence::seq)
            .repeat(*rep),
        ContentParticle::Choice(items, rep) => items
            .iter()
            .map(|p| particle_occurrence(p, child))
            .reduce(Occurrence::choice)
            .unwrap_or(Occurrence::ZERO)
            .repeat(*rep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bib_facts() -> SchemaFacts {
        let dtd = Dtd::parse_internal_subset(
            "bib",
            r#"
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
            "#,
        )
        .unwrap();
        SchemaFacts::analyze(dtd)
    }

    #[test]
    fn authors_only_under_books() {
        let f = bib_facts();
        assert!(f.occurs_only_under("author", "book"));
        assert!(f.occurs_only_under("book", "bib"));
        assert!(!f.occurs_only_under("last", "book"));
        // `last` occurs under both author and editor.
        assert_eq!(
            f.parents_of("last"),
            ["author", "editor"].iter().map(|s| s.to_string()).collect()
        );
    }

    #[test]
    fn book_has_exactly_one_title_but_many_authors() {
        let f = bib_facts();
        assert!(f.exactly_one_child("book", "title"));
        assert!(f.exactly_one_child("book", "price"));
        let authors = f.occurrence("book", "author");
        assert_eq!(authors, Occurrence { min: 0, many: true });
        assert!(!f.exactly_one_child("book", "author"));
        assert_eq!(f.occurrence("book", "reviews"), Occurrence::ZERO);
    }

    #[test]
    fn year_attribute_only_on_book() {
        let f = bib_facts();
        assert!(f.attribute_only_on("year", "book"));
        assert!(!f.attribute_only_on("year", "author"));
        assert!(!f.attribute_only_on("missing", "book"));
    }

    #[test]
    fn dblp_like_breaks_only_under() {
        // A bibliography where authors occur under several publication
        // kinds: the Eqv. 5 precondition must fail.
        let dtd = Dtd::parse_internal_subset(
            "dblp",
            r#"
            <!ELEMENT dblp ((article | book | phdthesis)*)>
            <!ELEMENT article (author+, title, year)>
            <!ELEMENT book (author+, title, year)>
            <!ELEMENT phdthesis (author, title, year)>
            <!ELEMENT author (#PCDATA)>
            <!ELEMENT title (#PCDATA)>
            <!ELEMENT year (#PCDATA)>
            "#,
        )
        .unwrap();
        let f = SchemaFacts::analyze(dtd);
        assert!(!f.occurs_only_under("author", "book"));
        assert_eq!(f.parents_of("author").len(), 3);
    }

    #[test]
    fn reachability_prunes_unreachable_parents() {
        let dtd = Dtd::parse_internal_subset(
            "root",
            r#"
            <!ELEMENT root (item*)>
            <!ELEMENT item (#PCDATA)>
            <!ELEMENT orphan (item)>
            "#,
        )
        .unwrap();
        let f = SchemaFacts::analyze(dtd);
        // `orphan` also contains item, but it is unreachable from root.
        assert!(f.occurs_only_under("item", "root"));
        assert!(!f.reachable("orphan"));
    }

    #[test]
    fn occurrence_arithmetic() {
        let dtd = Dtd::parse_internal_subset(
            "r",
            r#"
            <!ELEMENT r (a, a, b?, (a | c))>
            <!ELEMENT a (#PCDATA)>
            <!ELEMENT b (#PCDATA)>
            <!ELEMENT c (#PCDATA)>
            "#,
        )
        .unwrap();
        let f = SchemaFacts::analyze(dtd);
        assert_eq!(f.occurrence("r", "a"), Occurrence { min: 2, many: true });
        assert_eq!(
            f.occurrence("r", "b"),
            Occurrence {
                min: 0,
                many: false
            }
        );
        assert_eq!(
            f.occurrence("r", "c"),
            Occurrence {
                min: 0,
                many: false
            }
        );
    }
}
