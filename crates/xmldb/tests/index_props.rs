//! Property tests for the index subsystem: value-index key ordering
//! round-trips, document-order posting lists, range probes vs filtered
//! full scans, and path-index/naive-scan agreement on randomized
//! documents.

use std::ops::Bound;

use proptest::prelude::*;

use xmldb::index::{
    matched_assignments, AncestorChainSpec, CompositeSpec, CompositeValueIndex, KeyComponent,
    MemberSpec, PathIndex, PathPattern, PatternStep, ValueIndex, ValueKey,
};
use xmldb::{Document, DocumentBuilder, NodeId, NodeKind};

/// Deterministically build a small random document from a shape vector:
/// each entry adds a book with `authors` authors whose names are drawn
/// from a tiny pool (so values collide and posting lists grow).
fn build_doc(shape: &[(u32, u32)]) -> Document {
    let mut b = DocumentBuilder::new("prop.xml");
    b.start_element("bib");
    for &(title_pick, authors) in shape {
        b.start_element("book");
        b.attribute("year", &(1990 + (title_pick % 10)).to_string());
        b.leaf("title", &format!("T{}", title_pick % 7));
        for a in 0..(authors % 4) {
            b.start_element("author");
            b.leaf("last", &format!("A{}", (title_pick + a) % 5));
            b.end_element();
        }
        b.end_element();
    }
    b.end_element();
    b.finish()
}

/// Reference implementation: walk the document and collect elements by
/// tag in document order.
fn naive_by_tag(doc: &Document, tag: &str) -> Vec<NodeId> {
    doc.descendants(NodeId::DOCUMENT)
        .filter(|&n| matches!(doc.kind(n), NodeKind::Element(i) if doc.name(i) == tag))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn value_key_numeric_order_round_trips(
        nums in prop::collection::vec((0i64..2000, 1i64..1000), 1..24),
    ) {
        // Keys built from f64s round-trip exactly and order identically
        // to total_cmp — the property that makes the BTreeMap's key
        // order meaningful for future range scans.
        let floats: Vec<f64> = nums
            .iter()
            .map(|&(n, d)| (n - 1000) as f64 / d as f64)
            .collect();
        for &f in &floats {
            prop_assert_eq!(ValueKey::num(f).as_f64(), Some(f));
        }
        let mut by_key: Vec<f64> = floats.clone();
        by_key.sort_by(|a, b| ValueKey::num(*a).cmp(&ValueKey::num(*b)));
        let mut by_float = floats;
        by_float.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(by_key, by_float);
    }

    #[test]
    fn value_index_keys_sorted_postings_in_doc_order(
        shape in prop::collection::vec((0u32..40, 0u32..5), 1..30),
    ) {
        let doc = build_doc(&shape);
        let pidx = PathIndex::build(&doc);
        for tag in ["title", "last", "book"] {
            let nodes = pidx
                .lookup(&PathPattern::new(vec![PatternStep::Descendant(Some(tag.into()))]))
                .expect("tag pattern resolvable");
            let vidx = ValueIndex::build(&doc, &nodes);
            prop_assert_eq!(vidx.len(), nodes.len());
            // Keys iterate in strictly ascending order…
            let keys: Vec<&ValueKey> = vidx.iter().map(|(k, _)| k).collect();
            for w in keys.windows(2) {
                prop_assert!(w[0] < w[1], "keys out of order: {} !< {}", w[0], w[1]);
            }
            // …and every posting list is strictly ascending (document
            // order) and partitions the node set.
            let mut total = 0usize;
            for (_, list) in vidx.iter() {
                prop_assert!(!list.is_empty());
                for w in list.windows(2) {
                    prop_assert!(w[0] < w[1], "posting list out of doc order");
                }
                total += list.len();
            }
            prop_assert_eq!(total, nodes.len());
            // Lookup round-trip: every node is found under its own value.
            for &n in &nodes {
                let key = ValueKey::Str(doc.string_value(n));
                prop_assert!(vidx.get(&key).contains(&n));
            }
        }
    }

    #[test]
    fn value_key_num_canonicalizes_nan_and_negative_zero(
        nums in prop::collection::vec((0i64..2000, 1i64..1000), 1..16),
    ) {
        // NaN is unmatchable on build and probe (it canonicalizes to the
        // NULL key), and the two zeros are one key point.
        prop_assert_eq!(ValueKey::num(f64::NAN), ValueKey::Null);
        prop_assert_eq!(ValueKey::num(-0.0), ValueKey::num(0.0));
        for &(n, d) in &nums {
            let f = (n - 1000) as f64 / d as f64;
            // Negating a zero never changes the key; negating anything
            // else always does.
            prop_assert_eq!(
                ValueKey::num(-f) == ValueKey::num(f),
                f == 0.0,
                "f = {}", f
            );
        }
    }

    #[test]
    fn range_equals_filtered_full_scan(
        // Values: a mix of small numerics (negatives, zeros in both
        // spellings), NaN, and non-numeric strings.
        value_picks in prop::collection::vec(0usize..12, 1..40),
        lo_pick in 0usize..14,
        hi_pick in 0usize..14,
        lo_incl in prop::bool::ANY,
        hi_incl in prop::bool::ANY,
        numeric_probe in prop::bool::ANY,
    ) {
        const POOL: [&str; 12] = [
            "-3.5", "-1", "-0", "0", "0.0", "2", "10", "100", "NaN", "abc", "", "zz",
        ];
        // Endpoint pool: the numeric interpretations plus edge values;
        // the string regime uses the raw spellings.
        const NUM_ENDPOINTS: [f64; 12] = [
            -5.0, -3.5, -1.0, -0.0, 0.0, 2.0, 10.0, 99.5, 100.0,
            f64::NEG_INFINITY, f64::INFINITY, f64::NAN,
        ];
        let mut b = DocumentBuilder::new("range.xml");
        b.start_element("r");
        for &i in &value_picks {
            b.leaf("v", POOL[i]);
        }
        b.end_element();
        let doc = b.finish();
        let pidx = PathIndex::build(&doc);
        let nodes = pidx
            .lookup(&PathPattern::new(vec![PatternStep::Descendant(Some("v".into()))]))
            .expect("resolvable");
        let vidx = ValueIndex::build(&doc, &nodes);

        fn bound(key: Option<ValueKey<'_>>, incl: bool) -> Bound<ValueKey<'_>> {
            match key {
                None => Bound::Unbounded,
                Some(k) if incl => Bound::Included(k),
                Some(k) => Bound::Excluded(k),
            }
        }
        fn as_ref_bound<'a>(b: &'a Bound<ValueKey<'a>>) -> Bound<&'a ValueKey<'a>> {
            match b {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(k) => Bound::Included(k),
                Bound::Excluded(k) => Bound::Excluded(k),
            }
        }
        // Reference: filter the full node scan by the bound predicate in
        // the regime's comparison semantics.
        let in_num_bounds = |v: f64, lo: &Bound<f64>, hi: &Bound<f64>| {
            let lo_ok = match lo {
                Bound::Unbounded => true,
                Bound::Included(l) => v >= *l,
                Bound::Excluded(l) => v > *l,
            };
            let hi_ok = match hi {
                Bound::Unbounded => true,
                Bound::Included(h) => v <= *h,
                Bound::Excluded(h) => v < *h,
            };
            lo_ok && hi_ok
        };
        if numeric_probe {
            let lo_f = (lo_pick < NUM_ENDPOINTS.len()).then(|| NUM_ENDPOINTS[lo_pick]);
            let hi_f = (hi_pick < NUM_ENDPOINTS.len()).then(|| NUM_ENDPOINTS[hi_pick]);
            let lo = bound(lo_f.map(ValueKey::num), lo_incl);
            let hi = bound(hi_f.map(ValueKey::num), hi_incl);
            let got = vidx.range(as_ref_bound(&lo), as_ref_bound(&hi));
            let nan_endpoint = lo_f.is_some_and(f64::is_nan) || hi_f.is_some_and(f64::is_nan);
            // Two unbounded ends are regime-free: every indexed node.
            let unbounded_both = lo_f.is_none() && hi_f.is_none();
            let expected: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&n| {
                    if unbounded_both {
                        return true;
                    }
                    if nan_endpoint {
                        return false; // NaN endpoints select nothing
                    }
                    // Canonical IEEE comparison on parsed values; NaN
                    // values are unmatchable.
                    match doc.string_value(n).trim().parse::<f64>() {
                        Ok(v) if !v.is_nan() => {
                            let lo_f64 = match &lo {
                                Bound::Unbounded => Bound::Unbounded,
                                Bound::Included(k) => Bound::Included(k.as_f64().unwrap()),
                                Bound::Excluded(k) => Bound::Excluded(k.as_f64().unwrap()),
                            };
                            let hi_f64 = match &hi {
                                Bound::Unbounded => Bound::Unbounded,
                                Bound::Included(k) => Bound::Included(k.as_f64().unwrap()),
                                Bound::Excluded(k) => Bound::Excluded(k.as_f64().unwrap()),
                            };
                            in_num_bounds(v, &lo_f64, &hi_f64)
                        }
                        _ => false,
                    }
                })
                .collect();
            prop_assert_eq!(&got, &expected, "numeric bounds {:?} {:?}", lo, hi);
            // Document order is ascending NodeId order.
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        } else {
            let lo_s = (lo_pick < POOL.len()).then(|| POOL[lo_pick].to_string());
            let hi_s = (hi_pick < POOL.len()).then(|| POOL[hi_pick].to_string());
            let lo = bound(lo_s.clone().map(|s| ValueKey::Str(s.into())), lo_incl);
            let hi = bound(hi_s.clone().map(|s| ValueKey::Str(s.into())), hi_incl);
            let got = vidx.range(as_ref_bound(&lo), as_ref_bound(&hi));
            let expected: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&n| {
                    let v = doc.string_value(n);
                    let lo_ok = match (&lo_s, lo_incl) {
                        (None, _) => true,
                        (Some(l), true) => &*v >= l.as_str(),
                        (Some(l), false) => &*v > l.as_str(),
                    };
                    let hi_ok = match (&hi_s, hi_incl) {
                        (None, _) => true,
                        (Some(h), true) => &*v <= h.as_str(),
                        (Some(h), false) => &*v < h.as_str(),
                    };
                    lo_ok && hi_ok
                })
                .collect();
            prop_assert_eq!(&got, &expected, "string bounds {:?} {:?}", lo_s, hi_s);
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn composite_index_matches_naive_pairing(
        shape in prop::collection::vec((0u32..40, 0u32..5), 1..30),
    ) {
        // Composite (title, year) over the primary //book/title with the
        // @year member anchored one hop up: every (title node, year
        // attr) pair of a book is exactly one entry, keyed by the two
        // string values.
        let doc = build_doc(&shape);
        let pidx = PathIndex::build(&doc);
        let primary_pat = PathPattern::new(vec![
            PatternStep::Descendant(Some("book".into())),
            PatternStep::Child(Some("title".into())),
        ]);
        let titles = pidx.lookup(&primary_pat).expect("resolvable");
        let spec = CompositeSpec {
            primary: primary_pat,
            members: vec![MemberSpec {
                levels: Some(1),
                rel: PathPattern::new(vec![PatternStep::Attribute(Some("year".into()))]),
            }],
            key: vec![KeyComponent::Primary, KeyComponent::Member(0)],
        };
        let cidx = CompositeValueIndex::build(&doc, &titles, &spec);
        // Naive reference: every title paired with its book's year.
        let mut expected: Vec<(Vec<ValueKey>, NodeId)> = Vec::new();
        for &t in &titles {
            let book = doc.parent(t).expect("book parent");
            if let Some(y) = doc.attribute(book, "year") {
                expected.push((
                    vec![
                        ValueKey::Str(doc.string_value(t)),
                        ValueKey::Str(doc.string_value(y)),
                    ],
                    t,
                ));
            }
        }
        prop_assert_eq!(cidx.len(), expected.len());
        // Lookup round-trip: every expected row is found under its key,
        // and every posting entry is expected.
        let mut seen = 0usize;
        for (key, entries) in cidx.iter() {
            for e in entries {
                prop_assert!(
                    expected.iter().any(|(k, t)| k == key && *t == e.primary),
                    "unexpected entry {:?} under {:?}", e, key
                );
                seen += 1;
            }
        }
        prop_assert_eq!(seen, expected.len());
        // Composite keys are lexicographic: iterate in strictly
        // ascending Vec<ValueKey> order.
        let keys: Vec<Vec<ValueKey>> = cidx.iter().map(|(k, _)| k.to_vec()).collect();
        for w in keys.windows(2) {
            prop_assert!(w[0] < w[1], "composite keys out of order");
        }
        // Unmatchable and type-mismatched probes miss, like the hash key
        // domain: NaN → Null component, numeric vs string.
        if let Some((k, _)) = expected.first() {
            prop_assert!(cidx.get(&[k[0].clone(), ValueKey::num(f64::NAN)]).is_empty());
            prop_assert!(cidx.get(&[k[0].clone(), ValueKey::num(-0.0)]).is_empty());
            prop_assert!(!cidx.get(k).is_empty());
        }
    }

    #[test]
    fn matched_assignments_agree_with_naive_ancestor_enumeration(
        shape in prop::collection::vec((0u32..40, 0u32..5), 1..30),
    ) {
        // For every last-name node, the matched assignments of the chain
        // (author ← //book//author, key ← author/last) must equal the
        // naive enumeration of matching ancestors, outermost first.
        let doc = build_doc(&shape);
        let lasts = naive_by_tag(&doc, "last");
        let spec = AncestorChainSpec {
            base: PathPattern::new(vec![
                PatternStep::Descendant(Some("book".into())),
                PatternStep::Descendant(Some("author".into())),
            ]),
            rels: vec![PathPattern::new(vec![PatternStep::Child(Some("last".into()))])],
        };
        for &l in &lasts {
            let mut got: Vec<Vec<NodeId>> = Vec::new();
            matched_assignments(&doc, l, &spec, &mut |a| got.push(a.to_vec()));
            // Naive: the parent must be an author under a book.
            let parent = doc.parent(l).expect("author parent");
            let is_author_under_book = matches!(doc.kind(parent), NodeKind::Element(i) if doc.name(i) == "author")
                && {
                    let mut anc = doc.parent(parent);
                    let mut found = false;
                    while let Some(a) = anc {
                        if matches!(doc.kind(a), NodeKind::Element(i) if doc.name(i) == "book") {
                            found = true;
                        }
                        anc = doc.parent(a);
                    }
                    found
                };
            if is_author_under_book {
                prop_assert_eq!(got, vec![vec![parent]]);
            } else {
                prop_assert!(got.is_empty());
            }
        }
    }

    #[test]
    fn path_index_matches_naive_tag_scan(
        shape in prop::collection::vec((0u32..40, 0u32..5), 1..30),
    ) {
        let doc = build_doc(&shape);
        let pidx = PathIndex::build(&doc);
        for tag in ["bib", "book", "title", "author", "last", "missing"] {
            let via_index = pidx
                .lookup(&PathPattern::new(vec![PatternStep::Descendant(Some(tag.into()))]))
                .expect("resolvable");
            prop_assert_eq!(via_index, naive_by_tag(&doc, tag), "tag {}", tag);
        }
        // A composed child chain agrees with parent-filtered collection.
        let authors_of_books = pidx
            .lookup(&PathPattern::new(vec![
                PatternStep::Descendant(Some("book".into())),
                PatternStep::Child(Some("author".into())),
            ]))
            .expect("resolvable");
        let expected: Vec<NodeId> = naive_by_tag(&doc, "author")
            .into_iter()
            .filter(|&a| {
                doc.parent(a)
                    .map(|p| matches!(doc.kind(p), NodeKind::Element(i) if doc.name(i) == "book"))
                    .unwrap_or(false)
            })
            .collect();
        prop_assert_eq!(authors_of_books, expected);
    }
}
