//! Generators for the auction documents `users.xml`, `items.xml`,
//! `bids.xml` (use case R, Fig. 5).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::document::{Document, DocumentBuilder};
use crate::dtd::Dtd;
use crate::gen::text;

/// The paper's users DTD, verbatim from Fig. 5.
pub const USERS_DTD: &str = r#"
<!ELEMENT users (usertuple*)>
<!ELEMENT usertuple (userid, name, rating?)>
<!ELEMENT userid (#PCDATA)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT rating (#PCDATA)>
"#;

/// The paper's items DTD, verbatim from Fig. 5.
pub const ITEMS_DTD: &str = r#"
<!ELEMENT items (itemtuple*)>
<!ELEMENT itemtuple (itemno, description, offered_by, startdate?, enddate?, reserveprice?)>
<!ELEMENT itemno (#PCDATA)>
<!ELEMENT description (#PCDATA)>
<!ELEMENT offered_by (#PCDATA)>
<!ELEMENT startdate (#PCDATA)>
<!ELEMENT enddate (#PCDATA)>
<!ELEMENT reserveprice (#PCDATA)>
"#;

/// The paper's bids DTD, verbatim from Fig. 5.
pub const BIDS_DTD: &str = r#"
<!ELEMENT bids (bidtuple*)>
<!ELEMENT bidtuple (userid, itemno, bid, biddate)>
<!ELEMENT userid (#PCDATA)>
<!ELEMENT itemno (#PCDATA)>
<!ELEMENT bid (#PCDATA)>
<!ELEMENT biddate (#PCDATA)>
"#;

/// Parameters for [`gen_auction`].
#[derive(Clone, Debug)]
pub struct AuctionConfig {
    /// Number of `bidtuple` elements — the scale knob of §5.6.
    pub bids: usize,
    /// Items per bid, inverted: `items = bids / items_divisor`
    /// (the paper uses "the number of items equals 1/5 times the number of
    /// bids").
    pub items_divisor: usize,
    /// `users = bids / users_divisor` (the paper varies users per bid
    /// between 1 and 10; 10 bids per user is the default here).
    pub users_divisor: usize,
    /// Deterministic content seed.
    pub seed: u64,
}

impl Default for AuctionConfig {
    fn default() -> AuctionConfig {
        AuctionConfig {
            bids: 100,
            items_divisor: 5,
            users_divisor: 10,
            seed: 0xa0c1,
        }
    }
}

/// The three generated auction documents.
pub struct AuctionDocs {
    /// `users.xml`.
    pub users: Document,
    /// `items.xml`.
    pub items: Document,
    /// `bids.xml`.
    pub bids: Document,
}

/// Generate `users.xml`, `items.xml`, and `bids.xml` with consistent
/// foreign keys (`userid`, `itemno`).
pub fn gen_auction(cfg: &AuctionConfig) -> AuctionDocs {
    let n_bids = cfg.bids;
    let n_items = (n_bids / cfg.items_divisor.max(1)).max(1);
    let n_users = (n_bids / cfg.users_divisor.max(1)).max(1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // users.xml
    let mut ub = DocumentBuilder::new("users.xml");
    ub.set_dtd(Dtd::parse_internal_subset("users", USERS_DTD).expect("static DTD parses"));
    ub.start_element("users");
    for u in 0..n_users {
        ub.start_element("usertuple");
        ub.leaf("userid", &format!("U{u:05}"));
        ub.leaf("name", &text::full_name(u));
        if u % 3 != 0 {
            ub.leaf("rating", ["A", "B", "C", "D"][rng.gen_range(0..4)]);
        }
        ub.end_element();
    }
    ub.end_element();

    // items.xml
    let mut ib = DocumentBuilder::new("items.xml");
    ib.set_dtd(Dtd::parse_internal_subset("items", ITEMS_DTD).expect("static DTD parses"));
    ib.start_element("items");
    for i in 0..n_items {
        ib.start_element("itemtuple");
        ib.leaf("itemno", &format!("I{i:06}"));
        ib.leaf("description", &text::title(i));
        ib.leaf("offered_by", &format!("U{:05}", rng.gen_range(0..n_users)));
        if i % 4 != 3 {
            ib.leaf("startdate", &text::date(i, 0x57a7));
            ib.leaf("enddate", &text::date(i, 0xe0d));
        }
        if i % 2 == 0 {
            ib.leaf("reserveprice", &text::price(i, 0x7e5e));
        }
        ib.end_element();
    }
    ib.end_element();

    // bids.xml — each bid picks a random user and a random item, so item
    // popularity follows a balls-into-bins distribution: with bids = 5 ×
    // items, a realistic share of items reaches the `count >= 3` threshold
    // of query 1.4.4.14.
    let mut bb = DocumentBuilder::new("bids.xml");
    bb.set_dtd(Dtd::parse_internal_subset("bids", BIDS_DTD).expect("static DTD parses"));
    bb.start_element("bids");
    for b in 0..n_bids {
        bb.start_element("bidtuple");
        bb.leaf("userid", &format!("U{:05}", rng.gen_range(0..n_users)));
        bb.leaf("itemno", &format!("I{:06}", rng.gen_range(0..n_items)));
        bb.leaf("bid", &text::price(b, 0xb1d));
        bb.leaf("biddate", &text::date(b, 0xb1dda7e));
        bb.end_element();
    }
    bb.end_element();

    AuctionDocs {
        users: ub.finish(),
        items: ib.finish(),
        bids: bb.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_follow_divisors() {
        let docs = gen_auction(&AuctionConfig {
            bids: 100,
            ..AuctionConfig::default()
        });
        let count = |d: &Document| d.children(d.root_element().unwrap()).count();
        assert_eq!(count(&docs.bids), 100);
        assert_eq!(count(&docs.items), 20);
        assert_eq!(count(&docs.users), 10);
    }

    #[test]
    fn bids_reference_existing_items_and_users() {
        let docs = gen_auction(&AuctionConfig {
            bids: 60,
            ..AuctionConfig::default()
        });
        let collect = |d: &Document, tag: &str| -> std::collections::HashSet<String> {
            let root = d.root_element().unwrap();
            d.children(root)
                .flat_map(|t| d.children(t).collect::<Vec<_>>())
                .filter(|&c| d.node_name(c) == Some(tag))
                .map(|c| d.string_value(c).into_owned())
                .collect()
        };
        let known_items = collect(&docs.items, "itemno");
        let known_users = collect(&docs.users, "userid");
        let bid_items = collect(&docs.bids, "itemno");
        let bid_users = collect(&docs.bids, "userid");
        assert!(bid_items.is_subset(&known_items));
        assert!(bid_users.is_subset(&known_users));
    }

    #[test]
    fn some_item_has_at_least_three_bids() {
        // The §5.6 query returns items with >= 3 bids; the default
        // distribution must produce at least one such item.
        let docs = gen_auction(&AuctionConfig {
            bids: 100,
            ..AuctionConfig::default()
        });
        let d = &docs.bids;
        let root = d.root_element().unwrap();
        let mut counts = std::collections::HashMap::new();
        for t in d.children(root) {
            let itemno = d
                .children(t)
                .find(|&c| d.node_name(c) == Some("itemno"))
                .map(|c| d.string_value(c).into_owned())
                .unwrap();
            *counts.entry(itemno).or_insert(0usize) += 1;
        }
        assert!(counts.values().any(|&c| c >= 3));
        assert!(
            counts.values().any(|&c| c < 3),
            "threshold should be selective"
        );
    }

    #[test]
    fn optional_fields_sometimes_missing() {
        let docs = gen_auction(&AuctionConfig {
            bids: 200,
            ..AuctionConfig::default()
        });
        let d = &docs.items;
        let root = d.root_element().unwrap();
        let with_reserve = d
            .children(root)
            .filter(|&t| {
                d.children(t)
                    .any(|c| d.node_name(c) == Some("reserveprice"))
            })
            .count();
        let total = d.children(root).count();
        assert!(with_reserve > 0 && with_reserve < total);
    }
}
