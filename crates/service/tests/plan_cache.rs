//! Plan-cache behaviour through the public [`QueryService`] API: the
//! warm path must *demonstrably* skip the frontend (asserted via the
//! hit counters), equivalent query texts must share one entry, epochs
//! must invalidate staleness, and results must stay byte-identical to
//! freshly planned runs throughout.

use ordered_unnesting::workloads;
use ordered_unnesting::{engine, xmldb, xquery};
use service::cache::Lookup;
use service::{CacheOutcome, PlanCache, QueryService, ServiceConfig, UpdateOp};
use std::sync::Arc;

const SCALE: usize = 30;
const SEED: u64 = 7;

fn standard_service(cache_capacity: usize) -> QueryService {
    QueryService::with_catalog(
        xmldb::gen::standard_catalog(SCALE, 2, SEED),
        ServiceConfig {
            cache_capacity,
            use_indexes: true,
            slow_query_us: None,
            ..ServiceConfig::default()
        },
    )
}

fn all_queries() -> Vec<&'static str> {
    workloads::ALL
        .iter()
        .chain(workloads::RANGE.iter())
        .chain(workloads::COMPOSITE.iter())
        .map(|w| w.query)
        .collect()
}

const NEW_BOOK: &str = "<book year=\"2004\"><title>Cache Test Volume</title>\
     <author><last>Moerkotte</last><first>G</first></author>\
     <publisher>ICDE</publisher><price>49.99</price></book>";

#[test]
fn every_workload_misses_cold_and_hits_warm() {
    let svc = standard_service(64);
    let queries = all_queries();
    for (i, q) in queries.iter().enumerate() {
        let cold = svc.query(q).expect("cold run");
        assert_eq!(cold.cache, CacheOutcome::Miss, "query #{i} cold");
        let warm = svc.query(q).expect("warm run");
        assert_eq!(warm.cache, CacheOutcome::Hit, "query #{i} warm");
        assert_eq!(cold.output, warm.output, "query #{i} output drift");
        assert_eq!(cold.rows, warm.rows, "query #{i} row drift");
        assert_eq!(cold.plan, warm.plan, "query #{i} plan drift");
    }
    let stats = svc.stats();
    // The hit counter is the skip evidence: one hit per query, each
    // resolved through the L0 text memo without any parsing.
    assert_eq!(stats.cache.hits, queries.len() as u64);
    assert_eq!(stats.cache.misses, queries.len() as u64);
    assert_eq!(stats.cache.memo_hits, queries.len() as u64);
    assert_eq!(stats.cached_plans, queries.len());
    assert_eq!(stats.cache.evictions, 0);
    assert_eq!(stats.queries, 2 * queries.len() as u64);
}

#[test]
fn whitespace_and_bound_variable_renaming_share_one_entry() {
    let svc = standard_service(16);
    let original = r#"
        let $d1 := document("bib.xml")
        for $t1 in $d1//book/title
        where some $t2 in document("reviews.xml")//entry/title
              satisfies $t2 = $t1
        return <dup>{ $t1 }</dup>
    "#;
    // Same query modulo layout and every binder renamed.
    let renamed = r#"let $bib := document("bib.xml") for $title in $bib//book/title
        where some $entry in document("reviews.xml")//entry/title satisfies $entry = $title
        return <dup>{ $title }</dup>"#;
    let cold = svc.query(original).expect("cold");
    assert_eq!(cold.cache, CacheOutcome::Miss);
    let warm = svc.query(renamed).expect("warm");
    assert_eq!(
        warm.cache,
        CacheOutcome::Hit,
        "alpha-equivalent text must reuse the cached plan"
    );
    assert_eq!(cold.output, warm.output);
    // Distinct raw texts: the plan cache holds one entry, the text memo
    // two (the second lookup parsed once to discover the fingerprint).
    let stats = svc.stats();
    assert_eq!(stats.cached_plans, 1);
    assert_eq!(stats.memo_entries, 2);
    assert_eq!(stats.cache.memo_hits, 0);
    // …and now both texts resolve without parsing.
    assert_eq!(svc.query(original).unwrap().cache, CacheOutcome::Hit);
    assert_eq!(svc.query(renamed).unwrap().cache, CacheOutcome::Hit);
    assert_eq!(svc.stats().cache.memo_hits, 2);
}

#[test]
fn different_queries_do_not_alias() {
    let svc = standard_service(16);
    let a = r#"let $d := doc("bib.xml") for $t in $d//book/title return $t"#;
    let b = r#"let $d := doc("bib.xml") for $t in $d//book/author return $t"#;
    assert_eq!(svc.query(a).unwrap().cache, CacheOutcome::Miss);
    assert_eq!(svc.query(b).unwrap().cache, CacheOutcome::Miss);
    assert_eq!(svc.stats().cached_plans, 2);
}

#[test]
fn lru_eviction_at_capacity() {
    let svc = standard_service(2);
    let queries = all_queries();
    let (q1, q2, q3) = (queries[0], queries[1], queries[2]);
    assert_eq!(svc.query(q1).unwrap().cache, CacheOutcome::Miss);
    assert_eq!(svc.query(q2).unwrap().cache, CacheOutcome::Miss);
    // Touch q1 so q2 is the LRU victim when q3 arrives.
    assert_eq!(svc.query(q1).unwrap().cache, CacheOutcome::Hit);
    assert_eq!(svc.query(q3).unwrap().cache, CacheOutcome::Miss);
    assert_eq!(svc.stats().cache.evictions, 1);
    assert_eq!(svc.stats().cached_plans, 2);
    assert_eq!(svc.query(q1).unwrap().cache, CacheOutcome::Hit);
    // q2 was evicted; its text memo survives, so this is a pure plan
    // miss resolved without parsing.
    assert_eq!(svc.query(q2).unwrap().cache, CacheOutcome::Miss);
}

#[test]
fn update_moves_epoch_and_results_match_a_fresh_service() {
    let q = workloads::Q3_EXISTENTIAL.query;
    let insert = UpdateOp::InsertXml {
        uri: "bib.xml".to_string(),
        parent: "/bib".to_string(),
        xml: NEW_BOOK.to_string(),
    };

    let svc = standard_service(16);
    let cold = svc.query(q).expect("cold");
    assert_eq!(cold.cache, CacheOutcome::Miss);
    assert_eq!(svc.query(q).unwrap().cache, CacheOutcome::Hit);

    let report = svc.update(&insert).expect("insert applies");
    assert_eq!(report.uri, "bib.xml");
    assert_eq!(report.update_seq, 1);

    // The epoch moved, so this must NOT be a plain hit: either the
    // cached plan revalidates (every access path still resolves) or it
    // is recompiled. Both re-stamp the entry, so the run after is a hit
    // again.
    let post = svc.query(q).expect("post-update");
    assert!(
        matches!(
            post.cache,
            CacheOutcome::Revalidated | CacheOutcome::Recompiled
        ),
        "expected revalidation or recompile after the epoch bump, got {:?}",
        post.cache
    );
    assert_eq!(svc.query(q).unwrap().cache, CacheOutcome::Hit);

    // The insert itself must be visible through the (re-stamped) cache:
    // a plain title listing gains exactly the inserted row.
    let titles = r#"let $d := doc("bib.xml") for $t in $d//book/title return <t>{ $t }</t>"#;
    let before_rows = {
        let fresh = standard_service(16);
        fresh.query(titles).expect("baseline").rows
    };
    let after = svc.query(titles).expect("titles post-insert");
    assert_eq!(after.rows, before_rows + 1, "inserted book must be visible");
    assert!(after.output.contains("Cache Test Volume"));

    // Byte-identical to a service that never cached anything: fresh
    // store, same deterministic update, first (freshly planned) run.
    let fresh = standard_service(16);
    fresh.update(&insert).expect("insert applies");
    let reference = fresh.query(q).expect("fresh run");
    assert_eq!(reference.cache, CacheOutcome::Miss);
    assert_eq!(post.output, reference.output);
    assert_eq!(post.rows, reference.rows);
}

#[test]
fn all_three_update_kinds_invalidate() {
    let q = r#"let $d := doc("bib.xml") for $t in $d//book/title return <t>{ $t }</t>"#;
    let ops = [
        UpdateOp::InsertXml {
            uri: "bib.xml".to_string(),
            parent: "/bib".to_string(),
            xml: NEW_BOOK.to_string(),
        },
        UpdateOp::DeleteFirst {
            uri: "bib.xml".to_string(),
            path: "/bib/book".to_string(),
        },
        UpdateOp::ReplaceText {
            uri: "bib.xml".to_string(),
            path: "/bib/book/title".to_string(),
            text: "Retitled".to_string(),
        },
    ];
    let svc = standard_service(16);
    svc.query(q).expect("prime the cache");
    for op in &ops {
        svc.update(op).expect("update applies");
        let out = svc.query(q).expect("post-update query");
        assert!(
            out.cache != CacheOutcome::Hit && out.cache != CacheOutcome::Miss,
            "{op:?}: expected a revalidation/recompile, got {:?}",
            out.cache
        );
    }
    // Replay the same ops on a fresh service: outputs must agree.
    let fresh = standard_service(16);
    for op in &ops {
        fresh.update(op).expect("update applies");
    }
    assert_eq!(svc.query(q).unwrap().output, fresh.query(q).unwrap().output);
}

/// Loads no longer purge the cache: `doc_seq` stamps are monotone
/// across wholesale reloads, so only entries referencing a *reloaded*
/// URI go stale — unrelated hot entries keep hitting.
#[test]
fn loads_invalidate_only_reloaded_documents() {
    let svc = standard_service(16);
    let q = r#"let $d := doc("bib.xml") for $t in $d//book/title return $t"#;
    svc.query(q).expect("prime");
    assert_eq!(svc.stats().cached_plans, 1);

    // Loading a document the entry never references leaves it fully
    // warm: still cached, and the next run is a plain hit.
    svc.load_xml("unrelated.xml", "<r><x>1</x></r>")
        .expect("load");
    assert_eq!(svc.stats().cached_plans, 1);
    assert_eq!(svc.query(q).unwrap().cache, CacheOutcome::Hit);

    // Reloading the whole catalog moves bib.xml's stamp. The entry is
    // not purged, but it must not be served as a plain hit either: the
    // moved stamp forces revalidation (or recompile) against the new
    // snapshot …
    svc.load_standard(SCALE, SEED + 1).expect("reload");
    assert_eq!(svc.stats().cached_plans, 1, "no eager purge");
    let post = svc.query(q).expect("post-reload");
    assert!(
        matches!(
            post.cache,
            CacheOutcome::Revalidated | CacheOutcome::Recompiled
        ),
        "expected revalidation or recompile after the reload, got {:?}",
        post.cache
    );
    // … and the served result reflects the reloaded data, byte-identical
    // to a service that never cached anything.
    let fresh = standard_service(16);
    fresh.load_standard(SCALE, SEED + 1).expect("reload");
    assert_eq!(post.output, fresh.query(q).unwrap().output);
}

/// A cached plan whose document vanished from the catalog fails
/// revalidation and is dropped (the `Invalidated` → recompile branch).
/// This drives the cache directly with two snapshots to pin the
/// defensive branch down: the vanished URI reads as the absent-sentinel
/// stamp, which can never equal a real `doc_seq`.
#[test]
fn vanished_document_invalidates_the_entry() {
    let mut with_doc = xmldb::Catalog::new();
    with_doc.register(
        xmldb::parse_document("ghost.xml", "<g><item>1</item><item>2</item></g>").unwrap(),
    );
    let q = r#"let $d := doc("ghost.xml") for $i in $d//item return $i"#;
    let expr = xquery::compile(q, &with_doc).expect("compiles");
    let plan = Arc::new(engine::compile_indexed(&expr, &with_doc));
    let fp = xquery::Fingerprint::of_query(q, &with_doc).expect("fingerprints");
    let with_doc = xmldb::CatalogSnapshot::from_catalog(with_doc);

    let mut cache = PlanCache::new(4);
    cache.insert(&fp, true, plan, "nested".to_string(), &with_doc);
    assert!(matches!(
        cache.lookup(&fp, true, &with_doc),
        Lookup::Hit(..)
    ));

    // Same fingerprint against a snapshot where ghost.xml never existed:
    // stale stamps, and revalidation cannot resolve the scan.
    let without_doc = xmldb::CatalogSnapshot::from_catalog(xmldb::Catalog::new());
    assert!(matches!(
        cache.lookup(&fp, true, &without_doc),
        Lookup::Invalidated
    ));
    assert_eq!(cache.counters().invalidations, 1);
    assert!(matches!(
        cache.lookup(&fp, true, &without_doc),
        Lookup::Miss
    ));
}

/// Every workload over `bib.xml` — the document the update below
/// touches — must revalidate (or recompile) its cached plan after the
/// epoch moves, and keep producing results byte-identical to a service
/// that never cached anything.
#[test]
fn cached_plans_revalidate_after_updates() {
    let svc = standard_service(32);
    let queries: Vec<&str> = workloads::ALL
        .iter()
        .chain(workloads::RANGE.iter())
        .chain(workloads::COMPOSITE.iter())
        .filter(|w| w.documents.contains(&"bib.xml"))
        .map(|w| w.query)
        .collect();
    assert!(!queries.is_empty(), "no workload reads bib.xml");
    for q in &queries {
        assert_eq!(svc.query(q).unwrap().cache, CacheOutcome::Miss);
        assert_eq!(svc.query(q).unwrap().cache, CacheOutcome::Hit);
    }

    let insert = UpdateOp::InsertXml {
        uri: "bib.xml".to_string(),
        parent: "/bib".to_string(),
        xml: NEW_BOOK.to_string(),
    };
    svc.update(&insert).expect("insert applies");

    let fresh = standard_service(32);
    fresh.update(&insert).expect("insert applies");
    for q in &queries {
        let post = svc.query(q).expect("post-update");
        assert!(
            matches!(
                post.cache,
                CacheOutcome::Revalidated | CacheOutcome::Recompiled
            ),
            "entry must re-stamp after the epoch bump, got {:?}: {q}",
            post.cache
        );
        let reference = fresh.query(q).expect("fresh post-update");
        assert_eq!(post.output, reference.output, "output drift: {q}");
        assert_eq!(post.rows, reference.rows, "row drift: {q}");
        // Re-stamped entries are plain hits again.
        assert_eq!(svc.query(q).unwrap().cache, CacheOutcome::Hit);
    }
}
