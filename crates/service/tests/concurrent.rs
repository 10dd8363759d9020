//! Concurrent serving: N reader threads running the full Q1–Q10
//! workload against one shared [`QueryService`] while an updater thread
//! interleaves deterministic mutations. Every result a reader observed
//! is replayed afterwards on a fresh single-threaded service with the
//! same update prefix applied — outputs must be byte-identical, which
//! pins down both cache coherence (no stale plan ever produced stale
//! *data*) and snapshot isolation (a query sees exactly the catalog
//! state its `updates_seen` stamp claims).

use ordered_unnesting::workloads;
use ordered_unnesting::xmldb;
use service::{QueryService, ServiceConfig, UpdateOp};
use std::collections::BTreeMap;
use std::sync::Arc;

const SCALE: usize = 25;
const SEED: u64 = 11;
const READERS: usize = 4;
const ROUNDS: usize = 3;
const UPDATES: usize = 6;

fn standard_service() -> QueryService {
    QueryService::with_catalog(
        xmldb::gen::standard_catalog(SCALE, 2, SEED),
        ServiceConfig {
            cache_capacity: 64,
            use_indexes: true,
            slow_query_us: None,
            ..ServiceConfig::default()
        },
    )
}

fn queries() -> Vec<&'static str> {
    workloads::ALL
        .iter()
        .chain(workloads::RANGE.iter())
        .chain(workloads::COMPOSITE.iter())
        .map(|w| w.query)
        .collect()
}

/// The k-th update (0-based), a pure function of `k` so any prefix can
/// be replayed deterministically.
fn update_op(k: usize) -> UpdateOp {
    match k % 3 {
        0 => UpdateOp::InsertXml {
            uri: "bib.xml".to_string(),
            parent: "/bib".to_string(),
            xml: format!(
                "<book year=\"19{:02}\"><title>Concurrent Volume {k}</title>\
                 <author><last>Writer</last><first>W{k}</first></author>\
                 <publisher>pub{k}</publisher><price>{k}.50</price></book>",
                60 + k
            ),
        },
        1 => UpdateOp::DeleteFirst {
            uri: "bib.xml".to_string(),
            path: "/bib/book".to_string(),
        },
        _ => UpdateOp::ReplaceText {
            uri: "reviews.xml".to_string(),
            path: "/reviews/entry/title".to_string(),
            text: format!("Rewritten Review {k}"),
        },
    }
}

#[test]
fn concurrent_readers_with_interleaved_updates_match_serial_replay() {
    let svc = Arc::new(standard_service());
    let qs = queries();

    // Readers record (query index, updates_seen, output) triples.
    let mut reader_threads = Vec::new();
    for r in 0..READERS {
        let svc = Arc::clone(&svc);
        let qs = qs.clone();
        reader_threads.push(std::thread::spawn(move || {
            let mut observed: Vec<(usize, u64, String)> = Vec::new();
            for round in 0..ROUNDS {
                for qi in 0..qs.len() {
                    // Stagger the schedules so threads hit different
                    // queries at the same time.
                    let qi = (qi + r + round) % qs.len();
                    let out = svc.query(qs[qi]).expect("concurrent query");
                    observed.push((qi, out.updates_seen, out.output));
                }
            }
            observed
        }));
    }

    // One serialized writer applying the deterministic update sequence,
    // yielding between mutations so readers interleave.
    let updater = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            for k in 0..UPDATES {
                svc.update(&update_op(k)).expect("update applies");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        })
    };

    let mut observed: Vec<(usize, u64, String)> = Vec::new();
    for t in reader_threads {
        observed.extend(t.join().expect("reader thread"));
    }
    updater.join().expect("updater thread");

    // Replay: for each distinct (query, update-prefix) pair, a fresh
    // service with the first `seen` updates applied must reproduce the
    // concurrent output byte-for-byte.
    let mut expected: BTreeMap<(usize, u64), String> = BTreeMap::new();
    let mut replay_services: BTreeMap<u64, QueryService> = BTreeMap::new();
    let mut mismatches = 0usize;
    for (qi, seen, output) in &observed {
        let reference = expected.entry((*qi, *seen)).or_insert_with(|| {
            let fresh = replay_services.entry(*seen).or_insert_with(|| {
                let s = standard_service();
                for k in 0..*seen as usize {
                    s.update(&update_op(k)).expect("replay update");
                }
                s
            });
            fresh.query(qs[*qi]).expect("replay query").output
        });
        if output != reference {
            mismatches += 1;
        }
    }
    assert_eq!(
        mismatches,
        0,
        "{mismatches} of {} concurrent results diverged from serial replay",
        observed.len()
    );

    // Sanity: the cache actually served concurrent traffic.
    let stats = svc.stats();
    assert_eq!(
        stats.queries,
        (READERS * ROUNDS * qs.len()) as u64,
        "every reader query must be counted"
    );
    assert!(
        stats.cache.hits > 0,
        "with {READERS} readers × {ROUNDS} rounds some queries must hit"
    );
    assert_eq!(stats.updates, UPDATES as u64);
    assert_eq!(stats.update_seq, UPDATES as u64);
}

/// Hammer one hot query from many threads with no updates at all: all
/// but the first run must be cache hits, and every output identical.
#[test]
fn hot_query_is_hit_for_every_thread_after_warmup() {
    let svc = Arc::new(standard_service());
    let q = workloads::Q3_EXISTENTIAL.query;
    let baseline = svc.query(q).expect("warmup").output;
    let threads: Vec<_> = (0..READERS)
        .map(|_| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                (0..5)
                    .map(|_| svc.query(workloads::Q3_EXISTENTIAL.query).unwrap())
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for t in threads {
        for out in t.join().expect("thread") {
            assert_eq!(out.output, baseline);
            assert_eq!(out.cache.label(), "hit");
        }
    }
    let stats = svc.stats();
    assert_eq!(stats.cache.hits, (READERS * 5) as u64);
    assert_eq!(stats.cache.misses, 1);
}
