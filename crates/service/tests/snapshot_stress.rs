//! Snapshot-lifecycle stress: streamed readers pinned to immutable
//! catalog versions while a writer publishes bursts of updates. Three
//! claims are pinned down here:
//!
//! 1. **No torn snapshots** — every streamed result is byte-identical
//!    to a serial replay of the deterministic update prefix its
//!    `updates_seen` stamp names, even when the writer publishes
//!    mid-stream.
//! 2. **Reclamation** — a superseded version stays alive exactly as
//!    long as something pins it (`Arc` strong count drops to the pin,
//!    the live-snapshot gauge drops after the pin is released).
//! 3. **No reader/writer stall** — a writer can publish while a stream
//!    is open (the stream holds only an `Arc`, no lock), and the open
//!    stream keeps reading its pinned version.

use ordered_unnesting::workloads;
use ordered_unnesting::xmldb;
use service::{QueryService, ServiceConfig, UpdateOp};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const SCALE: usize = 25;
const SEED: u64 = 13;
const READERS: usize = 4;
const ROUNDS: usize = 3;
const BURSTS: usize = 3;
const BURST_LEN: usize = 3;

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
/// be replayed deterministically (the same cycle the concurrent suite
/// uses).
fn update_op(k: usize) -> UpdateOp {
    match k % 3 {
        0 => UpdateOp::InsertXml {
            uri: "bib.xml".to_string(),
            parent: "/bib".to_string(),
            xml: format!(
                "<book year=\"19{:02}\"><title>Stress Volume {k}</title>\
                 <author><last>Writer</last><first>W{k}</first></author>\
                 <publisher>pub{k}</publisher><price>{k}.75</price></book>",
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
            text: format!("Stressed Review {k}"),
        },
    }
}

#[test]
fn streamed_readers_survive_writer_bursts_without_torn_snapshots() {
    let svc = Arc::new(standard_service());
    let qs = queries();

    // Readers stream every workload, recording (query index,
    // updates_seen, output) triples for the replay below.
    let captured = Arc::new(Mutex::new(Vec::<(usize, u64, String)>::new()));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let svc = Arc::clone(&svc);
            let captured = Arc::clone(&captured);
            let qs = qs.clone();
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    for i in 0..qs.len() {
                        let qi = (i + r + round) % qs.len();
                        let mut out = String::new();
                        let outcome = svc
                            .query_streamed(qs[qi], &mut |item| {
                                out.push_str(item);
                                true
                            })
                            .expect("streamed query under writer bursts");
                        assert_eq!(
                            outcome.output, out,
                            "streamed items must concatenate to the outcome output"
                        );
                        assert!(!outcome.cancelled);
                        captured.lock().expect("capture lock").push((
                            qi,
                            outcome.updates_seen,
                            out,
                        ));
                    }
                }
            })
        })
        .collect();

    // The writer publishes updates in back-to-back bursts — several
    // versions supersede each other while streams are open.
    let writer = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            let mut k = 0usize;
            for _ in 0..BURSTS {
                for _ in 0..BURST_LEN {
                    svc.update(&update_op(k)).expect("burst update");
                    k += 1;
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        })
    };
    for t in readers {
        t.join().expect("reader thread");
    }
    writer.join().expect("writer thread");

    // Serial replay: one fresh service advanced through the same
    // deterministic update sequence; every captured output must
    // reproduce byte-for-byte at its `updates_seen` state.
    let captured = Arc::try_unwrap(captured)
        .expect("threads joined")
        .into_inner()
        .expect("capture lock");
    assert_eq!(captured.len(), READERS * ROUNDS * qs.len());
    let mut by_state: Vec<&(usize, u64, String)> = captured.iter().collect();
    by_state.sort_by_key(|&&(_, seen, _)| seen);
    let replay = standard_service();
    let mut applied = 0u64;
    for (qi, seen, out) in by_state {
        while applied < *seen {
            replay
                .update(&update_op(applied as usize))
                .expect("replay update");
            applied += 1;
        }
        let got = replay.query(qs[*qi]).expect("replay query");
        assert_eq!(
            &got.output, out,
            "torn snapshot: query {qi} captured at update state {seen} \
             diverges from its serial replay"
        );
    }

    // Every superseded version is reclaimed once no stream pins it.
    let stats = svc.stats();
    assert_eq!(stats.update_seq, (BURSTS * BURST_LEN) as u64);
    assert_eq!(
        stats.live_snapshots, 1,
        "superseded versions must be freed after all streams close"
    );
}

#[test]
fn superseded_snapshots_are_freed_once_unpinned() {
    let svc = standard_service();
    let pinned = svc.snapshot();
    // The pin shares the published version with the handle's current
    // pointer: two strong counts, one live snapshot.
    assert_eq!(Arc::strong_count(&pinned), 2);
    assert_eq!(svc.stats().live_snapshots, 1);

    for k in 0..3 {
        svc.update(&update_op(k)).expect("update");
    }

    // The writer moved on; only the pin keeps the old version alive.
    assert_eq!(
        Arc::strong_count(&pinned),
        1,
        "the handle must have released the superseded version"
    );
    assert_eq!(pinned.update_seq(), 0, "the pin still reads version 0");
    assert_eq!(
        svc.stats().live_snapshots,
        2,
        "old pinned version + current"
    );
    drop(pinned);
    assert_eq!(
        svc.stats().live_snapshots,
        1,
        "dropping the last pin must free the superseded version"
    );
}

#[test]
fn writer_publishes_while_a_stream_is_open() {
    let svc = standard_service();
    let q = queries()[0];
    let baseline = standard_service().query(q).expect("baseline query").output;

    // From inside the streaming callback — the reader demonstrably
    // mid-stream — apply an update. The write must complete (readers
    // hold no lock a writer could stall on) and the open stream must
    // keep reading its pinned pre-update version.
    let updates_done = AtomicUsize::new(0);
    let mut out = String::new();
    let outcome = svc
        .query_streamed(q, &mut |item| {
            out.push_str(item);
            if updates_done.load(Ordering::SeqCst) == 0 {
                let report = svc.update(&update_op(0)).expect("mid-stream update");
                assert_eq!(report.update_seq, 1);
                updates_done.store(1, Ordering::SeqCst);
            }
            true
        })
        .expect("stream survives a concurrent publish");
    assert_eq!(
        updates_done.load(Ordering::SeqCst),
        1,
        "update ran mid-stream"
    );
    assert_eq!(
        outcome.updates_seen, 0,
        "the stream pinned the pre-update version"
    );
    assert_eq!(
        outcome.output, baseline,
        "an open stream must not observe a version published after it began"
    );

    // The next query sees the new version, and the superseded one is
    // gone now that the stream closed.
    let after = svc.query(q).expect("post-update query");
    assert_eq!(after.updates_seen, 1);
    let stats = svc.stats();
    assert_eq!(stats.live_snapshots, 1);
    assert_eq!(stats.snapshot_version, 1);
}
