//! Versioned catalog snapshots.
//!
//! The store's concurrency model is MVCC at the catalog granularity:
//! an immutable [`CatalogSnapshot`] is one published version of every
//! document, its built indexes, and its memoized statistics, stamped
//! with the `update_seq` at which it was produced. A [`CatalogHandle`]
//! owns the chain: one serialized writer produces the next version by
//! **cloning-on-write** only the touched structures (document arenas
//! share via `Arc` until [`Arc::make_mut`] inside the catalog's update
//! wrappers forces a copy of the one touched document; cached indexes
//! share the same way until [`crate::index::delta`] maintains them) and
//! publishes it by swapping one `Arc`. Readers **pin** the current
//! version for the whole query: [`CatalogHandle::pin`] clones that
//! `Arc` under a mutex which is held only for the clone or the swap —
//! never while a writer builds its next version, and never while a
//! reader runs its query.
//!
//! Why a query needs a pinned version at all: the ordered-context
//! guarantees of the paper's unnesting equivalences (and the
//! certain-answer arguments they lean on) assume the document order a
//! query observes is *one* order. A reader that saw half of an applied
//! reordering could observe tuples in an order no catalog version ever
//! had. Pinning makes every query's view exactly one `update_seq`.
//!
//! # Version stamps
//!
//! Each snapshot carries, besides its own `update_seq`, a per-URI
//! `doc_seq`: the `update_seq` of the last version that changed that
//! document. Plan- and memo-cache entries stamp themselves with the
//! `doc_seq`s of their referenced URIs; a stamp is stale exactly when
//! one of those documents changed since. Unlike the index-epoch vectors
//! these replace, `doc_seq`s are **monotone across wholesale reloads**
//! (they derive from the ever-growing `update_seq`), so a reload can
//! never alias an old stamp and caches need no eager purge.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, Weak};

use crate::catalog::Catalog;

/// One immutable published version of a [`Catalog`].
///
/// Logically read-only: the update API takes `&mut Catalog` and is only
/// reachable through [`CatalogHandle::write`], which mutates a private
/// clone. The interior-mutable caches (lazily built indexes, memoized
/// statistics) still fill in on first use — that is cache warming, not
/// a logical state change, and is invisible to the version stamps.
///
/// Derefs to [`Catalog`], so every `&Catalog` consumer (the engine, the
/// cost model, the serializers) accepts a pinned snapshot unchanged.
pub struct CatalogSnapshot {
    catalog: Catalog,
    update_seq: u64,
    doc_seqs: HashMap<String, u64>,
}

/// Sentinel `doc_seq` for a URI the snapshot does not contain. Real
/// stamps derive from `update_seq` and can never reach it, so an entry
/// stamped "absent" stays valid until the document actually appears.
pub const DOC_SEQ_ABSENT: u64 = u64::MAX;

impl CatalogSnapshot {
    /// Wrap a catalog as version 0 (every document stamped 0). The
    /// entry point for single-owner use — tests, benches, and the
    /// initial version of a [`CatalogHandle`].
    pub fn from_catalog(catalog: Catalog) -> CatalogSnapshot {
        let doc_seqs = catalog.iter().map(|(_, d)| (d.uri.clone(), 0)).collect();
        CatalogSnapshot {
            catalog,
            update_seq: 0,
            doc_seqs,
        }
    }

    /// The version stamp: how many writes (updates and loads) the chain
    /// had absorbed when this snapshot was published.
    pub fn update_seq(&self) -> u64 {
        self.update_seq
    }

    /// The `update_seq` of the last version that changed `uri`
    /// ([`DOC_SEQ_ABSENT`] when the snapshot has no such document).
    /// Monotone per URI across every mutation kind, including wholesale
    /// reloads — the stamp cache entries validate against.
    pub fn doc_seq(&self, uri: &str) -> u64 {
        self.doc_seqs.get(uri).copied().unwrap_or(DOC_SEQ_ABSENT)
    }

    /// The wrapped catalog (also reachable via `Deref`).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

impl Deref for CatalogSnapshot {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.catalog
    }
}

/// The owner of a snapshot chain: pins under a short lock
/// ([`CatalogHandle::pin`]), single-writer clone-on-write publishes
/// ([`CatalogHandle::write`], [`CatalogHandle::publish_replace`]). See
/// the module docs for the protocol.
pub struct CatalogHandle {
    /// The current version and the live-snapshot registry. Held only
    /// for an `Arc` clone (a pin) or a swap (a publish), never across a
    /// writer's mutation.
    published: Mutex<Published>,
    /// Serializes writers. Readers never touch it.
    writer: Mutex<()>,
}

struct Published {
    current: Arc<CatalogSnapshot>,
    /// Weak references to every published version, for the
    /// live-snapshot gauge; pruned opportunistically.
    versions: Vec<Weak<CatalogSnapshot>>,
}

impl CatalogHandle {
    /// Publish `catalog` as version 0 of a new chain.
    pub fn new(catalog: Catalog) -> CatalogHandle {
        let current = Arc::new(CatalogSnapshot::from_catalog(catalog));
        CatalogHandle {
            published: Mutex::new(Published {
                versions: vec![Arc::downgrade(&current)],
                current,
            }),
            writer: Mutex::new(()),
        }
    }

    /// Pin the current version: an `Arc` the caller holds for as long
    /// as it needs one consistent catalog (typically `begin` → `done`
    /// of one query). An `Arc` clone under the pin lock: a writer's
    /// mutation never delays it, and holding the `Arc` never delays a
    /// writer.
    pub fn pin(&self) -> Arc<CatalogSnapshot> {
        Arc::clone(&self.published.lock().expect("snapshot lock").current)
    }

    /// The current version stamp (equivalent to `pin().update_seq()`).
    pub fn update_seq(&self) -> u64 {
        self.pin().update_seq
    }

    /// Apply one mutation and publish the next version. `f` runs
    /// against a clone of the current catalog — cheap by construction:
    /// the clone shares every document arena, index, and statistics
    /// block by `Arc` until the mutation's own `Arc::make_mut` calls
    /// copy exactly the touched document (and the delta machinery
    /// copies exactly the touched indexes). Returns `f`'s result and
    /// the published `update_seq`.
    ///
    /// Writers serialize on an internal mutex that readers never take;
    /// `f` runs without the pin lock, so readers are unaffected before,
    /// during, and after (they keep their pinned versions, and a pin
    /// observes either the old version or the new one, never a mix).
    pub fn write<R>(&self, f: impl FnOnce(&mut Catalog) -> R) -> (R, u64) {
        match self.try_write::<R, std::convert::Infallible>(|c| Ok(f(c))) {
            Ok(out) => out,
            Err(e) => match e {},
        }
    }

    /// [`CatalogHandle::write`] for fallible mutations: on `Err` the
    /// clone is discarded and **no version is published** — readers can
    /// never observe a half-applied failed mutation.
    pub fn try_write<R, E>(
        &self,
        f: impl FnOnce(&mut Catalog) -> Result<R, E>,
    ) -> Result<(R, u64), E> {
        let _writer = self.writer.lock().expect("writer lock");
        let prev = self.pin();
        let mut catalog = prev.catalog.clone();
        let r = f(&mut catalog)?;
        let update_seq = prev.update_seq + 1;
        let doc_seqs = next_doc_seqs(&prev, &catalog, update_seq);
        self.publish(catalog, update_seq, doc_seqs);
        Ok((r, update_seq))
    }

    /// Replace the catalog wholesale (the `load_standard` path): every
    /// document of the new catalog is stamped with the new version,
    /// documents only the old catalog had become absent. The version
    /// stamp still advances monotonically — a reload never resets the
    /// chain, which is what lets caches skip the eager purge.
    pub fn publish_replace(&self, catalog: Catalog) -> u64 {
        let _writer = self.writer.lock().expect("writer lock");
        let update_seq = self.pin().update_seq + 1;
        let doc_seqs = catalog
            .iter()
            .map(|(_, d)| (d.uri.clone(), update_seq))
            .collect();
        self.publish(catalog, update_seq, doc_seqs);
        update_seq
    }

    /// Versions still referenced by anyone (the current one plus every
    /// older snapshot a reader still pins) — the leak canary: steady
    /// state with no in-flight query is exactly 1.
    pub fn live_snapshots(&self) -> usize {
        let mut published = self.published.lock().expect("snapshot lock");
        published.versions.retain(|w| w.strong_count() > 0);
        published.versions.len()
    }

    /// Swap the new version in as the current one and retire the
    /// previous one (caller holds the writer mutex).
    fn publish(&self, catalog: Catalog, update_seq: u64, doc_seqs: HashMap<String, u64>) {
        let snap = Arc::new(CatalogSnapshot {
            catalog,
            update_seq,
            doc_seqs,
        });
        let superseded = {
            let mut published = self.published.lock().expect("snapshot lock");
            published.versions.retain(|w| w.strong_count() > 0);
            published.versions.push(Arc::downgrade(&snap));
            std::mem::replace(&mut published.current, snap)
        };
        // Outside the lock: with no reader pinning it, this frees a
        // whole catalog, and no pin should wait for that.
        drop(superseded);
    }
}

/// Per-URI stamps of the next version: a document keeps its previous
/// stamp when nothing about it changed (same shared arena, same index
/// epoch), and takes the new `update_seq` when the write touched it —
/// including re-registration and first registration.
fn next_doc_seqs(prev: &CatalogSnapshot, next: &Catalog, update_seq: u64) -> HashMap<String, u64> {
    next.iter()
        .map(|(id, doc)| {
            let untouched = prev.catalog.by_uri(&doc.uri).is_some_and(|old| {
                Arc::ptr_eq(prev.catalog.doc(old), doc) && prev.catalog.epoch(old) == next.epoch(id)
            });
            let seq = if untouched {
                prev.doc_seq(&doc.uri)
            } else {
                update_seq
            };
            (doc.uri.clone(), seq)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use std::sync::atomic::Ordering;
    use std::sync::mpsc;
    use std::time::Duration;

    fn two_doc_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(parse_document("a.xml", "<r><x>1</x><x>2</x></r>").unwrap());
        cat.register(parse_document("b.xml", "<r><y>9</y></r>").unwrap());
        cat
    }

    #[test]
    fn pin_returns_the_published_version() {
        let handle = CatalogHandle::new(two_doc_catalog());
        let snap = handle.pin();
        assert_eq!(snap.update_seq(), 0);
        assert_eq!(snap.doc_seq("a.xml"), 0);
        assert_eq!(snap.doc_seq("missing.xml"), DOC_SEQ_ABSENT);
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn write_bumps_only_the_touched_documents_stamp() {
        let handle = CatalogHandle::new(two_doc_catalog());
        let before = handle.pin();
        let ((), seq) = handle.write(|cat| {
            let id = cat.by_uri("a.xml").unwrap();
            let root = cat.doc(id).root_element().unwrap();
            let frag = parse_document("frag", "<x>3</x>").unwrap();
            let frag_root = frag.root_element().unwrap();
            cat.insert_subtree(id, root, None, &frag, frag_root)
                .unwrap();
        });
        assert_eq!(seq, 1);
        let after = handle.pin();
        assert_eq!(after.update_seq(), 1);
        assert_eq!(after.doc_seq("a.xml"), 1, "touched doc takes the new seq");
        assert_eq!(after.doc_seq("b.xml"), 0, "untouched doc keeps its stamp");
        // The old version is unperturbed (snapshot isolation) …
        let a_old = before.by_uri("a.xml").unwrap();
        assert_eq!(before.doc(a_old).node_count() + 2, {
            let a_new = after.by_uri("a.xml").unwrap();
            after.doc(a_new).node_count()
        });
        // … and the untouched document arena is *shared*, not copied.
        let b_old = before.by_uri("b.xml").unwrap();
        let b_new = after.by_uri("b.xml").unwrap();
        assert!(
            Arc::ptr_eq(before.doc(b_old), after.doc(b_new)),
            "clone-on-write must not copy untouched documents"
        );
    }

    #[test]
    fn failed_try_write_publishes_nothing() {
        let handle = CatalogHandle::new(two_doc_catalog());
        let r: Result<((), u64), &str> = handle.try_write(|cat| {
            cat.register(parse_document("c.xml", "<c/>").unwrap());
            Err("abort")
        });
        assert_eq!(r, Err("abort"));
        let snap = handle.pin();
        assert_eq!(snap.update_seq(), 0, "no version published");
        assert!(snap.by_uri("c.xml").is_none(), "mutation discarded");
    }

    #[test]
    fn publish_replace_restamps_everything_monotonically() {
        let handle = CatalogHandle::new(two_doc_catalog());
        handle.write(|_| ());
        let seq = handle.publish_replace({
            let mut cat = Catalog::new();
            cat.register(parse_document("a.xml", "<r/>").unwrap());
            cat
        });
        assert_eq!(seq, 2);
        let snap = handle.pin();
        assert_eq!(snap.doc_seq("a.xml"), 2);
        assert_eq!(snap.doc_seq("b.xml"), DOC_SEQ_ABSENT, "dropped by reload");
    }

    #[test]
    fn old_versions_are_freed_when_unpinned() {
        let handle = CatalogHandle::new(two_doc_catalog());
        let pinned = handle.pin();
        assert_eq!(Arc::strong_count(&pinned), 2, "handle + this pin");
        handle.write(|_| ());
        assert_eq!(
            Arc::strong_count(&pinned),
            1,
            "publish must retire the handle's reference to the old version"
        );
        assert_eq!(handle.live_snapshots(), 2, "old version pinned here");
        drop(pinned);
        assert_eq!(handle.live_snapshots(), 1, "only the current version");
    }

    #[test]
    fn concurrent_pins_always_observe_a_complete_version() {
        // Pin hammering: readers pin in a tight loop while the writer
        // publishes versions that keep an invariant (`a.xml` node count
        // equals base + 2 × update_seq). A torn read — a freed or
        // half-published snapshot — breaks the invariant or crashes.
        let handle = Arc::new(CatalogHandle::new(two_doc_catalog()));
        let base = {
            let snap = handle.pin();
            let id = snap.by_uri("a.xml").unwrap();
            snap.doc(id).node_count() as u64
        };
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // The writer starts only once every reader has pinned: without
        // the rendezvous, 200 writes can finish before a reader thread
        // is first scheduled, and nothing was hammered.
        let first_pins = Arc::new(std::sync::Barrier::new(5));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = Arc::clone(&handle);
                let stop = Arc::clone(&stop);
                let first_pins = Arc::clone(&first_pins);
                std::thread::spawn(move || {
                    let pin_and_check = || {
                        let snap = handle.pin();
                        let id = snap.by_uri("a.xml").unwrap();
                        assert_eq!(
                            snap.doc(id).node_count() as u64,
                            base + 2 * snap.update_seq(),
                            "torn snapshot"
                        );
                    };
                    pin_and_check();
                    first_pins.wait();
                    let mut pins = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        pin_and_check();
                        pins += 1;
                    }
                    pins
                })
            })
            .collect();
        first_pins.wait();
        for _ in 0..200 {
            handle.write(|cat| {
                let id = cat.by_uri("a.xml").unwrap();
                let root = cat.doc(id).root_element().unwrap();
                let frag = parse_document("frag", "<x>0</x>").unwrap();
                let frag_root = frag.root_element().unwrap();
                cat.insert_subtree(id, root, None, &frag, frag_root)
                    .unwrap();
            });
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(total > 0, "readers must have pinned");
        assert_eq!(handle.pin().update_seq(), 200);
        assert_eq!(handle.live_snapshots(), 1, "no version leaked");
    }

    #[test]
    fn a_pin_never_waits_for_a_writers_closure() {
        // The closure returns only once another thread has pinned, so a
        // pin that waited for the writer fails on the timeout, not a hang.
        let handle = CatalogHandle::new(two_doc_catalog());
        let (tx, rx) = mpsc::channel();
        let ((seq_seen, mid_write), seq) = std::thread::scope(|s| {
            handle.write(|_| {
                let handle = &handle;
                s.spawn(move || tx.send((handle.update_seq(), handle.pin())).unwrap());
                rx.recv_timeout(Duration::from_secs(5))
                    .expect("a pin taken during a write must not wait for the writer")
            })
        });
        assert_eq!(
            (seq_seen, mid_write.update_seq()),
            (0, 0),
            "pinned mid-write"
        );
        assert_eq!((seq, handle.pin().update_seq()), (1, 1), "pinned after");
        assert_eq!(handle.live_snapshots(), 2, "old version pinned here");
        drop(mid_write);
        assert_eq!(handle.live_snapshots(), 1, "only the current version");
    }
}
