//! Versioned catalog snapshots with lock-free pinning.
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
//! publishes it with a single atomic pointer swap. Readers **pin** the
//! current version for the whole query and never take a lock:
//! [`CatalogHandle::pin`] is a hazard-pointer protected `Arc` clone —
//! a handful of atomic operations, no mutex, no reader/writer wait.
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
//!
//! # Memory reclamation
//!
//! `pin` cannot be a plain `Arc` clone of a shared field — between
//! loading the pointer and bumping the count, a writer could swap and
//! drop the last reference. The classic fix (what the `arc-swap` crate
//! does; hand-rolled here because the container is offline) is a fixed
//! array of *hazard slots*: a reader claims a slot, advertises the
//! pointer it is about to touch, re-verifies the pointer is still
//! current, and only then bumps the count and releases the slot. The
//! writer, after swapping in the new version, spins until no slot
//! advertises the old pointer before dropping its reference. The slot
//! is held only across the count bump — nanoseconds — never for the
//! query; the query's lifetime is protected by the `Arc` itself.

use std::collections::HashMap;
use std::ops::Deref;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
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

/// Hazard slots available to concurrent pinners. A slot is held only
/// for the few instructions of a pin, so this bounds simultaneous
/// *pin operations*, not concurrent readers — far more than any
/// plausible thread count can occupy at once.
const HAZARD_SLOTS: usize = 64;

/// The owner of a snapshot chain: lock-free reads ([`CatalogHandle::pin`]),
/// single-writer clone-on-write publishes ([`CatalogHandle::write`],
/// [`CatalogHandle::publish_replace`]). See the module docs for the
/// protocol.
pub struct CatalogHandle {
    /// The current version. Owns one strong count of the `Arc` whose
    /// allocation it points at.
    current: AtomicPtr<CatalogSnapshot>,
    /// Pointers readers are mid-pin on; the writer must not drop its
    /// strong count on a pointer advertised here.
    hazards: [AtomicPtr<CatalogSnapshot>; HAZARD_SLOTS],
    /// Serializes writers. Readers never touch it.
    writer: Mutex<()>,
    /// Weak references to every published version, for the
    /// live-snapshot gauge; pruned opportunistically.
    published: Mutex<Vec<Weak<CatalogSnapshot>>>,
}

impl CatalogHandle {
    /// Publish `catalog` as version 0 of a new chain.
    pub fn new(catalog: Catalog) -> CatalogHandle {
        let snap = Arc::new(CatalogSnapshot::from_catalog(catalog));
        CatalogHandle {
            current: AtomicPtr::new(Arc::into_raw(Arc::clone(&snap)).cast_mut()),
            hazards: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            writer: Mutex::new(()),
            published: Mutex::new(vec![Arc::downgrade(&snap)]),
        }
    }

    /// Pin the current version: an `Arc` the caller holds for as long
    /// as it needs one consistent catalog (typically `begin` → `done`
    /// of one query). Lock-free — a writer mid-publish never delays
    /// this, and holding the returned `Arc` never delays a writer.
    pub fn pin(&self) -> Arc<CatalogSnapshot> {
        loop {
            let p = self.current.load(Ordering::SeqCst);
            // Claim a free hazard slot by advertising `p` in it.
            for slot in &self.hazards {
                if slot
                    .compare_exchange(ptr::null_mut(), p, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                // Slot claimed. Re-verify `p` is still current: if the
                // store above landed before a writer's swap (SeqCst
                // total order), the writer's post-swap hazard scan sees
                // it and keeps the allocation alive; if it landed
                // after, this re-load observes the new pointer and we
                // chase it.
                let mut p = p;
                loop {
                    let q = self.current.load(Ordering::SeqCst);
                    if q == p {
                        // Safety: `p` came from `Arc::into_raw` (every
                        // pointer ever stored in `current` does) and the
                        // verified hazard keeps its allocation alive
                        // until the slot clears below.
                        let pinned = unsafe {
                            Arc::increment_strong_count(p);
                            Arc::from_raw(p)
                        };
                        slot.store(ptr::null_mut(), Ordering::SeqCst);
                        return pinned;
                    }
                    slot.store(q, Ordering::SeqCst);
                    p = q;
                }
            }
            // Every slot busy — each is held only across a count bump,
            // so one is about to free.
            std::hint::spin_loop();
        }
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
    /// Writers serialize on an internal mutex; readers are unaffected
    /// before, during, and after (they keep their pinned versions, and
    /// new pins atomically observe the new version).
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
        self.publish(CatalogSnapshot {
            catalog,
            update_seq,
            doc_seqs,
        });
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
        self.publish(CatalogSnapshot {
            catalog,
            update_seq,
            doc_seqs,
        });
        update_seq
    }

    /// Versions still referenced by anyone (the current one plus every
    /// older snapshot a reader still pins) — the leak canary: steady
    /// state with no in-flight query is exactly 1.
    pub fn live_snapshots(&self) -> usize {
        let mut published = self.published.lock().expect("snapshot registry");
        published.retain(|w| w.strong_count() > 0);
        published.len()
    }

    /// Swap `snap` in as the current version and retire the previous
    /// one (caller holds the writer mutex).
    fn publish(&self, snap: CatalogSnapshot) {
        let snap = Arc::new(snap);
        {
            let mut published = self.published.lock().expect("snapshot registry");
            published.retain(|w| w.strong_count() > 0);
            published.push(Arc::downgrade(&snap));
        }
        let fresh = Arc::into_raw(snap).cast_mut();
        let old = self.current.swap(fresh, Ordering::SeqCst);
        // Wait out readers mid-pin on the old pointer. Each hazard is
        // held only across a strong-count bump, so this terminates in
        // nanoseconds; a reader that already bumped holds its own
        // reference and needs no protection from us.
        for slot in &self.hazards {
            while slot.load(Ordering::SeqCst) == old {
                std::hint::spin_loop();
            }
        }
        // Safety: `old` was stored via `Arc::into_raw` and no hazard
        // advertises it; dropping releases the handle's strong count
        // (readers holding pins keep the allocation alive).
        unsafe { drop(Arc::from_raw(old)) };
    }
}

impl Drop for CatalogHandle {
    fn drop(&mut self) {
        let p = *self.current.get_mut();
        if !p.is_null() {
            // Safety: exclusive access (`&mut self`); `p` owns the
            // handle's strong count.
            unsafe { drop(Arc::from_raw(p)) };
        }
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
        // Hazard-pointer hammering: readers pin in a tight loop while
        // the writer publishes versions that keep an invariant (`a.xml`
        // node count equals 3 + update_seq). A torn read — a freed or
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
}
