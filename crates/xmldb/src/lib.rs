//! `xmldb` — an arena-backed XML document store.
//!
//! This crate is the storage substrate for the ordered-unnesting project
//! (May/Helmer/Moerkotte, *Nested Queries and Quantifiers in an Ordered
//! Context*, ICDE 2004). It provides everything the paper's experiments
//! assume from the Natix storage layer:
//!
//! * an in-memory, arena-backed [`Document`] with cheap node handles
//!   ([`NodeId`]) whose numeric order *is* document order,
//! * an XML [`parser`] and [`serializer`],
//! * a [`dtd`] model plus [`schema`] facts derived from it (these drive the
//!   correctness conditions of unnesting equivalences 3/5/8/9),
//! * deterministic data [`gen`]erators replacing ToXgene for the paper's
//!   six workloads (Fig. 5 / Fig. 6), and
//! * a [`Catalog`] mapping document URIs (`"bib.xml"`) to loaded documents.
//!
//! The store is **mutable**: documents are built once (by the parser or a
//! generator), read by the query engine during execution, and updated
//! *between* executions through [`Document::insert_subtree`],
//! [`Document::delete_subtree`], and [`Document::replace_text`] — or
//! their [`Catalog`] wrappers, which additionally keep the built indexes
//! and statistics consistent via posting-list deltas
//! ([`index::delta`]). Gap-based ordering keys keep [`NodeId`]
//! comparison equal to document order across mid-document inserts
//! without renumbering the arena; see `docs/ARCHITECTURE.md` for the
//! full invariant story.
//!
//! For concurrent serving, [`snapshot`] layers MVCC on top: a
//! [`CatalogHandle`] publishes immutable, `Arc`-swapped
//! [`CatalogSnapshot`] versions so readers pin one consistent ordered
//! context per query without ever taking a lock, while a single writer
//! clones-on-write only the touched structures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod document;
pub mod dtd;
pub mod gen;
pub mod index;
pub mod node;
pub mod parser;
pub mod schema;
pub mod serializer;
pub mod snapshot;
pub mod stats;

pub use catalog::{Catalog, DocId};
pub use document::{Document, DocumentBuilder, UpdateError};
pub use dtd::{AttDef, ContentParticle, ContentSpec, Dtd, ElementDecl, Repetition};
pub use index::{
    AncestorChainSpec, CompositeEntry, CompositeSpec, CompositeValueIndex, IndexCatalog,
    KeyComponent, MaintenanceMode, MaintenanceStats, MemberSpec, PathIndex, PathPattern,
    PatternStep, ValueIndex, ValueKey,
};
pub use node::{NodeId, NodeKind};
pub use parser::{parse_document, ParseError};
pub use schema::{Occurrence, SchemaFacts};
pub use snapshot::{CatalogHandle, CatalogSnapshot};
pub use stats::DocStats;

// Compile-time `Send + Sync` audit: concurrent serving shares one
// `Catalog` (and everything reachable from it) across reader threads by
// `&`, so these bounds are load-bearing API. Evaluating the constant
// fails to *compile* if an `Rc`, a `RefCell`, or any other non-thread-safe
// interior ever sneaks into these types — the `static_assertions` idiom,
// hand-rolled because the container is offline.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Catalog>();
    assert_send_sync::<CatalogSnapshot>();
    assert_send_sync::<CatalogHandle>();
    assert_send_sync::<Document>();
    assert_send_sync::<DocStats>();
    assert_send_sync::<IndexCatalog>();
    assert_send_sync::<PathIndex>();
    assert_send_sync::<ValueIndex>();
    assert_send_sync::<CompositeValueIndex>();
    assert_send_sync::<MaintenanceStats>();
    assert_send_sync::<NodeId>();
    assert_send_sync::<ValueKey>();
};
