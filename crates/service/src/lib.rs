//! `service` — the long-running query service over the
//! ordered-unnesting pipeline, in two layers:
//!
//! 1. [`QueryService`] ([`service`]): an embeddable facade owning the
//!    catalog through a lock-free [`xmldb::CatalogHandle`] (immutable
//!    `Arc`-swapped snapshot versions; every query pins one version for
//!    its whole lifetime) plus a bounded, `doc_seq`-stamped plan cache
//!    ([`cache`]). Repeated queries skip the whole frontend
//!    (parse → normalize → unnest → compile) on a cache hit; updates
//!    clone-on-write through the catalog's delta-maintenance wrappers
//!    and publish the next version, whose moved stamps invalidate
//!    exactly the stale entries. Readers never take a lock and never
//!    stall behind the single serialized writer.
//! 2. `xqd-server` ([`server`] + [`proto`]): a TCP server speaking
//!    newline-delimited JSON ([`json`]) that streams query results
//!    item-by-item from the pull-based executor.
//!
//! ```
//! use service::{QueryService, ServiceConfig};
//! let svc = QueryService::new(ServiceConfig::default());
//! svc.load_xml("bib.xml", "<bib><book><title>a</title></book></bib>").unwrap();
//! let q = r#"let $d := doc("bib.xml") for $t in $d//book/title return <t>{ $t }</t>"#;
//! let cold = svc.query(q).unwrap();
//! let warm = svc.query(q).unwrap();
//! assert_eq!(cold.output, warm.output);
//! assert_eq!(warm.cache.label(), "hit");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod service;

pub use cache::{CacheCounters, CacheOutcome, PlanCache};
pub use json::Json;
pub use metrics::{render_prometheus, HistogramSnapshot, LatencyHistogram, MetricsRegistry};
pub use server::{serve, ServerConfig, ServerHandle};
pub use service::{
    ExplainOutcome, QueryOutcome, QueryService, ServiceConfig, ServiceError, ServiceStats,
    UpdateOp, UpdateReport,
};

// Compile-time `Send + Sync` audit (complementing the one in `xmldb`):
// the server shares one `QueryService` across connection threads via
// `Arc`, and cached plans (with their access recipes) cross the cache
// mutex between threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<xmldb::CatalogSnapshot>();
    assert_send_sync::<xmldb::CatalogHandle>();
    assert_send_sync::<engine::PhysPlan>();
    assert_send_sync::<engine::AccessRecipe>();
    assert_send_sync::<xquery::Fingerprint>();
};
