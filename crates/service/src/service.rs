//! [`QueryService`] — the embeddable query facade.
//!
//! Owns the catalog through a [`CatalogHandle`] (see
//! [`xmldb::snapshot`]): immutable, `Arc`-swapped [`CatalogSnapshot`]
//! versions with one serialized clone-on-write writer. **The read path
//! takes no lock.** A query pins the current snapshot (a few atomic
//! operations) and executes against it from `begin` to `done` — plan
//! resolution and execution see one consistent, immutable catalog
//! version, and a writer publishing mid-stream neither stalls the
//! reader nor is stalled by it. The only mutex a query touches is the
//! [`PlanCache`]'s, for sub-microsecond lookups and inserts;
//! parse/normalize/unnest/compile all run outside it, so a slow compile
//! never blocks cache hits on other connections.
//!
//! Updates go through [`CatalogHandle::try_write`]: the writer clones
//! the current catalog (cheap — everything shares by `Arc` until
//! touched), applies the existing [`xmldb::Catalog`] delta-maintenance
//! wrappers (`insert_subtree` & friends, which keep indexes and
//! statistics consistent), and publishes the next version with one
//! atomic swap. The plan cache notices moved per-document `doc_seq`
//! stamps lazily at the next lookup (revalidate-or-recompile, see
//! [`crate::cache`]); whole-catalog loads move only the reloaded URIs'
//! stamps, so unrelated hot entries stay warm.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use engine::{ExplainReport, PhysPlan};
use nal::obs::{Clock, QueryTrace, Stage};
use nal::{EvalCtx, Metrics, Scope};
use xmldb::{parse_document, Catalog, CatalogHandle, CatalogSnapshot, MaintenanceStats, NodeId};
use xquery::{normalize, parse_query, Fingerprint};

use crate::cache::{CacheCounters, CacheOutcome, Lookup, PlanCache};
use crate::metrics::MetricsRegistry;

/// Service construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Maximum number of cached plans (L0 text memo holds `4×` this).
    pub cache_capacity: usize,
    /// Compile index-backed access paths ([`engine::compile_indexed`])
    /// rather than pure scans.
    pub use_indexes: bool,
    /// Log queries whose whole-query latency reaches this many
    /// microseconds to stderr, with fingerprint and stage breakdown
    /// (`None` disables the slow-query log).
    pub slow_query_us: Option<u64>,
    // xqbench names this; ROADMAP item 4 removes it.
    #[doc(hidden)]
    pub parallel_workers: usize,
    /// Fitted cost-model constants for plan ranking. When set, plan
    /// selection runs [`unnest::rank_plans_calibrated`] with these
    /// constants (e.g. read off the bench harness's `calibration`
    /// experiment) instead of the uncalibrated priors.
    pub calibration: Option<unnest::Calibration>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            cache_capacity: 64,
            use_indexes: true,
            slow_query_us: None,
            parallel_workers: 1,
            calibration: None,
        }
    }
}

/// Anything the service can fail with. Everything renders to one line —
/// the wire protocol ships these verbatim.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// Parse or translate failure.
    Compile(String),
    /// Runtime failure from the executor.
    Exec(String),
    /// Update failure (storage layer or target resolution).
    Update(String),
    /// A referenced document URI is not registered.
    UnknownDocument(String),
    /// Malformed request (bad path syntax, empty target set, …).
    BadRequest(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Compile(m) => write!(f, "compile error: {m}"),
            ServiceError::Exec(m) => write!(f, "execution error: {m}"),
            ServiceError::Update(m) => write!(f, "update error: {m}"),
            ServiceError::UnknownDocument(uri) => write!(f, "unknown document `{uri}`"),
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Everything one query run reports back.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The serialized Ξ output stream.
    pub output: String,
    /// Result rows produced (root-tuple count).
    pub rows: usize,
    /// Label of the plan that ran (`nested`, `semijoin`, …).
    pub plan: String,
    /// How the plan cache participated.
    pub cache: CacheOutcome,
    /// Executor counters for this run.
    pub metrics: Metrics,
    /// Execution wall-clock (excludes planning/cache time).
    pub elapsed: Duration,
    /// `update_seq` of the catalog snapshot this query pinned —
    /// replaying the first `updates_seen` updates on a fresh store must
    /// reproduce `output` byte-for-byte.
    pub updates_seen: u64,
    /// True when a streaming consumer cancelled mid-stream (`output`
    /// then holds only what was produced before the cut).
    pub cancelled: bool,
    /// Stage-level timing of this run (parse/normalize/cache/unnest/
    /// plan/execute spans plus the whole-query total), all read off one
    /// monotonic clock — [`QueryOutcome::elapsed`] equals the execute
    /// span of this trace.
    pub trace: QueryTrace,
    /// FNV-1a fingerprint hash of the normalized query (the plan-cache
    /// identity; what the slow-query log prints).
    pub fingerprint: u64,
}

/// One mutation, addressed by document URI and a structural path
/// (evaluated with the [`xpath`] crate from the document node; the
/// *first* match in document order is the target).
#[derive(Clone, Debug)]
pub enum UpdateOp {
    /// Parse `xml` and insert its root element as the last child of the
    /// first node matching `parent`.
    InsertXml {
        /// Target document URI.
        uri: String,
        /// Path selecting the parent node.
        parent: String,
        /// Well-formed fragment to insert.
        xml: String,
    },
    /// Delete the subtree rooted at the first node matching `path`.
    DeleteFirst {
        /// Target document URI.
        uri: String,
        /// Path selecting the doomed node.
        path: String,
    },
    /// Replace the text content of the first node matching `path`
    /// (a text or attribute node, or an element with a single text
    /// child — resolved by the storage layer's rules).
    ReplaceText {
        /// Target document URI.
        uri: String,
        /// Path selecting the node.
        path: String,
        /// Replacement text.
        text: String,
    },
}

/// What an applied update reports back.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Document that was touched.
    pub uri: String,
    /// The document's index epoch *after* the update.
    pub epoch: u64,
    /// Nodes inserted or removed (1 for text replacement).
    pub nodes: usize,
    /// `update_seq` of the snapshot this update published (1-based).
    pub update_seq: u64,
}

/// Point-in-time counter snapshot ([`QueryService::stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Queries served (successful runs).
    pub queries: u64,
    /// Result rows streamed or materialized across all queries.
    pub rows_streamed: u64,
    /// Updates applied.
    pub updates: u64,
    /// Cache counters (hits, revalidations, misses, invalidations,
    /// evictions, memo hits).
    pub cache: CacheCounters,
    /// Plans currently cached.
    pub cached_plans: usize,
    /// Text-memo entries currently cached.
    pub memo_entries: usize,
    /// Documents registered.
    pub documents: usize,
    /// Current update sequence number (the published snapshot's stamp).
    pub update_seq: u64,
    /// `update_seq` of the currently published catalog snapshot — the
    /// version a query pinning right now would see. Alias of
    /// `update_seq`, named for the snapshot-chain surface.
    pub snapshot_version: u64,
    /// Catalog versions still referenced: the current one plus every
    /// older snapshot an in-flight query still pins. Steady state with
    /// no running query is 1; a persistently higher value means readers
    /// lag versions (long streams over a churning writer).
    pub live_snapshots: u64,
    /// Failed requests (compile, execution, update, or load errors).
    pub errors: u64,
    /// Currently open server connections.
    pub active_sessions: u64,
    /// Queries resolved as plain plan-cache hits.
    pub plan_hits: u64,
    /// Queries resolved by revalidating a stale cached plan.
    pub plan_revalidations: u64,
    /// Queries that recompiled after an invalidated cache entry.
    pub plan_recompiles: u64,
    /// Queries compiled from scratch (no cached plan).
    pub plan_misses: u64,
    /// Cumulative index maintenance counters (posting writes, full
    /// builds, delta updates) from the catalog's index layer.
    pub maintenance: MaintenanceStats,
    /// Median whole-query latency (µs, histogram bucket bound).
    pub query_p50_us: u64,
    /// 90th-percentile whole-query latency (µs).
    pub query_p90_us: u64,
    /// 99th-percentile whole-query latency (µs).
    pub query_p99_us: u64,
    /// Median writer publish latency (µs): clone-on-write + mutation +
    /// atomic swap, for updates and loads.
    pub publish_p50_us: u64,
    /// 99th-percentile writer publish latency (µs).
    pub publish_p99_us: u64,
}

/// What [`QueryService::explain`] reports: the per-operator annotated
/// plan plus the same run metadata a normal query returns.
#[derive(Debug)]
pub struct ExplainOutcome {
    /// The annotated plan tree — measured rows/calls/time/probes and
    /// predicted cost per operator.
    pub report: ExplainReport,
    /// Label of the plan that ran (`nested`, `semijoin`, …).
    pub plan: String,
    /// How the plan cache participated.
    pub cache: CacheOutcome,
    /// Result rows produced.
    pub rows: usize,
    /// Stage-level timing of this run.
    pub trace: QueryTrace,
    /// Fingerprint hash of the normalized query.
    pub fingerprint: u64,
}

/// The embeddable query service (see module docs).
pub struct QueryService {
    config: ServiceConfig,
    catalog: CatalogHandle,
    cache: Mutex<PlanCache>,
    metrics: MetricsRegistry,
}

impl QueryService {
    /// An empty service (no documents registered yet).
    pub fn new(config: ServiceConfig) -> QueryService {
        QueryService::with_catalog(Catalog::new(), config)
    }

    /// Wrap an existing catalog (published as snapshot version 0).
    pub fn with_catalog(catalog: Catalog, config: ServiceConfig) -> QueryService {
        QueryService {
            config,
            catalog: CatalogHandle::new(catalog),
            cache: Mutex::new(PlanCache::new(config.cache_capacity)),
            metrics: MetricsRegistry::new(),
        }
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Parse `xml` and register it under `uri` (replacing any previous
    /// document with that URI), publishing the next snapshot version.
    /// Only this URI's `doc_seq` stamp moves, so cached plans over other
    /// documents keep hitting; entries referencing `uri` revalidate or
    /// recompile lazily at their next lookup.
    pub fn load_xml(&self, uri: &str, xml: &str) -> Result<(), ServiceError> {
        let doc = parse_document(uri, xml).map_err(|e| {
            self.metrics.record_error();
            ServiceError::BadRequest(format!("{e}"))
        })?;
        let clock = Clock::start();
        self.catalog.write(|catalog| {
            catalog.register(doc);
        });
        self.metrics.record_publish(clock.now_us());
        Ok(())
    }

    /// Replace the whole catalog with the standard six-document paper
    /// workload at `scale` ([`xmldb::gen::standard_catalog`]), published
    /// as the next snapshot version. The version stamp advances
    /// monotonically, so stale cache entries can never alias the fresh
    /// documents — they revalidate or recompile lazily, no eager purge.
    pub fn load_standard(&self, scale: usize, seed: u64) -> Result<(), ServiceError> {
        let fresh = xmldb::gen::standard_catalog(scale, 2, seed);
        let clock = Clock::start();
        self.catalog.publish_replace(fresh);
        self.metrics.record_publish(clock.now_us());
        Ok(())
    }

    /// Run `text` to completion and return the materialized outcome.
    pub fn query(&self, text: &str) -> Result<QueryOutcome, ServiceError> {
        let r = self.query_inner(text);
        if r.is_err() {
            self.metrics.record_error();
        }
        r
    }

    fn query_inner(&self, text: &str) -> Result<QueryOutcome, ServiceError> {
        let clock = Clock::start();
        let mut trace = QueryTrace::default();
        let snapshot = self.catalog.pin();
        let updates_seen = snapshot.update_seq();
        let (plan, label, outcome, fingerprint) =
            self.prepare(text, &snapshot, &clock, &mut trace)?;
        let exec_start = clock.now_us();
        let result = engine::run_compiled(&plan, &snapshot)
            .map_err(|e| ServiceError::Exec(format!("{e}")))?;
        let exec_end = clock.now_us();
        trace.record_stage(Stage::Execute, exec_start, exec_end);
        trace.total_us = clock.now_us();
        // One clock for everything: the reported execution time IS the
        // execute span, so `elapsed_us` and the stage breakdown agree.
        let elapsed = Duration::from_micros(exec_end - exec_start);
        self.metrics
            .record_query(outcome, result.rows.len() as u64, trace.total_us);
        self.maybe_log_slow(fingerprint, &trace);
        Ok(QueryOutcome {
            output: result.output,
            rows: result.rows.len(),
            plan: label,
            cache: outcome,
            metrics: result.metrics,
            elapsed,
            updates_seen,
            cancelled: false,
            trace,
            fingerprint,
        })
    }

    /// Run `text` on the pipeline, invoking `on_item` with
    /// each Ξ output increment as the root cursor produces it (one call
    /// per root tuple that extended the output; the concatenation of all
    /// increments is byte-identical to [`QueryOutcome::output`] of
    /// [`QueryService::query`]). `on_item` returning `false` cancels the run —
    /// this is how a dropped client connection stops a long stream.
    ///
    /// The whole stream executes against the snapshot pinned at entry:
    /// no lock is held, a writer publishing versions mid-stream never
    /// stalls `begin`→`done` (and is never stalled by it), and the
    /// pinned version is released when the stream ends.
    pub fn query_streamed(
        &self,
        text: &str,
        on_item: &mut dyn FnMut(&str) -> bool,
    ) -> Result<QueryOutcome, ServiceError> {
        let r = self.query_streamed_inner(text, on_item);
        if r.is_err() {
            self.metrics.record_error();
        }
        r
    }

    fn query_streamed_inner(
        &self,
        text: &str,
        on_item: &mut dyn FnMut(&str) -> bool,
    ) -> Result<QueryOutcome, ServiceError> {
        let clock = Clock::start();
        let mut trace = QueryTrace::default();
        let snapshot = self.catalog.pin();
        let updates_seen = snapshot.update_seq();
        let (plan, label, outcome, fingerprint) =
            self.prepare(text, &snapshot, &clock, &mut trace)?;
        let exec_start = clock.now_us();
        let mut ctx = EvalCtx::new(&snapshot);
        let mut root = engine::pipeline::lower(&plan, &Scope::Empty);
        let mut rows = 0usize;
        let mut flushed = 0usize;
        let mut cancelled = false;
        loop {
            match root.next(&mut ctx) {
                Ok(Some(_tuple)) => {
                    rows += 1;
                    if ctx.out.len() > flushed && !on_item(&ctx.out[flushed..]) {
                        cancelled = true;
                        break;
                    }
                    flushed = ctx.out.len();
                }
                Ok(None) => break,
                Err(e) => {
                    drop(root);
                    return Err(ServiceError::Exec(format!("{e}")));
                }
            }
        }
        if !cancelled && ctx.out.len() > flushed {
            on_item(&ctx.out[flushed..]);
        }
        let exec_end = clock.now_us();
        drop(root);
        trace.record_stage(Stage::Execute, exec_start, exec_end);
        trace.total_us = clock.now_us();
        let elapsed = Duration::from_micros(exec_end - exec_start);
        self.metrics
            .record_query(outcome, rows as u64, trace.total_us);
        self.maybe_log_slow(fingerprint, &trace);
        Ok(QueryOutcome {
            output: ctx.take_output(),
            rows,
            plan: label,
            cache: outcome,
            metrics: ctx.metrics,
            elapsed,
            updates_seen,
            cancelled,
            trace,
            fingerprint,
        })
    }

    /// Apply one mutation through the catalog's delta-maintenance
    /// wrappers and publish the next snapshot version. Writers
    /// serialize among themselves; readers are never blocked (in-flight
    /// queries keep their pinned versions, new queries pin the new one).
    /// A failed update publishes nothing.
    pub fn update(&self, op: &UpdateOp) -> Result<UpdateReport, ServiceError> {
        let clock = Clock::start();
        let r = self.update_inner(op);
        match &r {
            Ok(_) => self.metrics.record_update(clock.now_us()),
            Err(_) => self.metrics.record_error(),
        }
        r
    }

    fn update_inner(&self, op: &UpdateOp) -> Result<UpdateReport, ServiceError> {
        let clock = Clock::start();
        let ((uri, nodes, epoch), update_seq) = self.catalog.try_write(|catalog| {
            let (uri, nodes) = match op {
                UpdateOp::InsertXml { uri, parent, xml } => {
                    let id = catalog
                        .by_uri(uri)
                        .ok_or_else(|| ServiceError::UnknownDocument(uri.clone()))?;
                    let target = first_match(catalog, id, parent)?;
                    let frag = parse_document("fragment", xml)
                        .map_err(|e| ServiceError::BadRequest(format!("bad fragment: {e}")))?;
                    let frag_root = frag
                        .root_element()
                        .ok_or_else(|| ServiceError::BadRequest("empty fragment".to_string()))?;
                    catalog
                        .insert_subtree(id, target, None, &frag, frag_root)
                        .map_err(|e| ServiceError::Update(format!("{e}")))?;
                    (uri.clone(), 1)
                }
                UpdateOp::DeleteFirst { uri, path } => {
                    let id = catalog
                        .by_uri(uri)
                        .ok_or_else(|| ServiceError::UnknownDocument(uri.clone()))?;
                    let target = first_match(catalog, id, path)?;
                    let removed = catalog
                        .delete_subtree(id, target)
                        .map_err(|e| ServiceError::Update(format!("{e}")))?;
                    (uri.clone(), removed)
                }
                UpdateOp::ReplaceText { uri, path, text } => {
                    let id = catalog
                        .by_uri(uri)
                        .ok_or_else(|| ServiceError::UnknownDocument(uri.clone()))?;
                    let mut target = first_match(catalog, id, path)?;
                    // Structural paths address elements; the storage layer
                    // wants the text node itself. Resolve an element target
                    // to its first text child.
                    {
                        let doc = catalog.doc(id);
                        if doc.kind(target).is_element() {
                            target = doc
                                .children(target)
                                .find(|&c| matches!(doc.kind(c), xmldb::NodeKind::Text))
                                .ok_or_else(|| {
                                    ServiceError::BadRequest(format!(
                                        "path `{path}` selects an element with no text child"
                                    ))
                                })?;
                        }
                    }
                    catalog
                        .replace_text(id, target, text)
                        .map_err(|e| ServiceError::Update(format!("{e}")))?;
                    (uri.clone(), 1)
                }
            };
            let id = catalog.by_uri(&uri).expect("checked above");
            let epoch = catalog.epoch(id);
            Ok((uri, nodes, epoch))
        })?;
        self.metrics.record_publish(clock.now_us());
        Ok(UpdateReport {
            uri,
            epoch,
            nodes,
            update_seq,
        })
    }

    /// Counter snapshot. Every counter is read from the same
    /// [`MetricsRegistry`] the `metrics` op renders, so the `stats` and
    /// `metrics` wire surfaces agree by construction.
    pub fn stats(&self) -> ServiceStats {
        let (cache, cached_plans, memo_entries) = {
            let c = self.cache.lock().expect("cache lock");
            (c.counters(), c.len(), c.memo_len())
        };
        let snapshot = self.catalog.pin();
        let (plan_hits, plan_revalidations, plan_recompiles, plan_misses) =
            self.metrics.plan_outcomes();
        let latency = self.metrics.query_latency();
        let publish = self.metrics.publish_latency();
        ServiceStats {
            queries: self.metrics.queries(),
            rows_streamed: self.metrics.rows_streamed(),
            updates: self.metrics.updates(),
            cache,
            cached_plans,
            memo_entries,
            documents: snapshot.len(),
            update_seq: snapshot.update_seq(),
            snapshot_version: snapshot.update_seq(),
            live_snapshots: self.catalog.live_snapshots() as u64,
            errors: self.metrics.errors(),
            active_sessions: self.metrics.active_sessions(),
            plan_hits,
            plan_revalidations,
            plan_recompiles,
            plan_misses,
            maintenance: snapshot.index_maintenance_stats(),
            query_p50_us: latency.quantile_us(0.5),
            query_p90_us: latency.quantile_us(0.9),
            query_p99_us: latency.quantile_us(0.99),
            publish_p50_us: publish.quantile_us(0.5),
            publish_p99_us: publish.quantile_us(0.99),
        }
    }

    /// The service's metrics registry (histogram snapshots, gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// EXPLAIN ANALYZE: resolve `text` exactly as [`QueryService::query`]
    /// would (same cache path), run it with
    /// per-operator tracing, and pair every operator's measured
    /// rows/calls/time/probes with the cost model's predicted cost for
    /// that node. Counts toward the query counters like any other run.
    pub fn explain(&self, text: &str) -> Result<ExplainOutcome, ServiceError> {
        let r = self.explain_inner(text);
        if r.is_err() {
            self.metrics.record_error();
        }
        r
    }

    fn explain_inner(&self, text: &str) -> Result<ExplainOutcome, ServiceError> {
        let clock = Clock::start();
        let mut trace = QueryTrace::default();
        let snapshot = self.catalog.pin();
        let (plan, label, outcome, fingerprint) =
            self.prepare(text, &snapshot, &clock, &mut trace)?;
        let exec_start = clock.now_us();
        let (result, exec_trace) =
            engine::run_traced(&plan, &snapshot).map_err(|e| ServiceError::Exec(format!("{e}")))?;
        let exec_end = clock.now_us();
        trace.record_stage(Stage::Execute, exec_start, exec_end);
        trace.total_us = clock.now_us();
        let mut report = ExplainReport::from_trace(&plan, &exec_trace);
        report.annotate_costs(&unnest::plan_cost_map(
            &plan,
            &snapshot,
            self.config.use_indexes,
        ));
        self.metrics
            .record_query(outcome, result.rows.len() as u64, trace.total_us);
        self.maybe_log_slow(fingerprint, &trace);
        Ok(ExplainOutcome {
            report,
            plan: label,
            cache: outcome,
            rows: result.rows.len(),
            trace,
            fingerprint,
        })
    }

    fn maybe_log_slow(&self, fingerprint: u64, trace: &QueryTrace) {
        if let Some(threshold) = self.config.slow_query_us {
            if trace.total_us >= threshold {
                eprintln!(
                    "[xqd] slow query fp={fingerprint:016x} total={}us {}",
                    trace.total_us,
                    trace.breakdown()
                );
            }
        }
    }

    /// Run `f` against the current snapshot (test and bench hook).
    pub fn with_catalog_read<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&self.catalog.pin())
    }

    /// Pin the current catalog snapshot — the same version a query
    /// starting now would execute against. Test and bench hook for
    /// observing snapshot lifetimes (`Arc::strong_count`) and stamps.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.catalog.pin()
    }

    /// Resolve `text` to an executable plan: L0 text memo → L1 plan
    /// cache → full frontend. See [`crate::cache`] for the outcome
    /// taxonomy. Compilation runs *outside* the cache mutex. Records
    /// parse/normalize/cache-lookup/unnest/plan stage spans on `trace`
    /// (all read off `clock`) and returns the fingerprint hash along
    /// with the plan.
    fn prepare(
        &self,
        text: &str,
        snapshot: &CatalogSnapshot,
        clock: &Clock,
        trace: &mut QueryTrace,
    ) -> Result<(Arc<PhysPlan>, String, CacheOutcome, u64), ServiceError> {
        let use_indexes = self.config.use_indexes;
        let mut invalidated = false;
        let t0 = clock.now_us();
        let looked_up = {
            let mut cache = self.cache.lock().expect("cache lock");
            cache.memo_get(text, snapshot).map(|fp| {
                let lookup = cache.lookup(&fp, use_indexes, snapshot);
                (fp, lookup)
            })
        };
        trace.record_stage(Stage::CacheLookup, t0, clock.now_us());
        let memo_fp = match looked_up {
            Some((fp, Lookup::Hit(plan, label))) => {
                return Ok((plan, label, CacheOutcome::Hit, fp.hash));
            }
            Some((fp, Lookup::Revalidated(plan, label))) => {
                return Ok((plan, label, CacheOutcome::Revalidated, fp.hash));
            }
            Some((fp, Lookup::Invalidated)) => {
                invalidated = true;
                Some(fp)
            }
            Some((fp, Lookup::Miss)) => Some(fp),
            None => None,
        };

        // Slow path. Parsing + normalization are needed for translation
        // even when the fingerprint was memoized.
        let t = clock.now_us();
        let parsed = parse_query(text).map_err(|e| ServiceError::Compile(format!("{e}")))?;
        trace.record_stage(Stage::Parse, t, clock.now_us());
        let t = clock.now_us();
        let normalized = normalize(&parsed, snapshot);
        trace.record_stage(Stage::Normalize, t, clock.now_us());
        let fp = match memo_fp {
            Some(fp) => fp,
            None => {
                let fp = Fingerprint::of_normalized(&normalized);
                let t = clock.now_us();
                let lookup = {
                    let mut cache = self.cache.lock().expect("cache lock");
                    cache.memo_put(text, &fp, snapshot);
                    // Another query text may have compiled this same
                    // canonical form already.
                    cache.lookup(&fp, use_indexes, snapshot)
                };
                trace.record_stage(Stage::CacheLookup, t, clock.now_us());
                match lookup {
                    Lookup::Hit(plan, label) => {
                        return Ok((plan, label, CacheOutcome::Hit, fp.hash));
                    }
                    Lookup::Revalidated(plan, label) => {
                        return Ok((plan, label, CacheOutcome::Revalidated, fp.hash));
                    }
                    Lookup::Invalidated => {
                        invalidated = true;
                        fp
                    }
                    Lookup::Miss => fp,
                }
            }
        };

        let t = clock.now_us();
        let expr = xquery::translate(&normalized, snapshot)
            .map_err(|e| ServiceError::Compile(format!("{e}")))?;
        let candidates = unnest::enumerate_plans(&expr, snapshot);
        let ranked = match self.config.calibration {
            Some(cal) => unnest::rank_plans_calibrated(candidates, snapshot, use_indexes, cal),
            None => unnest::rank_plans_with(candidates, snapshot, use_indexes),
        };
        trace.record_stage(Stage::Unnest, t, clock.now_us());
        let (choice, _estimate) = ranked
            .into_iter()
            .next()
            .expect("enumerate_plans yields at least the nested plan");
        let label = choice.label;
        let t = clock.now_us();
        let compiled = if use_indexes {
            engine::compile_indexed(&choice.expr, snapshot)
        } else {
            engine::compile(&choice.expr)
        };
        let plan = Arc::new(compiled);
        self.cache.lock().expect("cache lock").insert(
            &fp,
            use_indexes,
            Arc::clone(&plan),
            label.clone(),
            snapshot,
        );
        trace.record_stage(Stage::Plan, t, clock.now_us());
        let outcome = if invalidated {
            CacheOutcome::Recompiled
        } else {
            CacheOutcome::Miss
        };
        Ok((plan, label, outcome, fp.hash))
    }
}

/// First node (document order) matching `path` in document `id`,
/// evaluated from the document node.
fn first_match(catalog: &Catalog, id: xmldb::DocId, path: &str) -> Result<NodeId, ServiceError> {
    let parsed = xpath::parse_path(path)
        .map_err(|e| ServiceError::BadRequest(format!("bad path `{path}`: {e}")))?;
    let mut counters = xpath::EvalCounters::default();
    let doc = catalog.doc(id);
    let hits = xpath::eval_path(doc, &[NodeId::DOCUMENT], &parsed, &mut counters);
    hits.into_iter().next().ok_or_else(|| {
        ServiceError::BadRequest(format!("path `{path}` matches nothing in `{}`", doc.uri))
    })
}
