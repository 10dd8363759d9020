//! The service metrics registry: lock-free atomic counters and fixed
//! log-bucket latency histograms, with a Prometheus text exposition.
//!
//! One [`MetricsRegistry`] lives on the [`crate::QueryService`] and is
//! the **single source** for the service-level counters — the `stats`
//! op, the `metrics` op, and [`crate::service::ServiceStats`] all read
//! the same atomics, so the two wire surfaces can never disagree.
//! Everything is plain `std::sync::atomic`; recording a sample is a
//! handful of relaxed fetch-adds, cheap enough to run on every query.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::CacheOutcome;
use crate::service::ServiceStats;

/// Upper bounds (inclusive, microseconds) of the finite histogram
/// buckets: powers of two from 1 µs to ~1 s. Samples above the last
/// bound land in the implicit `+Inf` bucket.
pub const BUCKET_BOUNDS_US: [u64; 21] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 32_768, 65_536,
    131_072, 262_144, 524_288, 1_048_576,
];

/// Total bucket count including the `+Inf` overflow bucket.
const BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// A fixed log₂-bucket latency histogram over atomic counters.
/// Observation is one relaxed fetch-add per sample (plus the running
/// sum); snapshots are consistent enough for monitoring (buckets are
/// read one by one, not under a lock).
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Record one sample (microseconds).
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, parallel to [`BUCKET_BOUNDS_US`] with
    /// one trailing `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Sum of all recorded samples (µs).
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile (0 < q ≤ 1) as a bucket upper bound: the
    /// smallest bound whose cumulative count reaches `ceil(q·count)`.
    /// Samples in the `+Inf` bucket report the last finite bound (the
    /// histogram cannot resolve beyond it). Returns 0 on an empty
    /// histogram. Monotonic in `q` by construction.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BUCKET_BOUNDS_US
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]);
            }
        }
        BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]
    }

    /// Merge another snapshot into this one (bucketwise sum) — shards
    /// of the same bucket layout combine exactly.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum_us += other.sum_us;
    }
}

/// The service-wide metrics registry (see module docs).
pub struct MetricsRegistry {
    queries: AtomicU64,
    rows_streamed: AtomicU64,
    updates: AtomicU64,
    errors: AtomicU64,
    active_sessions: AtomicU64,
    plan_hits: AtomicU64,
    plan_revalidations: AtomicU64,
    plan_recompiles: AtomicU64,
    plan_misses: AtomicU64,
    query_latency: LatencyHistogram,
    update_latency: LatencyHistogram,
    publish_latency: LatencyHistogram,
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            queries: AtomicU64::new(0),
            rows_streamed: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            active_sessions: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_revalidations: AtomicU64::new(0),
            plan_recompiles: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            query_latency: LatencyHistogram::new(),
            update_latency: LatencyHistogram::new(),
            publish_latency: LatencyHistogram::new(),
        }
    }

    /// Record one served query: total count, streamed rows, the
    /// plan-cache outcome it resolved through, and its whole-query
    /// latency.
    pub fn record_query(&self, outcome: CacheOutcome, rows: u64, total_us: u64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.rows_streamed.fetch_add(rows, Ordering::Relaxed);
        let counter = match outcome {
            CacheOutcome::Hit => &self.plan_hits,
            CacheOutcome::Revalidated => &self.plan_revalidations,
            CacheOutcome::Recompiled => &self.plan_recompiles,
            CacheOutcome::Miss => &self.plan_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.query_latency.observe_us(total_us);
    }

    /// Record one applied update and its latency.
    pub fn record_update(&self, us: u64) {
        self.updates.fetch_add(1, Ordering::Relaxed);
        self.update_latency.observe_us(us);
    }

    /// Record one writer publish (clone-on-write + mutation + atomic
    /// snapshot swap) and its latency — updates and loads both count.
    pub fn record_publish(&self, us: u64) {
        self.publish_latency.observe_us(us);
    }

    /// Record one failed request (query, update, or load).
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection opened.
    pub fn session_started(&self) {
        self.active_sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection closed.
    pub fn session_ended(&self) {
        // Saturating: a stray double-close must not wrap the gauge.
        let _ = self
            .active_sessions
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Queries served.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Rows streamed or materialized across all queries.
    pub fn rows_streamed(&self) -> u64 {
        self.rows_streamed.load(Ordering::Relaxed)
    }

    /// Updates applied.
    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Failed requests.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Currently open connections.
    pub fn active_sessions(&self) -> u64 {
        self.active_sessions.load(Ordering::Relaxed)
    }

    /// Per-outcome query counts: `(hit, revalidated, recompiled, miss)`.
    pub fn plan_outcomes(&self) -> (u64, u64, u64, u64) {
        (
            self.plan_hits.load(Ordering::Relaxed),
            self.plan_revalidations.load(Ordering::Relaxed),
            self.plan_recompiles.load(Ordering::Relaxed),
            self.plan_misses.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of the whole-query latency histogram.
    pub fn query_latency(&self) -> HistogramSnapshot {
        self.query_latency.snapshot()
    }

    /// Snapshot of the update latency histogram.
    pub fn update_latency(&self) -> HistogramSnapshot {
        self.update_latency.snapshot()
    }

    /// Snapshot of the writer publish latency histogram.
    pub fn publish_latency(&self) -> HistogramSnapshot {
        self.publish_latency.snapshot()
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

/// Render the Prometheus text exposition (version 0.0.4) of a stats
/// snapshot: counters, gauges, and the query/update/publish latency
/// histograms. Counter values come from the same [`ServiceStats`] the
/// `stats` op ships, so the two surfaces agree by construction.
pub fn render_prometheus(
    s: &ServiceStats,
    query: &HistogramSnapshot,
    update: &HistogramSnapshot,
    publish: &HistogramSnapshot,
) -> String {
    let mut out = String::new();
    let mut counter = |name: &str, help: &str, v: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
        ));
    };
    counter("xqd_queries_total", "Queries served.", s.queries);
    counter(
        "xqd_rows_streamed_total",
        "Result rows streamed or materialized.",
        s.rows_streamed,
    );
    counter("xqd_updates_total", "Updates applied.", s.updates);
    counter("xqd_errors_total", "Failed requests.", s.errors);
    out.push_str(
        "# HELP xqd_plan_cache_outcome_total Queries by plan-cache outcome.\n\
         # TYPE xqd_plan_cache_outcome_total counter\n",
    );
    for (label, v) in [
        ("hit", s.plan_hits),
        ("revalidated", s.plan_revalidations),
        ("recompiled", s.plan_recompiles),
        ("miss", s.plan_misses),
    ] {
        out.push_str(&format!(
            "xqd_plan_cache_outcome_total{{outcome=\"{label}\"}} {v}\n"
        ));
    }
    let mut counter = |name: &str, help: &str, v: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
        ));
    };
    counter(
        "xqd_cache_evictions_total",
        "Plan-cache evictions.",
        s.cache.evictions,
    );
    counter(
        "xqd_cache_invalidations_total",
        "Plan-cache invalidations.",
        s.cache.invalidations,
    );
    counter(
        "xqd_index_postings_built_total",
        "Postings written by full index builds.",
        s.maintenance.postings_built,
    );
    counter(
        "xqd_index_postings_maintained_total",
        "Postings written or removed by update deltas.",
        s.maintenance.postings_maintained,
    );
    counter(
        "xqd_index_full_builds_total",
        "Full index builds performed.",
        s.maintenance.full_builds,
    );
    counter(
        "xqd_index_delta_updates_total",
        "Updates applied as index deltas.",
        s.maintenance.delta_updates,
    );
    let mut gauge = |name: &str, help: &str, v: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
        ));
    };
    gauge(
        "xqd_active_sessions",
        "Currently open connections.",
        s.active_sessions,
    );
    gauge("xqd_documents", "Documents registered.", s.documents as u64);
    gauge(
        "xqd_cached_plans",
        "Plans currently cached.",
        s.cached_plans as u64,
    );
    gauge(
        "xqd_snapshot_version",
        "update_seq of the currently published catalog snapshot.",
        s.snapshot_version,
    );
    gauge(
        "xqd_live_snapshots",
        "Catalog versions still referenced (current + reader-pinned).",
        s.live_snapshots,
    );
    render_histogram(
        &mut out,
        "xqd_query_latency_us",
        "Whole-query latency (µs).",
        query,
    );
    render_histogram(
        &mut out,
        "xqd_update_latency_us",
        "Update latency (µs).",
        update,
    );
    render_histogram(
        &mut out,
        "xqd_publish_latency_us",
        "Writer snapshot publish latency (µs): clone-on-write + swap.",
        publish,
    );
    out
}

fn render_histogram(out: &mut String, name: &str, help: &str, h: &HistogramSnapshot) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        cumulative += c;
        let le = match BUCKET_BOUNDS_US.get(i) {
            Some(b) => b.to_string(),
            None => "+Inf".to_string(),
        };
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_sum {}\n", h.sum_us));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_strictly_increasing() {
        for w in BUCKET_BOUNDS_US.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn observations_land_in_the_right_bucket() {
        let h = LatencyHistogram::new();
        h.observe_us(0); // ≤ 1
        h.observe_us(1); // ≤ 1
        h.observe_us(2); // ≤ 2
        h.observe_us(3); // ≤ 4
        h.observe_us(1_048_576); // last finite
        h.observe_us(u64::MAX); // +Inf
        let s = h.snapshot();
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[2], 1);
        assert_eq!(s.counts[BUCKET_BOUNDS_US.len() - 1], 1);
        assert_eq!(s.counts[BUCKET_BOUNDS_US.len()], 1);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = LatencyHistogram::new();
        for us in [3, 9, 40, 900, 5_000, 70_000] {
            h.observe_us(us);
        }
        let s = h.snapshot();
        let (p50, p90, p99) = (s.quantile_us(0.5), s.quantile_us(0.9), s.quantile_us(0.99));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // Each quantile is a bucket bound at or above the true sample.
        assert!((40..=64).contains(&p50), "{p50}");
        assert!(p99 >= 70_000, "{p99}");
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(LatencyHistogram::new().snapshot().quantile_us(0.99), 0);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.observe_us(3);
        b.observe_us(3);
        b.observe_us(1_000);
        let mut sa = a.snapshot();
        let sb = b.snapshot();
        sa.merge(&sb);
        assert_eq!(sa.count(), 3);
        assert_eq!(sa.sum_us, 1_006);
        assert_eq!(sa.counts[2], 2); // both 3 µs samples
    }

    #[test]
    fn registry_counts_by_outcome() {
        let r = MetricsRegistry::new();
        r.record_query(CacheOutcome::Miss, 5, 100);
        r.record_query(CacheOutcome::Hit, 5, 10);
        r.record_query(CacheOutcome::Hit, 0, 12);
        r.record_update(50);
        r.record_error();
        r.session_started();
        assert_eq!(r.queries(), 3);
        assert_eq!(r.rows_streamed(), 10);
        assert_eq!(r.updates(), 1);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.active_sessions(), 1);
        assert_eq!(r.plan_outcomes(), (2, 0, 0, 1));
        r.session_ended();
        r.session_ended(); // stray double-close must not wrap
        assert_eq!(r.active_sessions(), 0);
        assert_eq!(r.query_latency().count(), 3);
        assert_eq!(r.update_latency().count(), 1);
    }
}
