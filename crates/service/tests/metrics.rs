//! Observability invariants: latency-histogram algebra (unit +
//! property tests), stage-span accounting on real queries, agreement
//! between the `stats` view and the Prometheus exposition after a
//! scripted mixed session, and the EXPLAIN report round-trip through
//! the service.

use proptest::prelude::*;
use service::{
    render_prometheus, CacheOutcome, HistogramSnapshot, LatencyHistogram, QueryService,
    ServiceConfig, UpdateOp,
};

fn service() -> QueryService {
    QueryService::new(ServiceConfig {
        cache_capacity: 16,
        use_indexes: true,
        slow_query_us: None,
        ..ServiceConfig::default()
    })
}

const BIB: &str = "<bib>\
    <book year=\"1994\"><title>TCP/IP Illustrated</title>\
      <author><last>Stevens</last><first>W.</first></author>\
      <publisher>Addison-Wesley</publisher><price>65.95</price></book>\
    <book year=\"2000\"><title>Data on the Web</title>\
      <author><last>Abiteboul</last><first>Serge</first></author>\
      <publisher>Morgan Kaufmann</publisher><price>39.95</price></book>\
    </bib>";

const TITLES: &str = r#"let $d := doc("bib.xml") for $t in $d//book/title return <t>{ $t }</t>"#;

// ---------------------------------------------------------------------
// Histogram: bucket boundaries, quantiles, merge
// ---------------------------------------------------------------------

#[test]
fn boundary_observations_are_inclusive() {
    // An observation exactly on a bucket bound must land in that
    // bucket (Prometheus `le` semantics), so its quantile reads back
    // as the same bound.
    for &b in &service::metrics::BUCKET_BOUNDS_US {
        let h = LatencyHistogram::new();
        h.observe_us(b);
        let snap = h.snapshot();
        assert_eq!(snap.quantile_us(0.5), b, "bound {b}");
        assert_eq!(snap.quantile_us(1.0), b, "bound {b}");
    }
}

#[test]
fn overflow_observations_report_the_last_finite_bound() {
    let h = LatencyHistogram::new();
    let top = *service::metrics::BUCKET_BOUNDS_US.last().unwrap();
    h.observe_us(top + 1);
    let snap = h.snapshot();
    assert_eq!(snap.count(), 1);
    assert_eq!(snap.quantile_us(0.99), top);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Quantiles are monotone in q and bounded by the extreme buckets.
    #[test]
    fn quantiles_are_monotone(samples in prop::collection::vec(0u64..2_000_000, 1..64)) {
        let h = LatencyHistogram::new();
        for &s in &samples {
            h.observe_us(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), samples.len() as u64);
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| snap.quantile_us(q)).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles must be monotone: {:?}", vals);
        }
        // Every quantile is at least the bucket of the smallest sample
        // and at most the bucket of the largest (or the last finite
        // bound for overflow samples).
        let lo = snap.quantile_us(0.0);
        let hi = snap.quantile_us(1.0);
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        let top = *service::metrics::BUCKET_BOUNDS_US.last().unwrap();
        prop_assert!(min.min(top) <= lo, "p0 bucket bound {lo} below smallest sample {min}");
        prop_assert!(hi <= top.max(max), "p100 {hi} beyond both top bound and max {max}");
        prop_assert!(snap.sum_us == samples.iter().sum::<u64>());
    }

    // Merging two histograms equals observing the concatenation.
    #[test]
    fn merge_is_concatenation(
        a in prop::collection::vec(0u64..2_000_000, 0..32),
        b in prop::collection::vec(0u64..2_000_000, 0..32),
    ) {
        let ha = LatencyHistogram::new();
        let hb = LatencyHistogram::new();
        let hall = LatencyHistogram::new();
        for &s in &a {
            ha.observe_us(s);
            hall.observe_us(s);
        }
        for &s in &b {
            hb.observe_us(s);
            hall.observe_us(s);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(merged, hall.snapshot());
    }
}

#[test]
fn empty_snapshot_is_all_zero() {
    let snap = HistogramSnapshot::default();
    assert_eq!(snap.count(), 0);
    assert_eq!(snap.quantile_us(0.99), 0);
}

// ---------------------------------------------------------------------
// Stage spans on real queries
// ---------------------------------------------------------------------

#[test]
fn stage_spans_partition_the_query_time() {
    let svc = service();
    svc.load_xml("bib.xml", BIB).expect("load");
    for round in 0..2 {
        let out = svc.query(TITLES).expect("query");
        let trace = &out.trace;
        assert!(
            !trace.stages.is_empty(),
            "round {round}: no stage spans recorded"
        );
        // Stages are disjoint phases of one query, so their durations
        // sum to at most the whole-query time.
        assert!(
            trace.stages_total_us() <= trace.total_us,
            "round {round}: stage sum {} exceeds total {}",
            trace.stages_total_us(),
            trace.total_us
        );
        // Every span is well-formed and the execute stage is present.
        for s in &trace.stages {
            assert!(s.start_us <= s.end_us, "round {round}: span runs backwards");
        }
        assert!(
            trace
                .stages
                .iter()
                .any(|s| s.stage == nal::obs::Stage::Execute),
            "round {round}: execute span missing"
        );
    }
    // Warm run skips the frontend: no parse span after a cache hit.
    let warm = svc.query(TITLES).expect("warm");
    assert_eq!(warm.cache, CacheOutcome::Hit);
    assert!(warm
        .trace
        .stages
        .iter()
        .all(|s| s.stage != nal::obs::Stage::Parse));
}

// ---------------------------------------------------------------------
// stats vs Prometheus exposition after a mixed session
// ---------------------------------------------------------------------

#[test]
fn prometheus_exposition_agrees_with_stats() {
    let svc = service();
    svc.load_xml("bib.xml", BIB).expect("load");
    // Scripted mixed session: miss, hit, update, revalidation/recompile,
    // one failing query, one explain.
    svc.query(TITLES).expect("cold");
    svc.query(TITLES).expect("warm");
    svc.update(&UpdateOp::InsertXml {
        uri: "bib.xml".to_string(),
        parent: "/bib".to_string(),
        xml: "<book year=\"2004\"><title>M</title><author><last>L</last>\
              <first>F</first></author><publisher>P</publisher>\
              <price>1.00</price></book>"
            .to_string(),
    })
    .expect("update");
    svc.query(TITLES).expect("post-update");
    assert!(svc.query("for $x in (").is_err(), "parse error expected");
    svc.explain(TITLES).expect("explain");

    let stats = svc.stats();
    let text = render_prometheus(
        &stats,
        &svc.metrics().query_latency(),
        &svc.metrics().update_latency(),
        &svc.metrics().publish_latency(),
    );
    let value = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
    };
    let labelled = |name: &str, label: &str| -> f64 {
        let prefix = format!("{name}{{outcome=\"{label}\"}}");
        text.lines()
            .find(|l| l.starts_with(&prefix))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {prefix} missing from:\n{text}"))
    };
    assert_eq!(value("xqd_queries_total"), stats.queries as f64);
    assert_eq!(value("xqd_updates_total"), stats.updates as f64);
    assert_eq!(value("xqd_errors_total"), stats.errors as f64);
    assert!(stats.errors >= 1, "the failing query must be counted");
    assert_eq!(value("xqd_rows_streamed_total"), stats.rows_streamed as f64);
    assert_eq!(
        labelled("xqd_plan_cache_outcome_total", "hit"),
        stats.plan_hits as f64
    );
    assert_eq!(
        labelled("xqd_plan_cache_outcome_total", "miss"),
        stats.plan_misses as f64
    );
    assert_eq!(
        labelled("xqd_plan_cache_outcome_total", "revalidated"),
        stats.plan_revalidations as f64
    );
    assert_eq!(
        labelled("xqd_plan_cache_outcome_total", "recompiled"),
        stats.plan_recompiles as f64
    );
    // Per-outcome counts partition the successful queries.
    assert_eq!(
        stats.plan_hits + stats.plan_misses + stats.plan_revalidations + stats.plan_recompiles,
        stats.queries
    );
    assert_eq!(value("xqd_query_latency_us_count"), stats.queries as f64);
    assert_eq!(value("xqd_update_latency_us_count"), stats.updates as f64);
    // The index maintenance counters ride along.
    assert_eq!(
        value("xqd_index_postings_built_total"),
        stats.maintenance.postings_built as f64
    );
    assert_eq!(
        value("xqd_index_delta_updates_total"),
        stats.maintenance.delta_updates as f64
    );
    // The snapshot-chain surface rides along: the version gauge equals
    // the stats' update_seq, exactly one version is live at rest, and
    // every publish (one load + one update) landed in the histogram.
    assert_eq!(value("xqd_snapshot_version"), stats.snapshot_version as f64);
    assert_eq!(stats.snapshot_version, stats.update_seq);
    assert_eq!(value("xqd_live_snapshots"), 1.0);
    assert_eq!(value("xqd_publish_latency_us_count"), 2.0);
}

// ---------------------------------------------------------------------
// EXPLAIN through the service: annotated report, text round-trip
// ---------------------------------------------------------------------

#[test]
fn explain_reports_priced_measured_operators() {
    let svc = service();
    svc.load_xml("bib.xml", BIB).expect("load");
    let out = svc.explain(TITLES).expect("explain");
    assert!(!out.report.nodes.is_empty());
    assert_eq!(out.rows, 2);
    assert!(out.report.nodes.iter().any(|n| n.rows > 0));
    // Every operator is measured and priced; timing is inclusive.
    let root = out.report.nodes[0].elapsed_us;
    for n in &out.report.nodes {
        assert!(n.calls > 0, "{} never entered", n.op);
        assert!(n.predicted_cost.is_some(), "{} unpriced", n.op);
        assert!(n.elapsed_us <= root, "{} exceeds the root's time", n.op);
    }
    // The rendered tree parses back to the same figures.
    let text = out.report.render();
    let parsed = engine::ExplainReport::parse(&text).expect("round trip");
    assert_eq!(parsed.nodes.len(), out.report.nodes.len());
    for (a, b) in parsed.nodes.iter().zip(&out.report.nodes) {
        assert_eq!(a.op, b.op);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.elapsed_us, b.elapsed_us);
        assert_eq!(a.predicted_cost, b.predicted_cost);
    }
    // Explain runs count as queries and keep executor counters intact:
    // a plain run of the same text returns identical row counts.
    let plain = svc.query(TITLES).expect("plain");
    assert_eq!(plain.rows, out.rows);
}

#[test]
fn both_executors_trace_identical_counters() {
    // Counter parity: the serial and the morsel-parallel pipeline must
    // agree on the result and report rows per operator under tracing.
    for parallel_workers in [1, 2] {
        let svc = QueryService::new(ServiceConfig {
            cache_capacity: 16,
            use_indexes: true,
            slow_query_us: None,
            parallel_workers,
            ..ServiceConfig::default()
        });
        svc.load_xml("bib.xml", BIB).expect("load");
        let out = svc.explain(TITLES).expect("explain");
        let rows: Vec<(String, u64)> = out
            .report
            .nodes
            .iter()
            .map(|n| (n.op.clone(), n.rows))
            .collect();
        assert!(
            rows.iter().any(|(_, r)| *r > 0),
            "{parallel_workers} workers: all-zero rows"
        );
        assert_eq!(out.rows, 2, "{parallel_workers} workers");
    }
}
