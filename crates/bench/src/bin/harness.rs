//! `harness` — regenerates every table and figure of the paper's
//! evaluation (§5) with this repository's implementations.
//!
//! ```sh
//! cargo run --release -p bench-harness --bin harness -- [--experiment all]
//!     [--scales 100,1000,10000] [--nested-cap 1000] [--seed 42]
//!     [--indexes on|off]
//!     [--json results.json] [--smoke]
//! ```
//!
//! Experiments: `fig6`, `grouping` (§5.1), `dblp` (§5.1), `aggregation`
//! (§5.2), `existential1` (§5.3), `existential2` (§5.4), `universal`
//! (§5.5), `having` (§5.6), `costmodel`, `index` (scan- vs index-backed
//! quantifier joins, incl. the composite-key and variable-depth
//! workloads), `range` (loop- vs range-probe inequality quantifier
//! joins), `composite` (the focused multi-key/deep-ancestor cut),
//! `update` (interleaved insert/query workload: posting-list delta
//! maintenance vs rebuild-from-scratch), `service` (the query-service
//! plan cache: cold vs warm latency per workload, then sustained mixed
//! query/update throughput), `observability` (EXPLAIN ANALYZE over
//! every workload: per-operator
//! `(predicted_cost, measured_us, rows)` calibration pairs),
//! `calibration` (grid-fit the cost model's guessed constants —
//! index-probe weight and untraceable-path fan-out — against measured
//! plan times, then check the fitted model's plan ranking
//! rank-correlates with the measured ranking on Q1–Q10), `concurrency`
//! (lock-free snapshot reads: reader count × writer churn rate sweep
//! over streamed queries, asserting throughput scales with readers and
//! every streamed result is byte-identical to a serial replay of its
//! `updates_seen` state), `fuzz` (the differential fuzz oracle as a
//! throughput cell: seeded random corpus/query/update cases through the
//! full scan/indexed × maintenance-mode matrix against
//! `nal::eval_query`; any disagreement fails the harness with a
//! shrunk reproducer — budget via `XQD_FUZZ_SEED`/`XQD_FUZZ_CASES`),
//! `allocs` (heap allocations and bytes requested per warm
//! `QueryService::query` of Q1–Q10, scan and indexed, counted by the
//! binary's own counting allocator — the numbers `tests/alloc_budget.rs`
//! holds ceilings on), or `all`.
//! Every `--json` cell records the cost model's `predicted_cost` next
//! to the measured time — and, per operator, the traced companion
//! run's `operators` array — so `BENCH_*.json` trajectories can
//! calibrate the probe constants against reality.
//!
//! `--indexes on` compiles every measured plan through
//! `engine::compile_indexed`, so document-rooted path scans and
//! semi/anti joins run on the `xmldb::index` access paths. `--json`
//! writes every measured *plan* cell as a JSON array (machine-readable
//! `BENCH_*.json` trajectories; `fig6` reports document sizes, not plan
//! runs, so it has no cells). `--smoke` is the CI configuration: tiny
//! scales, every experiment, seconds not minutes.
//!
//! Nested plans are measured up to `--nested-cap` records and
//! extrapolated quadratically above it (marked `est.`), because their
//! per-tuple document re-scan makes full 10 000-record runs take minutes
//! — the very effect the paper measures. Pass `--nested-cap 10000` for
//! fully measured tables.

use std::collections::BTreeMap;

use bench_harness::allocs::{warm_round, CountingAlloc};
use bench_harness::{
    extrapolate_nested, fmt_secs, measure_plan_cfg, plans_for, Measurement, Report, RunConfig,
};
use ordered_unnesting::workloads::{
    self, Q10_DEEP, Q1_DBLP, Q1_GROUPING, Q2_AGGREGATION, Q3_EXISTENTIAL, Q4_EXISTS, Q5_UNIVERSAL,
    Q6_HAVING, Q9_COMPOSITE,
};
use xmldb::gen::{
    gen_auction, gen_bib, gen_dblp, gen_prices, gen_reviews, standard_catalog, AuctionConfig,
    BibConfig, DblpConfig, PricesConfig, ReviewsConfig,
};
use xmldb::serializer::document_size_bytes;
use xmldb::Catalog;

/// Counts per thread and forwards to the system allocator; what the
/// `allocs` experiment reads. The other experiments pay two
/// thread-local increments per allocation for it.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    experiment: String,
    scales: Vec<usize>,
    nested_cap: usize,
    seed: u64,
    indexes: bool,
    json: Option<String>,
}

impl Args {
    fn cfg(&self) -> RunConfig {
        RunConfig::new(self.indexes)
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".to_string(),
        scales: vec![100, 1000, 10000],
        nested_cap: 1000,
        seed: 42,
        indexes: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_default();
        match flag.as_str() {
            "--experiment" | "-e" => args.experiment = value(),
            "--scales" => {
                args.scales = value()
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .collect();
            }
            "--nested-cap" => args.nested_cap = value().parse().unwrap_or(1000),
            "--indexes" => {
                args.indexes = match value().as_str() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    v => {
                        eprintln!("unknown --indexes value `{v}` (use on|off)");
                        std::process::exit(2);
                    }
                };
            }
            "--json" => args.json = Some(value()),
            "--smoke" => {
                // CI configuration: everything, tiny, fast.
                args.scales = vec![50];
                args.nested_cap = 50;
                args.experiment = "all".to_string();
            }
            "--seed" => args.seed = value().parse().unwrap_or(42),
            "--help" | "-h" => {
                println!("see module docs: cargo doc -p bench-harness");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let run_all = args.experiment == "all";
    let mut report = Report::new();
    println!("ordered-unnesting harness — reproducing the §5 evaluation");
    println!(
        "scales {:?}, nested plans measured up to {} (extrapolated beyond, marked est.), \
         seed {}, indexes {}\n",
        args.scales,
        args.nested_cap,
        args.seed,
        args.cfg().indexes_label()
    );
    if run_all || args.experiment == "fig6" {
        fig6(&args);
    }
    if run_all || args.experiment == "grouping" {
        grouping(&args, &mut report);
    }
    if run_all || args.experiment == "aggregation" {
        simple_table(
            &args,
            &mut report,
            &Q2_AGGREGATION,
            "Query 1.1.9.10 (Aggregation) — §5.2",
            "books",
        );
    }
    if run_all || args.experiment == "existential1" {
        simple_table(
            &args,
            &mut report,
            &Q3_EXISTENTIAL,
            "Query 1.1.9.5 (Existential Quantification I) — §5.3",
            "books/reviews",
        );
    }
    if run_all || args.experiment == "existential2" {
        simple_table(
            &args,
            &mut report,
            &Q4_EXISTS,
            "Existential Quantification II (exists()) — §5.4",
            "books",
        );
    }
    if run_all || args.experiment == "universal" {
        simple_table(
            &args,
            &mut report,
            &Q5_UNIVERSAL,
            "Universal Quantification — §5.5",
            "books",
        );
    }
    if run_all || args.experiment == "having" {
        simple_table(
            &args,
            &mut report,
            &Q6_HAVING,
            "Query 1.4.4.14 (Aggregation in the Where Clause) — §5.6",
            "bids",
        );
    }
    if run_all || args.experiment == "dblp" {
        dblp(&args, &mut report);
    }
    if run_all || args.experiment == "costmodel" {
        costmodel(&args, &mut report);
    }
    if run_all || args.experiment == "index" {
        index_ablation(&args, &mut report);
    }
    if run_all || args.experiment == "range" {
        range_ablation(&args, &mut report);
    }
    if run_all || args.experiment == "composite" {
        composite_ablation(&args, &mut report);
    }
    if run_all || args.experiment == "update" {
        update_ablation(&args, &mut report);
    }
    if run_all || args.experiment == "service" {
        service_ablation(&args, &mut report);
    }
    if run_all || args.experiment == "observability" {
        observability(&args, &mut report);
    }
    if run_all || args.experiment == "calibration" {
        calibration(&args, &mut report);
    }
    if run_all || args.experiment == "concurrency" {
        concurrency(&args, &mut report);
    }
    if run_all || args.experiment == "fuzz" {
        fuzz_oracle(&args, &mut report);
    }
    if run_all || args.experiment == "allocs" {
        allocs(&args, &mut report);
    }
    if let Some(path) = &args.json {
        report
            .write(path)
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {} result rows to {path}", report.len());
    }
}

// ---------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------

/// Heap allocations and bytes per warm query of Q1–Q10, scan and
/// indexed, at each scale — the execution core's allocation discipline
/// as a tracked number (one JSON row per query and mode).
fn allocs(args: &Args, report: &mut Report) {
    println!("Allocations per warm query (QueryService::query, plan cache and indexes warm)");
    for &scale in &args.scales {
        for indexes in [false, true] {
            let cfg = RunConfig::new(indexes);
            let round = warm_round(scale, indexes);
            println!("scale {scale}, indexes {}:", cfg.indexes_label());
            for q in &round {
                println!(
                    "  {:<22} {:>8} allocations {:>10} bytes",
                    q.id, q.allocs, q.bytes
                );
                let m = Measurement {
                    plan: q.id.to_string(),
                    ..Measurement::default()
                };
                report.record(
                    "allocs",
                    cfg,
                    &[
                        ("scale", scale as i64),
                        ("allocations", q.allocs as i64),
                        ("bytes", q.bytes as i64),
                    ],
                    &m,
                );
            }
            let total: u64 = round.iter().map(|q| q.allocs).sum();
            assert!(
                total > 0,
                "[allocs] the counting allocator is not installed"
            );
            println!("  {:<22} {total:>8} allocations", "round");
        }
    }
    println!();
}

// ---------------------------------------------------------------------
// Access-path ablations: scan- vs index-backed quantifier joins
// ---------------------------------------------------------------------

/// Scan- vs index-backed access paths: run each workload's
/// quantifier-join plans with `--indexes off` and `on` (the probe
/// counters make the work visible),
/// byte-compare the outputs (CI fails on any divergence), and assert
/// the indexed run examines strictly fewer tuples while actually
/// probing the index. The examined count includes the build side's
/// production, which the index joins skip entirely.
///
/// `index_ablation` covers the equality workloads (hash-join scan
/// form); `range_ablation` covers the inequality workloads, whose scan
/// form is the loop join the `IndexRangeJoin` replaces — and also holds
/// that scan form to the θ-probe's bound: it examines at most
/// |left| + |right| build candidates, not |left| × |right|.
fn index_ablation(args: &Args, report: &mut Report) {
    access_path_ablation(
        args,
        report,
        "Index ablation: scan vs index-backed quantifier joins",
        &[
            &Q3_EXISTENTIAL,
            &Q4_EXISTS,
            &Q5_UNIVERSAL,
            &Q9_COMPOSITE,
            &Q10_DEEP,
        ],
        "index",
        |_, _| {},
    );
}

/// The focused composite/deep cut of the index ablation: the two-key
/// (`IndexCompositeSemiJoin`) and variable-depth-ancestor workloads that
/// the multi-key and descendant-above-key conversions unlock — run
/// separately in CI so a regression in either conversion fails a named
/// step.
fn composite_ablation(args: &Args, report: &mut Report) {
    access_path_ablation(
        args,
        report,
        "Composite ablation: multi-key + variable-depth quantifier joins",
        &[&Q9_COMPOSITE, &Q10_DEEP],
        "composite",
        |_, _| {},
    );
}

fn range_ablation(args: &Args, report: &mut Report) {
    let range: Vec<&ordered_unnesting::workloads::Workload> =
        ordered_unnesting::workloads::RANGE.iter().collect();
    access_path_ablation(
        args,
        report,
        "Range ablation: loop vs range-probe inequality quantifier joins",
        &range,
        "range",
        |id, scan| {
            // Both RANGE plans scan each join side with exactly one Υ,
            // so the Υ tuple count is |left| + |right|.
            let sides = scan.metrics.op_count("UnnestMap");
            println!(
                "  [{id}] scan-side probe_tuples {} (|left| + |right| = {sides})",
                scan.metrics.probe_tuples
            );
            assert!(
                scan.metrics.probe_tuples <= sides,
                "[{id}] the scan loop join examined {} candidates for {sides} input tuples",
                scan.metrics.probe_tuples
            );
        },
    );
}

fn access_path_ablation(
    args: &Args,
    report: &mut Report,
    title: &str,
    workloads: &[&ordered_unnesting::workloads::Workload],
    prefix: &str,
    check_scan: impl Fn(&str, &engine::QueryResult),
) {
    println!("== {title} ==\n");
    println!(
        "{:<16} {:<14} {:>7} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "workload", "plan", "scale", "scan", "indexed", "examined", "examined", "lookups"
    );
    println!(
        "{:<16} {:<14} {:>7} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "", "", "", "(time)", "(time)", "(scan)", "(indexed)", "(indexed)"
    );
    for w in workloads {
        for &scale in &args.scales {
            let catalog = standard_catalog(scale, 2, args.seed);
            for (label, expr) in plans_for(w, &catalog) {
                if !label.contains("semijoin") {
                    continue;
                }
                let scan_cfg = RunConfig::new(false);
                let index_cfg = RunConfig::new(true);
                // One untimed warm-up per configuration: the indexed run
                // builds its path/value indexes here (the eager-build
                // strategy — the paper's experiments likewise measure
                // against a warm database cache). The warm-up results
                // double as the byte-identical-output check.
                let scan_warm = scan_cfg.run(&expr, &catalog).expect("scan plan runs");
                let index_warm = index_cfg.run(&expr, &catalog).expect("indexed plan runs");
                assert_eq!(
                    scan_warm.output, index_warm.output,
                    "[{}] ablation Ξ outputs diverge byte-wise",
                    w.id
                );
                assert_eq!(
                    scan_warm.rows, index_warm.rows,
                    "[{}] ablation rows diverge",
                    w.id
                );
                check_scan(w.id, &scan_warm);
                let scan = measure_plan_cfg(&label, &expr, &catalog, scan_cfg);
                let indexed = measure_plan_cfg(&label, &expr, &catalog, index_cfg);
                assert!(
                    indexed.tuples_examined() < scan.tuples_examined(),
                    "[{}] index-backed join must examine strictly fewer tuples \
                     ({} vs {})",
                    w.id,
                    indexed.tuples_examined(),
                    scan.tuples_examined()
                );
                assert!(
                    indexed.index_lookups > 0,
                    "[{}] the indexed plan must actually probe the index",
                    w.id
                );
                println!(
                    "{:<16} {:<14} {:>7} {:>12} {:>12} {:>10} {:>10} {:>9}",
                    w.id,
                    label,
                    scale,
                    fmt_secs(scan.elapsed, false),
                    fmt_secs(indexed.elapsed, false),
                    scan.tuples_examined(),
                    indexed.tuples_examined(),
                    indexed.index_lookups
                );
                let knobs = [("scale", scale as i64)];
                report.record(&format!("{prefix}:{}", w.id), scan_cfg, &knobs, &scan);
                report.record(&format!("{prefix}:{}", w.id), index_cfg, &knobs, &indexed);
            }
        }
    }
    println!();
}

/// Differential fuzz oracle as a benchmark cell: generate seeded
/// random (corpus, query, update script) cases and push each through
/// the full execution matrix — every enumerated plan × scan vs indexed
/// × pre/post updates under both maintenance modes, against
/// `nal::eval_query` of the nested query, plus cost-model
/// convertibility. The cell reports oracle *throughput* (cases/s);
/// any disagreement fails the harness with the shrunk reproducer
/// snippet. Seed and budget honor `XQD_FUZZ_SEED` / `XQD_FUZZ_CASES`.
fn fuzz_oracle(args: &Args, report: &mut Report) {
    use std::time::Instant;

    println!("== Differential fuzzing: oracle throughput ==\n");
    let seed = fuzz::env_seed(fuzz::DEFAULT_SEED.wrapping_add(args.seed));
    let cases = fuzz::env_cases(100);
    let t0 = Instant::now();
    match fuzz::run_fuzz(seed, cases, &fuzz::GenConfig::default()) {
        Ok(rep) => {
            let elapsed = t0.elapsed();
            let mut m = Measurement::estimated(format!("oracle seed={seed}"), elapsed);
            m.estimated = false;
            m.output_len = rep.cases;
            report.record(
                "fuzz",
                RunConfig::new(true),
                &[
                    ("cases", rep.cases as i64),
                    ("with_updates", rep.with_updates as i64),
                ],
                &m,
            );
            println!("{:>8} {:>13} {:>10}", "cases", "with-updates", "cases/s");
            println!(
                "{:>8} {:>13} {:>10.1}\n",
                rep.cases,
                rep.with_updates,
                rep.cases as f64 / elapsed.as_secs_f64()
            );
        }
        Err(failure) => panic!("differential fuzz oracle failed:\n{failure}"),
    }
}

// ---------------------------------------------------------------------
// Update ablation: delta maintenance vs rebuild-from-scratch
// ---------------------------------------------------------------------

/// Interleaved insert/query workload over a mutable store: per round,
/// one catalog-level update to `bib.xml` (duplicate a book / delete a
/// book / retitle one) followed by the quantifier workloads (Q3
/// semijoin, Q5 anti-semijoin) run scan- and index-backed, with the
/// outputs byte-compared (CI fails on any post-update divergence).
///
/// The whole phase runs twice — once with posting-list **delta**
/// maintenance (the default) and once in **rebuild** mode (every update
/// drops the document's indexes; the next query pays full builds) — and
/// asserts the maintained-postings figure of the delta run stays
/// strictly below the rebuild run's built-postings figure. That is the
/// incremental-maintenance claim in one number: a delta touches the
/// postings of the touched subtree, a rebuild touches them all.
fn update_ablation(args: &Args, report: &mut Report) {
    use xmldb::MaintenanceMode;
    println!("== Update ablation: incremental index maintenance vs rebuild ==\n");
    println!(
        "{:<8} {:>9} {:>8} {:>14} {:>14} {:>12}",
        "mode", "scale", "updates", "postings", "query time", "update time"
    );
    let rounds = 9usize;
    for &scale in &args.scales {
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for mode in [MaintenanceMode::Delta, MaintenanceMode::Rebuild] {
            let mode_label = match mode {
                MaintenanceMode::Delta => "delta",
                MaintenanceMode::Rebuild => "rebuild",
            };
            let mut catalog = standard_catalog(scale, 2, args.seed);
            catalog.set_index_maintenance(mode);
            let plans: Vec<(String, nal::Expr)> = [&Q3_EXISTENTIAL, &Q5_UNIVERSAL]
                .iter()
                .flat_map(|w| plans_for(w, &catalog))
                .filter(|(label, _)| label.contains("semijoin"))
                .collect();
            let scan_cfg = RunConfig::new(false);
            let index_cfg = RunConfig::new(true);
            // Warm every index the plans probe, then count from zero:
            // the measured postings are pure maintenance traffic.
            for (_, expr) in &plans {
                index_cfg.run(expr, &catalog).expect("warm-up");
            }
            catalog.indexes().reset_maintenance_stats();
            let id = catalog.by_uri("bib.xml").expect("bib registered");
            let mut update_time = std::time::Duration::ZERO;
            let mut query_time = std::time::Duration::ZERO;
            for round in 0..rounds {
                let t0 = std::time::Instant::now();
                apply_update(&mut catalog, id, round);
                update_time += t0.elapsed();
                for (label, expr) in &plans {
                    let t1 = std::time::Instant::now();
                    let indexed = index_cfg.run(expr, &catalog).expect("indexed plan runs");
                    query_time += t1.elapsed();
                    let scan = scan_cfg.run(expr, &catalog).expect("scan plan runs");
                    assert_eq!(
                        scan.output, indexed.output,
                        "[update/{mode_label}] round {round}, plan {label}: \
                         post-update indexed output diverges from scan"
                    );
                }
            }
            let stats = catalog.index_maintenance_stats();
            let postings = stats.postings_total();
            totals.insert(mode_label, postings);
            println!(
                "{:<8} {:>9} {:>8} {:>14} {:>14} {:>12}",
                mode_label,
                scale,
                rounds,
                postings,
                fmt_secs(query_time, false),
                fmt_secs(update_time, false)
            );
            // The probe-metric fields stay zero: this experiment's
            // figures are the maintenance counters, recorded as
            // dedicated knobs below (repurposing e.g. `index_lookups`
            // would corrupt cross-experiment JSON consumers).
            let m = Measurement {
                plan: mode_label.to_string(),
                elapsed: query_time + update_time,
                doc_scans: 0,
                output_len: 0,
                estimated: false,
                tuples_produced: 0,
                probe_tuples: 0,
                index_lookups: 0,
                index_hits: 0,
                predicted_cost: None,
                operators: Vec::new(),
            };
            report.record(
                "update",
                RunConfig::new(true),
                &[
                    ("scale", scale as i64),
                    ("updates", rounds as i64),
                    ("delta_updates", stats.delta_updates as i64),
                    ("postings", postings as i64),
                    ("postings_built", stats.postings_built as i64),
                    ("postings_maintained", stats.postings_maintained as i64),
                ],
                &m,
            );
        }
        let (delta, rebuild) = (totals["delta"], totals["rebuild"]);
        assert!(
            delta < rebuild,
            "delta maintenance must touch strictly fewer postings than \
             rebuild-from-scratch ({delta} vs {rebuild} at scale {scale})"
        );
        println!(
            "  → delta touches {delta} postings vs {rebuild} rebuilt ({:.1}× cheaper)\n",
            rebuild as f64 / delta.max(1) as f64
        );
    }
}

/// One deterministic update per round, cycling through the three kinds.
fn apply_update(catalog: &mut Catalog, id: xmldb::DocId, round: usize) {
    let doc = catalog.doc(id).as_ref().clone();
    let root = doc.root_element().expect("bib root");
    let books: Vec<xmldb::NodeId> = doc.children(root).collect();
    let n = books.len();
    assert!(n >= 3, "update ablation needs at least 3 books");
    match round % 3 {
        0 => {
            // Duplicate one book in front of another.
            let src = books[round % n];
            let before = books[(round + n / 2) % n];
            catalog
                .insert_subtree(id, root, Some(before), &doc, src)
                .expect("insert");
        }
        1 => {
            catalog
                .delete_subtree(id, books[(round + 1) % n])
                .expect("delete");
        }
        _ => {
            let book = books[round % n];
            let title = doc.children(book).next().expect("title child");
            if let Some(text) = doc.children(title).next() {
                catalog
                    .replace_text(id, text, &format!("Retitled {round}"))
                    .expect("replace_text");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Query-service ablation: cold vs warm planning, sustained mixed load
// ---------------------------------------------------------------------

/// The plan-cache claim in numbers. Phase 1 runs every workload cold
/// (full parse → normalize → unnest → compile) and then warm (cache
/// hit) through one `QueryService`, measuring *end-to-end* latency —
/// the `QueryOutcome::elapsed` field only times execution, and the
/// whole point is the frontend work the warm path skips. The harness
/// asserts the best warm run beats the cold run strictly, that every
/// warm run is an actual cache hit, and that outputs stay
/// byte-identical. Phase 2 hammers the same service with several
/// reader threads and an interleaved updater and reports sustained
/// throughput (every query still checked against the cold output of
/// the catalog state its `updates_seen` stamp names — here just for
/// the zero-update prefix, the full replay matrix lives in
/// `crates/service/tests/concurrent.rs`).
fn service_ablation(args: &Args, report: &mut Report) {
    use service::{CacheOutcome, QueryService, ServiceConfig, UpdateOp};
    use std::sync::Arc;
    use std::time::Instant;

    const WARM_ROUNDS: usize = 5;
    println!("== Service ablation: plan-cache cold vs warm, mixed load ==\n");
    let all: Vec<&workloads::Workload> = workloads::ALL
        .iter()
        .chain(workloads::RANGE.iter())
        .chain(workloads::COMPOSITE.iter())
        .collect();
    let cfg = RunConfig::new(true);
    for &scale in &args.scales {
        println!(
            "{:<16} {:>9} {:>12} {:>12} {:>9}",
            "workload", "scale", "cold", "warm(best)", "speedup"
        );
        let svc = Arc::new(QueryService::with_catalog(
            standard_catalog(scale, 2, args.seed),
            ServiceConfig {
                cache_capacity: 64,
                use_indexes: true,
                slow_query_us: None,
                ..ServiceConfig::default()
            },
        ));
        for w in &all {
            let t0 = Instant::now();
            let cold = svc.query(w.query).expect("cold run");
            let cold_latency = t0.elapsed();
            assert_eq!(cold.cache, CacheOutcome::Miss, "[service] {} cold", w.id);
            let mut warm_best = std::time::Duration::MAX;
            for round in 0..WARM_ROUNDS {
                let t1 = Instant::now();
                let warm = svc.query(w.query).expect("warm run");
                let latency = t1.elapsed();
                assert_eq!(
                    warm.cache,
                    CacheOutcome::Hit,
                    "[service] {} warm round {round}",
                    w.id
                );
                assert_eq!(
                    warm.output, cold.output,
                    "[service] {} warm round {round}: output diverges from cold",
                    w.id
                );
                warm_best = warm_best.min(latency);
            }
            assert!(
                warm_best < cold_latency,
                "[service] {}: warm-path latency must beat cold planning \
                 ({warm_best:?} vs {cold_latency:?} at scale {scale})",
                w.id
            );
            println!(
                "{:<16} {:>9} {:>12} {:>12} {:>8.1}×",
                w.id,
                scale,
                fmt_secs(cold_latency, false),
                fmt_secs(warm_best, false),
                cold_latency.as_secs_f64() / warm_best.as_secs_f64().max(1e-9)
            );
            for (phase, latency) in [("cold", cold_latency), ("warm", warm_best)] {
                let m = Measurement {
                    plan: format!("{}/{phase}", w.id),
                    elapsed: latency,
                    doc_scans: 0,
                    output_len: cold.output.len(),
                    estimated: false,
                    tuples_produced: 0,
                    probe_tuples: 0,
                    index_lookups: 0,
                    index_hits: 0,
                    predicted_cost: None,
                    operators: Vec::new(),
                };
                report.record("service", cfg, &[("scale", scale as i64)], &m);
            }
        }

        // Phase 2: sustained mixed load on the warmed service.
        let readers = 3usize;
        let rounds = 3usize;
        let t0 = Instant::now();
        let threads: Vec<_> = (0..readers)
            .map(|r| {
                let svc = Arc::clone(&svc);
                let queries: Vec<&'static str> = all.iter().map(|w| w.query).collect();
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        for i in 0..queries.len() {
                            let q = queries[(i + r + round) % queries.len()];
                            svc.query(q).expect("mixed-load query");
                        }
                    }
                })
            })
            .collect();
        let updates = 6usize;
        for k in 0..updates {
            svc.update(&UpdateOp::InsertXml {
                uri: "bib.xml".to_string(),
                parent: "/bib".to_string(),
                xml: format!(
                    "<book year=\"19{:02}\"><title>Service Bench {k}</title>\
                     <author><last>Bench</last><first>B{k}</first></author>\
                     <publisher>harness</publisher><price>{k}.25</price></book>",
                    70 + k
                ),
            })
            .expect("mixed-load update");
        }
        for t in threads {
            t.join().expect("reader thread");
        }
        let wall = t0.elapsed();
        let served = (readers * rounds * all.len()) as u64;
        let qps = served as f64 / wall.as_secs_f64().max(1e-9);
        let stats = svc.stats();
        println!(
            "\n  mixed load: {served} queries + {updates} updates over {} \
             ({qps:.0} q/s; {} hits, {} revalidations, {} misses)\n",
            fmt_secs(wall, false),
            stats.cache.hits,
            stats.cache.revalidations,
            stats.cache.misses
        );
        let m = Measurement {
            plan: "mixed-load".to_string(),
            elapsed: wall,
            doc_scans: 0,
            output_len: 0,
            estimated: false,
            tuples_produced: stats.rows_streamed,
            probe_tuples: 0,
            index_lookups: 0,
            index_hits: 0,
            predicted_cost: None,
            operators: Vec::new(),
        };
        report.record(
            "service",
            cfg,
            &[
                ("scale", scale as i64),
                ("readers", readers as i64),
                ("queries", served as i64),
                ("updates", updates as i64),
                ("qps", qps as i64),
                ("cache_hits", stats.cache.hits as i64),
                ("cache_revalidations", stats.cache.revalidations as i64),
                ("cache_invalidations", stats.cache.invalidations as i64),
            ],
            &m,
        );
    }
}

// ---------------------------------------------------------------------
// Concurrency ablation: lock-free snapshot reads under a churning writer
// ---------------------------------------------------------------------

/// The same deterministic update cycle the service stress tests replay
/// (`crates/service/tests/concurrent.rs`): given the round number, the
/// whole update history `0..k` is reproducible on a fresh store.
fn concurrency_update_op(k: usize) -> service::UpdateOp {
    use service::UpdateOp;
    match k % 3 {
        0 => UpdateOp::InsertXml {
            uri: "bib.xml".to_string(),
            parent: "/bib".to_string(),
            xml: format!(
                "<book year=\"19{:02}\"><title>Churn Volume {k}</title>\
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

/// The snapshot-isolation claim in numbers: N reader threads stream
/// Q1–Q10 through one `QueryService` while a writer churns the catalog
/// at a swept rate. Because every query pins one immutable snapshot and
/// readers take no lock, (a) sustained queries/sec must **scale with
/// the reader count** (asserted whenever the host has ≥ 2 cores), and
/// (b) every streamed result must be **byte-identical to a serial
/// replay** of the deterministic update prefix its `updates_seen` stamp
/// names — a divergence would mean a reader observed a torn snapshot.
/// After the run every superseded version must have been reclaimed
/// (`live_snapshots == 1`).
fn concurrency(args: &Args, report: &mut Report) {
    use service::{QueryService, ServiceConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    println!("== Concurrency ablation: snapshot reads under a churning writer ==\n");
    let scale = args.scales.first().copied().unwrap_or(100);
    let all: Vec<&workloads::Workload> = workloads::ALL
        .iter()
        .chain(workloads::RANGE.iter())
        .chain(workloads::COMPOSITE.iter())
        .collect();
    let queries: Vec<&'static str> = all.iter().map(|w| w.query).collect();
    let rounds = 2usize;
    let max_updates = 300usize;
    let svc_config = ServiceConfig {
        cache_capacity: 64,
        use_indexes: true,
        slow_query_us: None,
        ..ServiceConfig::default()
    };
    let fresh = || QueryService::with_catalog(standard_catalog(scale, 2, args.seed), svc_config);
    let cfg = RunConfig::new(true);
    let par = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "{:>8} {:>13} {:>8} {:>8} {:>9} {:>8}",
        "readers", "interval(µs)", "queries", "updates", "qps", "states"
    );
    for &interval_us in &[1_000u64, 4_000] {
        let mut qps_by_readers: Vec<(usize, f64)> = Vec::new();
        for &readers in &[1usize, 2, 4] {
            let svc = Arc::new(fresh());
            // Readers record (query index, updates_seen, output) triples
            // for the replay check below.
            let captured = Arc::new(Mutex::new(Vec::<(usize, u64, String)>::new()));
            let stop = Arc::new(AtomicBool::new(false));
            let t0 = Instant::now();
            let reader_threads: Vec<_> = (0..readers)
                .map(|r| {
                    let svc = Arc::clone(&svc);
                    let captured = Arc::clone(&captured);
                    let queries = queries.clone();
                    std::thread::spawn(move || {
                        for round in 0..rounds {
                            for i in 0..queries.len() {
                                let qi = (i + r + round) % queries.len();
                                let mut out = String::new();
                                let outcome = svc
                                    .query_streamed(queries[qi], &mut |item| {
                                        out.push_str(item);
                                        true
                                    })
                                    .expect("streamed query under churn");
                                assert_eq!(
                                    outcome.output, out,
                                    "[concurrency] streamed items diverge from the outcome"
                                );
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
            // The churning writer: the deterministic op cycle at the
            // swept rate, capped so the replay below stays bounded.
            let writer = {
                let svc = Arc::clone(&svc);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut k = 0usize;
                    while !stop.load(Ordering::SeqCst) && k < max_updates {
                        svc.update(&concurrency_update_op(k))
                            .expect("writer update");
                        k += 1;
                        std::thread::sleep(std::time::Duration::from_micros(interval_us));
                    }
                    k
                })
            };
            for t in reader_threads {
                t.join().expect("reader thread");
            }
            let wall = t0.elapsed();
            stop.store(true, Ordering::SeqCst);
            let updates = writer.join().expect("writer thread");
            let served = readers * rounds * queries.len();
            let qps = served as f64 / wall.as_secs_f64().max(1e-9);
            // No torn snapshots: replay the deterministic update prefix
            // serially on a fresh service and every captured output must
            // reproduce byte-for-byte at its `updates_seen` state.
            let captured = Arc::try_unwrap(captured)
                .expect("readers joined")
                .into_inner()
                .expect("capture lock");
            let mut states: Vec<u64> = captured.iter().map(|&(_, s, _)| s).collect();
            states.sort_unstable();
            states.dedup();
            let replay = fresh();
            let mut applied = 0usize;
            for &state in &states {
                while (applied as u64) < state {
                    replay
                        .update(&concurrency_update_op(applied))
                        .expect("replay update");
                    applied += 1;
                }
                for (qi, seen, out) in captured.iter().filter(|&&(_, s, _)| s == state) {
                    let got = replay.query(queries[*qi]).expect("replay query");
                    assert_eq!(
                        &got.output, out,
                        "[concurrency] torn snapshot: query {qi} captured at update \
                         state {seen} diverges from its serial replay"
                    );
                }
            }
            // Superseded versions are reclaimed once no stream pins them.
            let live = svc.stats().live_snapshots;
            assert_eq!(
                live, 1,
                "[concurrency] {updates} published versions must leave exactly \
                 the current snapshot alive, found {live}"
            );
            println!(
                "{readers:>8} {interval_us:>13} {served:>8} {updates:>8} {qps:>9.0} {:>8}",
                states.len()
            );
            qps_by_readers.push((readers, qps));
            let m = Measurement {
                plan: format!("readers-{readers}"),
                elapsed: wall,
                doc_scans: 0,
                output_len: 0,
                estimated: false,
                tuples_produced: 0,
                probe_tuples: 0,
                index_lookups: 0,
                index_hits: 0,
                predicted_cost: None,
                operators: Vec::new(),
            };
            report.record(
                "concurrency",
                cfg,
                &[
                    ("scale", scale as i64),
                    ("readers", readers as i64),
                    ("update_interval_us", interval_us as i64),
                    ("queries", served as i64),
                    ("updates", updates as i64),
                    ("qps", qps as i64),
                    ("distinct_states", states.len() as i64),
                ],
                &m,
            );
        }
        let solo = qps_by_readers
            .iter()
            .find(|(r, _)| *r == 1)
            .map(|&(_, q)| q)
            .expect("solo config measured");
        let (best_readers, best) =
            qps_by_readers
                .iter()
                .filter(|(r, _)| *r > 1)
                .fold(
                    (1, 0.0f64),
                    |acc, &(r, q)| if q > acc.1 { (r, q) } else { acc },
                );
        if par >= 2 {
            assert!(
                best > solo,
                "[concurrency] lock-free snapshot reads must scale with readers \
                 under a churning writer: best {best:.0} q/s ({best_readers} readers) \
                 vs {solo:.0} q/s solo at interval {interval_us}µs on {par} cores"
            );
        }
        println!(
            "  → interval {interval_us}µs: {solo:.0} q/s solo → {best:.0} q/s \
             with {best_readers} readers ({:.2}×)\n",
            best / solo.max(1e-9)
        );
    }
}

// ---------------------------------------------------------------------
// Calibration: fit the cost model's guessed constants to measured times
// ---------------------------------------------------------------------

/// Competition ranks (average over ties) of `xs`, ascending.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation of two samples (`None` when either side
/// has fewer than two points or is entirely tied).
fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() < 2 {
        return None;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let cov: f64 = ra.iter().zip(&rb).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = ra.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = rb.iter().map(|y| (y - mb) * (y - mb)).sum();
    if va == 0.0 || vb == 0.0 {
        return None;
    }
    Some(cov / (va * vb).sqrt())
}

/// Fit the model's two guessed constants ([`unnest::Calibration`]) from
/// `(predicted_cost, measured_us)` pairs, then validate the fit: grid
/// search `probe_weight × fanout_prior` minimizing log-space squared
/// error with a **per-workload intercept** (the abstract-cost-unit ↔ µs
/// scale factor is workload-specific; only relative order matters for
/// plan choice), and assert the fitted model's per-workload plan
/// ranking rank-correlates with the measured ranking across Q1–Q10.
fn calibration(args: &Args, report: &mut Report) {
    println!("== Calibration: fitting probe weight and fan-out prior ==\n");
    let scale = args
        .scales
        .first()
        .copied()
        .unwrap_or(100)
        .min(args.nested_cap);
    let catalog = standard_catalog(scale, 2, args.seed);
    let cfg = RunConfig::new(true);
    let all: Vec<&workloads::Workload> = workloads::ALL
        .iter()
        .chain(workloads::RANGE.iter())
        .chain(workloads::COMPOSITE.iter())
        .collect();
    // Measure every plan of every workload (best of three — the fit
    // target), keeping the logical expressions for re-pricing under
    // candidate calibrations.
    struct Cell {
        expr: nal::Expr,
        measured_us: f64,
        m: Measurement,
    }
    let mut groups: Vec<(&str, Vec<Cell>)> = Vec::new();
    for w in &all {
        let mut cells = Vec::new();
        for (label, expr) in plans_for(w, &catalog) {
            let mut best: Option<Measurement> = None;
            for _ in 0..3 {
                let m = measure_plan_cfg(&label, &expr, &catalog, cfg);
                if best.as_ref().is_none_or(|b| m.elapsed < b.elapsed) {
                    best = Some(m);
                }
            }
            let m = best.expect("three runs");
            let measured_us = (m.elapsed.as_secs_f64() * 1e6).max(1.0);
            cells.push(Cell {
                expr,
                measured_us,
                m,
            });
        }
        groups.push((w.id, cells));
    }
    let price = |cal: unnest::Calibration, expr: &nal::Expr| {
        unnest::CostModel::with_calibration(&catalog, true, cal)
            .estimate(expr)
            .cost
            .max(1.0)
    };
    let mut fitted = unnest::Calibration::default();
    let mut best_err = f64::INFINITY;
    for &probe_weight in &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        for &fanout_prior in &[1.0, 2.0, 4.0, 8.0] {
            let cal = unnest::Calibration {
                probe_weight,
                fanout_prior,
            };
            let mut err = 0.0;
            for (_, cells) in &groups {
                let logs: Vec<(f64, f64)> = cells
                    .iter()
                    .map(|c| (price(cal, &c.expr).ln(), c.measured_us.ln()))
                    .collect();
                let intercept =
                    logs.iter().map(|(p, m)| p - m).sum::<f64>() / logs.len().max(1) as f64;
                err += logs
                    .iter()
                    .map(|(p, m)| {
                        let r = p - m - intercept;
                        r * r
                    })
                    .sum::<f64>();
            }
            if err < best_err {
                best_err = err;
                fitted = cal;
            }
        }
    }
    println!(
        "fitted at scale {scale}: probe_weight {}, fanout_prior {} \
         (log-space residual {best_err:.2})\n",
        fitted.probe_weight, fitted.fanout_prior
    );
    // Validation: the fitted model's plan ranking must rank-correlate
    // with the measured ranking, workload by workload.
    println!("{:<16} {:>6} {:>10}", "workload", "plans", "spearman ρ");
    let mut rhos: Vec<f64> = Vec::new();
    for (id, cells) in &groups {
        let predicted: Vec<f64> = cells.iter().map(|c| price(fitted, &c.expr)).collect();
        let measured: Vec<f64> = cells.iter().map(|c| c.measured_us).collect();
        let rho = spearman(&predicted, &measured);
        match rho {
            Some(r) => {
                rhos.push(r);
                println!("{id:<16} {:>6} {r:>10.2}", cells.len());
            }
            None => println!("{id:<16} {:>6} {:>10}", cells.len(), "tied"),
        }
        for c in cells {
            report.record(
                &format!("calibration:{id}"),
                cfg,
                &[
                    ("scale", scale as i64),
                    ("calibrated_cost", price(fitted, &c.expr) as i64),
                    ("probe_weight_milli", (fitted.probe_weight * 1000.0) as i64),
                    ("fanout_prior_milli", (fitted.fanout_prior * 1000.0) as i64),
                    (
                        "spearman_milli",
                        rho.map(|r| (r * 1000.0) as i64).unwrap_or(i64::MIN),
                    ),
                ],
                &c.m,
            );
        }
    }
    let mean = rhos.iter().sum::<f64>() / rhos.len().max(1) as f64;
    assert!(
        !rhos.is_empty(),
        "[calibration] at least one workload must offer rankable plans"
    );
    assert!(
        mean >= 0.3,
        "[calibration] the fitted model's plan ranking must rank-correlate \
         with the measured ranking (mean Spearman ρ {mean:.2} over {} \
         workloads at scale {scale})",
        rhos.len()
    );
    println!("\n  → mean ρ {mean:.2} over {} workloads\n", rhos.len());
}

// ---------------------------------------------------------------------
// Observability: EXPLAIN ANALYZE calibration pairs for every workload
// ---------------------------------------------------------------------

/// Run every plan of every workload (Q1–Q10: the equality, range and
/// composite sets) once with per-operator tracing and print predicted
/// cost vs measured time for the root operator; the full per-operator
/// `(predicted_cost, measured_us, rows)` pairs land in the `--json`
/// cells' `operators` arrays (`bench-observability.json` in CI). Every
/// operator of every plan must come back priced and measured — a node
/// the cost walk cannot price or the tracer never attributes fails the
/// run here, not downstream in calibration.
fn observability(args: &Args, report: &mut Report) {
    println!("== Observability: EXPLAIN ANALYZE over all workloads ==\n");
    let all: Vec<&workloads::Workload> = workloads::ALL
        .iter()
        .chain(workloads::RANGE.iter())
        .chain(workloads::COMPOSITE.iter())
        .collect();
    let scale = args.scales.first().copied().unwrap_or(100);
    let catalog = standard_catalog(scale, 2, args.seed);
    println!(
        "{:<16} {:<14} {:>5} {:>14} {:>12}",
        "workload", "plan", "ops", "root cost", "root time"
    );
    for w in &all {
        for (label, expr) in plans_for(w, &catalog) {
            if label == "nested" && scale > args.nested_cap {
                continue;
            }
            let m = measure_plan_cfg(&label, &expr, &catalog, args.cfg());
            assert!(
                !m.operators.is_empty(),
                "[observability] {} `{label}` produced no operator rows",
                w.id
            );
            for o in &m.operators {
                assert!(
                    o.predicted_cost.is_some(),
                    "[observability] {} `{label}`: operator {} unpriced",
                    w.id,
                    o.op
                );
                assert!(
                    o.calls > 0,
                    "[observability] {} `{label}`: operator {} never entered",
                    w.id,
                    o.op
                );
            }
            let root = &m.operators[0];
            println!(
                "{:<16} {:<14} {:>5} {:>14.1} {:>12}",
                w.id,
                label,
                m.operators.len(),
                root.predicted_cost.unwrap_or(f64::NAN),
                fmt_secs(std::time::Duration::from_micros(root.measured_us), false)
            );
            report.record(
                &format!("observability:{}", w.id),
                args.cfg(),
                &[("scale", scale as i64)],
                &m,
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------------
// Cost-model validation: estimates vs. measured times
// ---------------------------------------------------------------------

fn costmodel(args: &Args, report: &mut Report) {
    println!("== Cost model: estimated cost vs. measured time (scale 1000) ==\n");
    let scale = 1000.min(args.nested_cap);
    let catalog = standard_catalog(scale, 2, args.seed);
    for w in [&Q1_GROUPING, &Q3_EXISTENTIAL, &Q5_UNIVERSAL, &Q6_HAVING] {
        println!("{} ({})", w.id, w.paper_ref);
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        let plans = unnest::enumerate_plans(&nested, &catalog);
        let ranked = unnest::rank_plans_with(plans, &catalog, args.indexes);
        for (p, est) in &ranked {
            let m = measure_plan_cfg(&p.label, &p.expr, &catalog, args.cfg());
            report.record(
                &format!("costmodel:{}", w.id),
                args.cfg(),
                &[("scale", scale as i64), ("estimated_cost", est.cost as i64)],
                &m,
            );
            println!(
                "  {:<14} est {:>14.0}   measured {:>12}",
                p.label,
                est.cost,
                fmt_secs(m.elapsed, false)
            );
        }
        let cheapest = &ranked[0].0.label;
        println!("  → model picks `{cheapest}`\n");
    }
}

// ---------------------------------------------------------------------
// Fig. 6: input document sizes
// ---------------------------------------------------------------------

fn human(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2} MB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{:.1} KB", bytes as f64 / 1024.0)
    }
}

fn fig6(args: &Args) {
    println!("== Fig. 6: size of the input documents ==\n");
    println!("Use case XMP");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "size", "bib(2)", "bib(5)", "bib(10)", "prices", "reviews"
    );
    for &n in &args.scales {
        let mut row = format!("{n:<8}");
        for apb in [2usize, 5, 10] {
            let d = gen_bib(&BibConfig {
                books: n,
                authors_per_book: apb,
                seed: args.seed,
                ..BibConfig::default()
            });
            row.push_str(&format!(" {:>10}", human(document_size_bytes(&d))));
        }
        let p = gen_prices(&PricesConfig {
            entries: n,
            seed: args.seed,
            ..Default::default()
        });
        let r = gen_reviews(&ReviewsConfig {
            entries: n,
            seed: args.seed,
            ..Default::default()
        });
        row.push_str(&format!(
            " {:>12} {:>12}",
            human(document_size_bytes(&p)),
            human(document_size_bytes(&r))
        ));
        println!("{row}");
    }
    println!("\nUse case R");
    println!(
        "{:<8} {:>12} {:>12} {:>12}",
        "size", "bids", "items", "users"
    );
    for &n in &args.scales {
        let docs = gen_auction(&AuctionConfig {
            bids: n,
            seed: args.seed,
            ..Default::default()
        });
        println!(
            "{n:<8} {:>12} {:>12} {:>12}",
            human(document_size_bytes(&docs.bids)),
            human(document_size_bytes(&docs.items)),
            human(document_size_bytes(&docs.users))
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// §5.1 grouping: plans × authors-per-book × scale
// ---------------------------------------------------------------------

fn grouping(args: &Args, report: &mut Report) {
    println!("== Query 1.1.9.4 (Grouping) — §5.1 ==\n");
    // plan -> fanout -> scale -> measurement
    let mut table: BTreeMap<String, BTreeMap<usize, BTreeMap<usize, Measurement>>> =
        BTreeMap::new();
    let mut plan_order: Vec<String> = Vec::new();
    for &fanout in &[2usize, 5, 10] {
        for &scale in &args.scales {
            let mut catalog = Catalog::new();
            catalog.register(gen_bib(&BibConfig {
                books: scale,
                authors_per_book: fanout,
                seed: args.seed,
                ..BibConfig::default()
            }));
            for (label, expr) in plans_for(&Q1_GROUPING, &catalog) {
                if !plan_order.contains(&label) {
                    plan_order.push(label.clone());
                }
                let m = if label == "nested" && scale > args.nested_cap {
                    estimate_from_smaller(&table, &label, fanout, scale)
                } else {
                    measure_plan_cfg(&label, &expr, &catalog, args.cfg())
                };
                report.record(
                    "grouping",
                    args.cfg(),
                    &[("scale", scale as i64), ("fanout", fanout as i64)],
                    &m,
                );
                table
                    .entry(label)
                    .or_default()
                    .entry(fanout)
                    .or_default()
                    .insert(scale, m);
            }
        }
    }
    print_grouping_table(&plan_order, &table, &args.scales);
}

fn estimate_from_smaller(
    table: &BTreeMap<String, BTreeMap<usize, BTreeMap<usize, Measurement>>>,
    label: &str,
    fanout: usize,
    scale: usize,
) -> Measurement {
    let base = table
        .get(label)
        .and_then(|t| t.get(&fanout))
        .and_then(|m| m.iter().next_back())
        .map(|(s, m)| (*s, m.elapsed));
    let (s_small, t_small) = base.unwrap_or((1, std::time::Duration::from_millis(1)));
    Measurement::estimated(label, extrapolate_nested(t_small, s_small, scale))
}

fn print_grouping_table(
    plan_order: &[String],
    table: &BTreeMap<String, BTreeMap<usize, BTreeMap<usize, Measurement>>>,
    scales: &[usize],
) {
    print!("{:<12} {:>4}", "Plan", "apb");
    for s in scales {
        print!(" {:>16}", s);
    }
    println!();
    for label in plan_order {
        let Some(by_fanout) = table.get(label) else {
            continue;
        };
        for (fanout, by_scale) in by_fanout {
            print!("{label:<12} {fanout:>4}");
            for s in scales {
                match by_scale.get(s) {
                    Some(m) => print!(" {:>16}", fmt_secs(m.elapsed, m.estimated)),
                    None => print!(" {:>16}", "-"),
                }
            }
            println!();
        }
    }
    println!();
}

// ---------------------------------------------------------------------
// Single-knob tables (§5.2–§5.6)
// ---------------------------------------------------------------------

fn simple_table(
    args: &Args,
    report: &mut Report,
    workload: &ordered_unnesting::workloads::Workload,
    title: &str,
    scale_label: &str,
) {
    println!("== {title} ==\n");
    let mut rows: BTreeMap<String, Vec<(usize, Measurement)>> = BTreeMap::new();
    let mut plan_order: Vec<String> = Vec::new();
    for &scale in &args.scales {
        let catalog = standard_catalog(scale, 2, args.seed);
        for (label, expr) in plans_for(workload, &catalog) {
            if !plan_order.contains(&label) {
                plan_order.push(label.clone());
            }
            let m = if label == "nested" && scale > args.nested_cap {
                let prior = rows.get(&label).and_then(|v| v.last().cloned());
                match prior {
                    Some((s_small, prev)) => Measurement::estimated(
                        &label,
                        extrapolate_nested(prev.elapsed, s_small, scale),
                    ),
                    None => measure_plan_cfg(&label, &expr, &catalog, args.cfg()),
                }
            } else {
                measure_plan_cfg(&label, &expr, &catalog, args.cfg())
            };
            report.record(workload.id, args.cfg(), &[("scale", scale as i64)], &m);
            rows.entry(label).or_default().push((scale, m));
        }
    }
    print!("{:<14}", "Plan");
    for s in &args.scales {
        print!(" {:>20}", format!("{s} {scale_label}"));
    }
    println!();
    for label in &plan_order {
        let Some(cells) = rows.get(label) else {
            continue;
        };
        print!("{label:<14}");
        for (_, m) in cells {
            print!(" {:>20}", fmt_secs(m.elapsed, m.estimated));
        }
        println!();
    }
    println!();
}

// ---------------------------------------------------------------------
// §5.1 DBLP anecdote
// ---------------------------------------------------------------------

fn dblp(args: &Args, report: &mut Report) {
    println!("== §5.1 DBLP anecdote (dblp-like document, authors without books) ==\n");
    let publications = 20_000usize.min(args.nested_cap.max(1) * 20);
    let mut catalog = Catalog::new();
    catalog.register(gen_dblp(&DblpConfig {
        publications,
        seed: args.seed,
        ..DblpConfig::default()
    }));
    let plans = plans_for(&Q1_DBLP, &catalog);
    let labels: Vec<&str> = plans.iter().map(|(l, _)| l.as_str()).collect();
    println!("document: {publications} publications (10% books)");
    println!("plans offered: {labels:?}");
    assert!(
        !labels.contains(&"grouping"),
        "Eqv. 5 must be refused on the dblp-like DTD"
    );
    // Outer join: measured. Nested: measured on a 1/20 sample, then
    // extrapolated — the paper's 182h42m figure was likewise beyond
    // patience on the full document.
    for (label, expr) in &plans {
        if label == "nested" {
            let sample = (publications / 20).max(1);
            let mut small = Catalog::new();
            small.register(gen_dblp(&DblpConfig {
                publications: sample,
                seed: args.seed,
                ..DblpConfig::default()
            }));
            let nested_small = xquery::compile(Q1_DBLP.query, &small).expect("compiles");
            let m = measure_plan_cfg("nested", &nested_small, &small, args.cfg());
            let est = extrapolate_nested(m.elapsed, sample, publications);
            report.record(
                "dblp",
                args.cfg(),
                &[("publications", publications as i64)],
                &Measurement::estimated("nested", est),
            );
            println!(
                "{label:<12} {:>16}   (measured {} at {} publications)",
                fmt_secs(est, true),
                fmt_secs(m.elapsed, false),
                sample
            );
        } else {
            let m = measure_plan_cfg(label, expr, &catalog, args.cfg());
            report.record(
                "dblp",
                args.cfg(),
                &[("publications", publications as i64)],
                &m,
            );
            println!(
                "{label:<12} {:>16}   ({} document scans)",
                fmt_secs(m.elapsed, false),
                m.doc_scans
            );
        }
    }
    println!();
}
