//! `harness` — regenerates the tables and figures of the paper's
//! evaluation (§5) with this repository's implementations.
//!
//! ```sh
//! cargo run --release -p bench-harness --bin harness -- [--experiment all]
//!     [--scales 100,1000,10000] [--nested-cap 1000] [--seed 42] [--smoke]
//! ```
//!
//! Experiments: `fig6`, `grouping` (§5.1), `dblp` (§5.1), `aggregation`
//! (§5.2), `existential1` (§5.3), `existential2` (§5.4), `universal`
//! (§5.5), `having` (§5.6), `calibration` (grid-fit the cost model's
//! guessed constants — index-probe weight and untraceable-path fan-out
//! — against measured index-backed plan times, then check the fitted
//! model's plan ranking rank-correlates with the measured ranking on
//! Q1–Q10), or `all`. The §5 tables run every plan over scan-based
//! access paths. `--smoke` is the CI configuration: tiny scales, every
//! experiment, under a second. An unknown experiment or flag, a missing
//! value or one that does not parse exits with status 2.
//!
//! Every cell is one timed run. Latency and throughput claims are
//! judged on xqbench (`benchmark/`), which repeats its measurements and
//! reports their spread.
//!
//! Nested plans are measured up to `--nested-cap` records and
//! extrapolated above it (marked `est.`) along a power law whose
//! exponent the two largest measured scales give — quadratic with only
//! one. Their blocks run once per outer tuple: a spool of the block's
//! invariant part replayed per tuple, or probed where a correlated σ
//! has an indexed conjunct, so the nested column grows faster than the
//! unnested ones — the very effect the paper measures — and full
//! 10 000-record runs take long. Pass `--nested-cap 10000` for fully
//! measured tables.

use std::collections::BTreeMap;
use std::str::FromStr;

use bench_harness::{
    extrapolate_nested, fmt_secs, measure_plan, measure_plan_cfg, plans_for, Measurement, RunConfig,
};
use ordered_unnesting::workloads::{
    self, Q1_DBLP, Q1_GROUPING, Q2_AGGREGATION, Q3_EXISTENTIAL, Q4_EXISTS, Q5_UNIVERSAL, Q6_HAVING,
};
use xmldb::gen::{
    gen_auction, gen_bib, gen_dblp, gen_prices, gen_reviews, standard_catalog, AuctionConfig,
    BibConfig, DblpConfig, PricesConfig, ReviewsConfig,
};
use xmldb::serializer::document_size_bytes;
use xmldb::Catalog;

const EXPERIMENTS: [&str; 10] = [
    "fig6",
    "grouping",
    "aggregation",
    "existential1",
    "existential2",
    "universal",
    "having",
    "dblp",
    "calibration",
    "all",
];

struct Args {
    experiment: String,
    scales: Vec<usize>,
    nested_cap: usize,
    seed: u64,
}

/// Report a bad command line and exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("harness: {msg}");
    std::process::exit(2);
}

fn parse_value<T: FromStr>(flag: &str, v: &str) -> T {
    v.trim()
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: cannot parse `{v}`")))
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".to_string(),
        scales: vec![100, 1000, 10000],
        nested_cap: 1000,
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--experiment" | "-e" => {
                let e = value();
                if !EXPERIMENTS.contains(&e.as_str()) {
                    usage_error(&format!(
                        "unknown experiment `{e}` (use {})",
                        EXPERIMENTS.join("|")
                    ));
                }
                args.experiment = e;
            }
            "--scales" => {
                args.scales = value()
                    .split(',')
                    .map(|s| parse_value("--scales", s))
                    .collect();
            }
            "--nested-cap" => args.nested_cap = parse_value("--nested-cap", &value()),
            "--seed" => args.seed = parse_value("--seed", &value()),
            "--smoke" => {
                // CI configuration: everything, tiny, fast.
                args.scales = vec![50];
                args.nested_cap = 50;
                args.experiment = "all".to_string();
            }
            "--help" | "-h" => {
                println!("see module docs: cargo doc -p bench-harness");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let run = |name: &str| args.experiment == "all" || args.experiment == name;
    println!("ordered-unnesting harness — reproducing the §5 evaluation");
    println!(
        "scales {:?}, nested plans measured up to {} (extrapolated beyond, marked est.), \
         seed {}\n",
        args.scales, args.nested_cap, args.seed
    );
    if run("fig6") {
        fig6(&args);
    }
    if run("grouping") {
        grouping(&args);
    }
    if run("aggregation") {
        simple_table(
            &args,
            &Q2_AGGREGATION,
            "Query 1.1.9.10 (Aggregation) — §5.2",
            "books",
        );
    }
    if run("existential1") {
        simple_table(
            &args,
            &Q3_EXISTENTIAL,
            "Query 1.1.9.5 (Existential Quantification I) — §5.3",
            "books/reviews",
        );
    }
    if run("existential2") {
        simple_table(
            &args,
            &Q4_EXISTS,
            "Existential Quantification II (exists()) — §5.4",
            "books",
        );
    }
    if run("universal") {
        simple_table(
            &args,
            &Q5_UNIVERSAL,
            "Universal Quantification — §5.5",
            "books",
        );
    }
    if run("having") {
        simple_table(
            &args,
            &Q6_HAVING,
            "Query 1.4.4.14 (Aggregation in the Where Clause) — §5.6",
            "bids",
        );
    }
    if run("dblp") {
        dblp(&args);
    }
    if run("calibration") {
        calibration(&args);
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

fn grouping(args: &Args) {
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
                    measure_plan(&label, &expr, &catalog)
                };
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
    let measured: Vec<_> = (table.get(label).and_then(|t| t.get(&fanout)))
        .into_iter()
        .flatten()
        .filter(|(_, m)| !m.estimated)
        .map(|(s, m)| (*s, m.elapsed))
        .collect();
    let measured = match measured.is_empty() {
        true => vec![(1, std::time::Duration::from_millis(1))],
        false => measured,
    };
    Measurement::estimated(label, extrapolate_nested(&measured, scale))
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
                let measured: Vec<_> = (rows.get(&label).into_iter().flatten())
                    .filter(|(_, m)| !m.estimated)
                    .map(|(s, m)| (*s, m.elapsed))
                    .collect();
                match measured.is_empty() {
                    false => Measurement::estimated(&label, extrapolate_nested(&measured, scale)),
                    true => measure_plan(&label, &expr, &catalog),
                }
            } else {
                measure_plan(&label, &expr, &catalog)
            };
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

fn dblp(args: &Args) {
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
            let m = measure_plan("nested", &nested_small, &small);
            let est = extrapolate_nested(&[(sample, m.elapsed)], publications);
            println!(
                "{label:<12} {:>16}   (measured {} at {} publications)",
                fmt_secs(est, true),
                fmt_secs(m.elapsed, false),
                sample
            );
        } else {
            let m = measure_plan(label, expr, &catalog);
            println!(
                "{label:<12} {:>16}   ({} document scans)",
                fmt_secs(m.elapsed, false),
                m.doc_scans
            );
        }
    }
    println!();
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
fn calibration(args: &Args) {
    println!("== Calibration: fitting probe weight and fan-out prior ==\n");
    let scale = args
        .scales
        .first()
        .copied()
        .unwrap_or(100)
        .min(args.nested_cap);
    let catalog = standard_catalog(scale, 2, args.seed);
    let all: Vec<&workloads::Workload> = workloads::ALL
        .iter()
        .chain(workloads::RANGE.iter())
        .chain(workloads::COMPOSITE.iter())
        .collect();
    // Measure every plan of every workload (best of three — the fit
    // target), keeping the logical expressions for re-pricing under
    // candidate calibrations.
    let mut groups: Vec<(&str, Vec<(nal::Expr, f64)>)> = Vec::new();
    for w in &all {
        let mut cells = Vec::new();
        for (label, expr) in plans_for(w, &catalog) {
            let best = (0..3)
                .map(|_| measure_plan_cfg(&label, &expr, &catalog, RunConfig::new(true)).elapsed)
                .min()
                .expect("three runs");
            let measured_us = (best.as_secs_f64() * 1e6).max(1.0);
            cells.push((expr, measured_us));
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
                    .map(|(e, us)| (price(cal, e).ln(), us.ln()))
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
        let predicted: Vec<f64> = cells.iter().map(|(e, _)| price(fitted, e)).collect();
        let measured: Vec<f64> = cells.iter().map(|&(_, us)| us).collect();
        match spearman(&predicted, &measured) {
            Some(r) => {
                rhos.push(r);
                println!("{id:<16} {:>6} {r:>10.2}", cells.len());
            }
            None => println!("{id:<16} {:>6} {:>10}", cells.len(), "tied"),
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
