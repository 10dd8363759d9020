//! `xqbench` — the repository's benchmark.
//!
//! ```text
//! xqbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! xqbench all [--seed <n>] [--seconds <s>] [--sets <k>] [--smoke] [--out <file>]
//! xqbench compare <old.json> <new.json>
//! xqbench selfcheck [--seed <n>]
//! xqbench manifest
//! ```
//!
//! The first form runs one workload in this process and prints every
//! metric by name with its unit, then one JSON object on the last line
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` measures
//! the end-to-end metrics with tracing off; `--trace 1` runs the traced
//! pass and reports the per-layer metrics. `all` runs every workload
//! both ways, each in a fresh child process, and writes a result file.

mod inputs;
mod json;
mod metrics;
mod oracle;
mod report;
mod span;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use metrics::{summarize, summarize_updates, totals, Metric, END_TO_END};
use workloads::{run_window, setup, Kind, Spec, SAMPLE_FLOOR_PER_S};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Warm-up, as a share of the timed window.
const WARMUP_SHARE: f64 = 0.15;
/// Share of a traced run's `--seconds` spent in its untraced window
/// (per-id medians, and the baseline of `trace.overhead_share`).
const TRACED_WINDOW_SHARE: f64 = 0.3;
/// Share spent replaying operations; the probes take the rest.
const TRACED_REPLAY_SHARE: f64 = 0.4;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Sample floor waived (for short windows).
    smoke: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => report::all(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        Some("selfcheck") => report::selfcheck(&args[1..]),
        Some("manifest") => {
            println!("{}", pretty(&report::manifest()));
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => {
            parse_run_args(&args).and_then(|a| run_workload(&a))
        }
        _ => Err(usage()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xqbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    "usage: xqbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
     xqbench all [--seed <n>] [--seconds <s>] [--sets <k>] [--smoke] [--out <file>]\n       \
     xqbench compare <old.json> <new.json>\n       \
     xqbench selfcheck [--seed <n>]"
        .to_string()
}

/// `--flag value` pairs and bare `--switch`es, in any order.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

pub fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}")),
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let workload = flag(args, "--workload").ok_or_else(usage)?.to_string();
    let seconds: f64 = parse_flag(args, "--seconds", report::RUN_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(RunArgs {
        workload,
        seed: parse_flag(args, "--seed", 1)?,
        seconds,
        trace: match flag(args, "--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("bad value `{v}` for --trace")),
        },
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

/// `BENCHMARK.json` layout: one entry per line, so a change to one
/// metric is a one-line diff.
fn pretty(manifest: &Json) -> String {
    let mut out = String::from("{\n");
    let fields = manifest.fields();
    for (i, (key, value)) in fields.iter().enumerate() {
        let last = if i + 1 == fields.len() { "" } else { "," };
        match value {
            Json::Arr(items) if items.iter().any(|v| matches!(v, Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{sep}\n", item.render()));
                }
                out.push_str(&format!("  ]{last}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{last}\n", other.render())),
        }
    }
    out.push('}');
    out
}

fn print_metric(m: &Metric) {
    if m.note.is_empty() {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    } else {
        println!("metric {} {} {}  # {}", m.name, m.value, m.unit, m.note);
    }
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::obj(ms.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// Run one workload in this process. `Ok(false)`: it ran, and some
/// operation failed or gave a wrong answer.
fn run_workload(a: &RunArgs) -> Result<bool, String> {
    let spec: &Spec = workloads::spec(&a.workload).ok_or_else(|| {
        let names: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload `{}` (one of {})",
            a.workload,
            names.join(", ")
        )
    })?;
    println!(
        "workload {} seed {} seconds {} trace {} scale {} indexes {} clients {}{}",
        spec.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        spec.scale,
        if spec.use_indexes { "on" } else { "off" },
        spec.clients(),
        if a.smoke { " smoke" } else { "" },
    );

    // Set-up, several times over; the last one is kept and measured on.
    let repeats = if a.trace { 1 } else { SETUP_REPEATS };
    let mut setup_times = Vec::with_capacity(repeats);
    let mut system: Option<workloads::System> = None;
    for _ in 0..repeats {
        if let Some(mut old) = system.take() {
            old.shutdown();
        }
        let t = Instant::now();
        system = Some(setup(spec, a.seed, a.trace)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut system = system.expect("at least one set-up");

    // The oracle, on the benchmark's own copy of the catalog.
    let queries = spec.queries(a.trace);
    let catalog = xmldb::gen::standard_catalog(spec.scale, 2, a.seed);
    let script = inputs::update_script(a.seed);
    let reference = oracle::reference(
        &catalog,
        spec.scale,
        a.seed,
        &queries,
        (spec.kind == Kind::ReadWrite).then_some(&script),
    )?;

    let window_s = if a.trace {
        a.seconds * TRACED_WINDOW_SHARE
    } else {
        a.seconds
    };
    let window = run_window(
        spec,
        &system,
        &reference,
        &queries,
        a.seed,
        Duration::from_secs_f64(window_s * WARMUP_SHARE),
        Duration::from_secs_f64(window_s),
    )?;
    let latency = summarize(&window.samples.latency_us, window.seconds);
    let (mut attempted, mut failed) = totals(&window);
    let mut first_failure = window.samples.first_failure.clone().or_else(|| {
        window
            .updates
            .as_ref()
            .and_then(|u| u.first_failure.clone())
    });

    let mut out: Vec<Metric> = Vec::new();
    if a.trace {
        let traced = trace::traced_pass(
            spec,
            &system,
            &catalog,
            &reference,
            &queries,
            a.seed,
            Duration::from_secs_f64(a.seconds * TRACED_REPLAY_SHARE),
            &latency.p50_by_slot,
        )?;
        attempted += traced.attempted;
        failed += traced.failed;
        first_failure = first_failure.or(traced.first_failure);
        out.extend(traced.metrics);
        let cache_total = window.samples.cache.iter().sum::<u64>().max(1) as f64;
        for (name, n) in ["hit", "revalidated", "recompiled", "miss"]
            .iter()
            .zip(window.samples.cache)
        {
            out.push(Metric::new(
                format!("service.cache_{name}_share"),
                n as f64 / cache_total,
                "ratio",
            ));
        }
        out.extend(trace::per_id_metrics(&queries, &latency.p50_by_slot));
        out.push(Metric::new("nal.reference_eval_s", reference.eval_s, "s"));
        let declared = metrics::per_layer();
        if out.len() != declared.len()
            || out
                .iter()
                .zip(&declared)
                .any(|(m, (name, unit, _))| m.name != *name || m.unit != *unit)
        {
            return Err(
                "the traced pass and metrics::per_layer() disagree on the per-layer metrics"
                    .to_string(),
            );
        }
        let path = format!("benchmark/out/{}.trace.json", spec.name);
        if let Err(e) = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, traced.spans.render()))
        {
            eprintln!("xqbench: spans not written to {path}: {e}");
        }
    } else {
        let samples = format!(
            "samples={} min_per_id={}",
            latency.total_samples, latency.min_samples
        );
        out.push(
            Metric::new("query_p50_us", latency.p50.value, "us")
                .with_note(format!("noise={:.4} {samples}", latency.p50.noise)),
        );
        out.push(Metric::new("query_p95_us", latency.p95, "us").with_note(samples));
        out.push(
            Metric::new("queries_per_s", latency.rate.value, "1/s")
                .with_note(format!("noise={:.4}", latency.rate.noise)),
        );
        if let Some(u) = &window.updates {
            let s = summarize_updates(u);
            out.push(
                Metric::new("update_p50_us", s.p50.value, "us").with_note(format!(
                    "noise={:.4} samples={} from due time",
                    s.p50.noise, s.samples
                )),
            );
            out.push(Metric::new("update_p95_us", s.p95, "us").with_note(format!(
                "generator lateness p95={:.1}us max={:.1}us",
                s.lateness_p95, s.lateness_max
            )));
        }
        out.push(Metric::new(
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        out.push(
            Metric::new("setup_s", stats::median(&setup_times), "s").with_note(format!(
                "median of {repeats}; reference evaluation ({:.3}s) excluded",
                reference.eval_s
            )),
        );
    }
    system.shutdown();
    drop(system);
    if !a.trace {
        out.push(Metric::new("peak_rss_mb", metrics::peak_rss_mb(), "MB"));
    }

    let floor = (SAMPLE_FLOOR_PER_S * window.seconds).ceil() as usize;
    let starved = !a.smoke && !a.trace && latency.min_samples < floor;
    if starved {
        first_failure.get_or_insert(format!(
            "a query id collected {} samples in the window, below the floor of {floor}",
            latency.min_samples
        ));
    }
    let correct = failed == 0 && !starved;

    for m in &out {
        print_metric(m);
    }
    if let Some(why) = &first_failure {
        println!("failure {why}");
    }
    // The last line is the contract with the driver: with --trace 0 the
    // end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
    // ones. The rest is printed above and kept by `xqbench all`.
    let contract: Vec<Metric> = if a.trace {
        out
    } else {
        out.into_iter()
            .filter(|m| END_TO_END.iter().any(|e| e.in_contract && e.name == m.name))
            .collect()
    };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted.max(1) as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics_json(&contract)),
        ])
        .render()
    );
    Ok(correct)
}
