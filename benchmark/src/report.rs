//! `all`, `compare`, `selfcheck`: whole sets of runs, their result
//! files, and the verdicts between two of them.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::Json;
use crate::metrics::{per_layer, Better, EndToEnd, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::{nproc, SPECS};
use crate::{flag, parse_flag};

/// What a child run printed: its `metric` lines and its last line.
struct ChildRun {
    metrics: Vec<(String, f64, String)>,
    correct: bool,
    attempted: f64,
    failed: f64,
    failure: Option<String>,
}

/// Run one workload in a fresh child process (so peak RSS and allocator
/// state are its own) and read back what it printed.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| {
            format!(
                "{workload}: no result line (exit {:?}): {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })?;
    let mut run = ChildRun {
        metrics: Vec::new(),
        correct: last.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: last.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        failed: last.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        failure: None,
    };
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                if let (Some(name), Some(Ok(value)), Some(unit)) = (
                    words.next(),
                    words.next().map(str::parse::<f64>),
                    words.next(),
                ) {
                    run.metrics
                        .push((name.to_string(), value, unit.to_string()));
                }
            }
            Some("failure") => run.failure = Some(line["failure".len()..].trim().to_string()),
            _ => {}
        }
    }
    Ok(run)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment() -> Json {
    Json::obj([
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::str(cpu_model())),
    ])
}

fn metric_obj(metrics: &[(String, f64, String)]) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::str(unit.clone())),
            ]),
        )
    }))
}

/// `xqbench all`: every workload, tracing off then the traced pass,
/// each in its own child; `--sets K` repeats the whole set K times and
/// records each set plus per-metric quartiles.
pub fn all(args: &[String]) -> Result<bool, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    let seconds: f64 = parse_flag(args, "--seconds", if smoke { 1.0 } else { RUN_SECONDS })?;
    let sets: usize = parse_flag(args, "--sets", 1)?;
    let out_path = flag(args, "--out")
        .unwrap_or("benchmark/out/result.json")
        .to_string();

    let mut ok = true;
    let mut set_records = Vec::new();
    // values[workload][metric] over sets, end-to-end only.
    let mut values: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for set in 0..sets.max(1) {
        let load_start = load_average();
        let mut workloads = Vec::new();
        for spec in &SPECS {
            println!("== set {} workload {} ({})", set + 1, spec.name, spec.why);
            let e2e = run_child(spec.name, seed, seconds, false, smoke)?;
            let layers = run_child(spec.name, seed, seconds, true, smoke)?;
            for (name, value, unit) in e2e.metrics.iter().chain(&layers.metrics) {
                println!("  {name} {value} {unit}");
            }
            for run in [&e2e, &layers] {
                if !run.correct {
                    ok = false;
                    println!(
                        "  FAILED: {}",
                        run.failure.as_deref().unwrap_or("incorrect run")
                    );
                }
            }
            for (name, value, _) in &e2e.metrics {
                values
                    .entry(spec.name.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(*value);
            }
            workloads.push((
                spec.name.to_string(),
                Json::obj([
                    ("correct", Json::Bool(e2e.correct && layers.correct)),
                    ("attempted", Json::Num(e2e.attempted)),
                    ("failed", Json::Num(e2e.failed)),
                    ("end_to_end", metric_obj(&e2e.metrics)),
                    ("per_layer", metric_obj(&layers.metrics)),
                ]),
            ));
        }
        let load_end = load_average();
        let noisy = load_start.max(load_end) > nproc() as f64;
        if noisy {
            println!(
                "== set {} is noisy: load average {load_start} → {load_end} on {} cores",
                set + 1,
                nproc()
            );
        }
        set_records.push(Json::obj([
            ("load_average_start", Json::Num(load_start)),
            ("load_average_end", Json::Num(load_end)),
            ("noisy", Json::Bool(noisy)),
            ("workloads", Json::Obj(workloads)),
        ]));
    }

    let summary = Json::obj(values.iter().map(|(workload, metrics)| {
        (
            workload.clone(),
            Json::obj(metrics.iter().map(|(name, v)| {
                let [q1, q2, q3] = quartiles(v);
                (
                    name.clone(),
                    Json::obj([
                        ("median", Json::Num(median(v))),
                        ("q1", Json::Num(q1)),
                        ("q2", Json::Num(q2)),
                        ("q3", Json::Num(q3)),
                        (
                            "spread",
                            Json::Num(if v.len() > 1 { iqr_share(v) } else { 0.0 }),
                        ),
                        ("sets", Json::Num(v.len() as f64)),
                    ]),
                )
            })),
        )
    }));
    let file = Json::obj([
        ("benchmark", Json::str("xqbench")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("environment", environment()),
        ("summary", summary),
        ("sets", Json::Arr(set_records)),
    ]);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, file.render() + "\n").map_err(|e| format!("{out_path}: {e}"))?;
    println!("== result file {out_path}");
    Ok(ok)
}

/// Seconds one driver run measures for.
pub const RUN_SECONDS: f64 = 12.0;

/// `BENCHMARK.json`, generated from the tables the program itself runs
/// on, so the contract cannot drift from the code.
pub fn manifest() -> Json {
    let better = |b: Better| {
        Json::str(if b == Better::Lower {
            "lower"
        } else {
            "higher"
        })
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                SPECS
                    .iter()
                    .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.in_contract)
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|(name, unit, b)| {
                        Json::obj([
                            ("name", Json::Str(name)),
                            ("unit", Json::str(unit)),
                            ("better", better(b)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one workload × metric. `spread` is the larger of the
/// two files' run-to-run spreads (interquartile range over median):
/// where it exceeds the bound, a move inside the spread is *unresolved*,
/// not *same*. `failed_share` has an absolute bound of zero.
pub fn verdict(metric: &EndToEnd, old: f64, new: f64, spread: f64) -> Verdict {
    if metric.bound == 0.0 {
        return match new.partial_cmp(&old) {
            Some(std::cmp::Ordering::Greater) => Verdict::Worse,
            Some(std::cmp::Ordering::Less) => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    if old == 0.0 {
        return Verdict::Unresolved;
    }
    let worsening = match metric.better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    };
    if spread > metric.bound && worsening.abs() <= spread {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summary_of<'a>(file: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    file.get("summary")?.get(workload)?.get(metric)
}

/// `xqbench compare old.json new.json`: one row per workload ×
/// end-to-end metric; `Ok(false)` on any *worse*.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [old_path, new_path] = args else {
        return Err("usage: xqbench compare <old.json> <new.json>".to_string());
    };
    let read = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (old, new) = (read(old_path)?, read(new_path)?);
    for (path, file) in [(old_path, &old), (new_path, &new)] {
        let sets = file.get("sets").map(Json::as_arr).unwrap_or_default();
        let noisy = sets
            .iter()
            .filter(|s| s.get("noisy").and_then(Json::as_bool) == Some(true))
            .count();
        if noisy > 0 {
            println!(
                "note: {noisy} of {} sets in {path} ran under a load average above nproc",
                sets.len()
            );
        }
    }
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "old", "new", "change", "spread", "bound"
    );
    let mut ok = true;
    for spec in &SPECS {
        for metric in &END_TO_END {
            let (Some(o), Some(n)) = (
                summary_of(&old, spec.name, metric.name),
                summary_of(&new, spec.name, metric.name),
            ) else {
                continue;
            };
            let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let (ov, nv) = (num(o, "median"), num(n, "median"));
            let spread = num(o, "spread").max(num(n, "spread"));
            // One set has no spread to speak of.
            let spread_known = num(o, "sets").max(num(n, "sets")) >= 2.0;
            let v = verdict(metric, ov, nv, spread);
            ok &= v != Verdict::Worse;
            println!(
                "{:<14} {:<14} {:>14.4} {:>14.4} {:>+7.2}% {:>8} {:>6.0}%  {}",
                spec.name,
                metric.name,
                ov,
                nv,
                if ov == 0.0 {
                    0.0
                } else {
                    (nv - ov) / ov * 100.0
                },
                if spread_known {
                    format!("{:.2}%", spread * 100.0)
                } else {
                    "-".to_string()
                },
                metric.bound * 100.0,
                v.label()
            );
        }
    }
    Ok(ok)
}

/// `xqbench selfcheck`: the traced pass twice on every one-thread
/// workload; every count must come out identical.
pub fn selfcheck(args: &[String]) -> Result<bool, String> {
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    let mut ok = true;
    for spec in SPECS
        .iter()
        .filter(|s| s.clients() == 1 && s.name != "read-write")
    {
        let counts = |run: &ChildRun| -> Vec<(String, f64)> {
            run.metrics
                .iter()
                .filter(|(name, _, unit)| {
                    (unit == "count" || unit == "bytes") && name != "trace.rounds"
                })
                .map(|(name, v, _)| (name.clone(), *v))
                .collect()
        };
        let first = run_child(spec.name, seed, 1.0, true, true)?;
        let second = run_child(spec.name, seed, 1.0, true, true)?;
        let (a, b) = (counts(&first), counts(&second));
        if a.is_empty() || !first.correct || !second.correct {
            return Err(format!("{}: traced pass failed", spec.name));
        }
        let differing: Vec<_> = a.iter().zip(&b).filter(|(x, y)| x != y).collect();
        println!(
            "{:<14} {} counts, {} differ",
            spec.name,
            a.len(),
            differing.len()
        );
        for ((name, x), (_, y)) in differing {
            println!("  {name}: {x} then {y}");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_apply_the_bounds_in_the_right_direction() {
        let up = metric("update_p50_us"); // lower is better, 8 %
        assert_eq!(verdict(up, 100.0, 107.0, 0.01), Verdict::Same);
        assert_eq!(verdict(up, 100.0, 109.0, 0.01), Verdict::Worse);
        assert_eq!(verdict(up, 100.0, 90.0, 0.01), Verdict::Better);
        let qps = metric("queries_per_s"); // higher is better, 25 %
        assert_eq!(verdict(qps, 1000.0, 700.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(qps, 1000.0, 1300.0, 0.0), Verdict::Better);
        assert_eq!(verdict(qps, 1000.0, 800.0, 0.0), Verdict::Same);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_same() {
        let up = metric("update_p50_us");
        assert_eq!(verdict(up, 100.0, 103.0, 0.12), Verdict::Unresolved);
        assert_eq!(verdict(up, 100.0, 110.0, 0.12), Verdict::Unresolved);
        // A move beyond even the spread is still called.
        assert_eq!(verdict(up, 100.0, 120.0, 0.12), Verdict::Worse);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = Json::parse(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"),
        )
        .expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let m = manifest();
        let names = |key: &str| -> Vec<String> {
            m.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Json::as_str)
                        .expect("named")
                        .to_string()
                })
                .collect()
        };
        let (w, e, p) = (names("workloads"), names("end_to_end"), names("per_layer"));
        assert!(
            (2..=8).contains(&w.len())
                && (1..=16).contains(&e.len())
                && (1..=128).contains(&p.len())
        );
        assert!(e.iter().any(|n| n == "setup_s"));
        let mut all: Vec<&String> = w.iter().chain(&e).chain(&p).collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "a name is used once");
        assert!(all.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert!(m.render().len() < 64 * 1024);
    }

    #[test]
    fn failed_share_is_absolute() {
        let f = metric("failed_share");
        assert_eq!(verdict(f, 0.0, 0.0, 0.5), Verdict::Same);
        assert_eq!(verdict(f, 0.0, 0.001, 0.0), Verdict::Worse);
        assert_eq!(verdict(f, 0.01, 0.0, 0.0), Verdict::Better);
    }
}
