//! `xqd-server` — the ordered-unnesting query server.
//!
//! ```text
//! xqd-server [--addr HOST:PORT] [--cache N] [--scale N] [--seed N]
//!            [--no-indexes] [--workers N] [--slow-query-log MS] [--smoke]
//! ```
//!
//! `--scale N` preloads the standard six-document paper workload at
//! scale `N` so clients can query without a `load` step. `--smoke`
//! starts the server on an ephemeral port, runs a scripted client
//! session against it over a real socket (load, cold query, warm query
//! that must be a cache hit, update, post-update query, explain,
//! stats, metrics — checked for Prometheus line format and counter
//! agreement with stats — shutdown), prints the transcript, and exits
//! non-zero on any mismatch — this is the CI smoke test.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;

use service::{serve, Json, QueryService, ServerConfig, ServiceConfig};

struct Args {
    addr: String,
    cache: usize,
    scale: Option<usize>,
    seed: u64,
    use_indexes: bool,
    workers: usize,
    slow_query_ms: Option<u64>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:4555".to_string(),
        cache: 64,
        scale: None,
        seed: 42,
        use_indexes: true,
        workers: 1,
        slow_query_ms: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--cache" => {
                args.cache = value("--cache")?
                    .parse()
                    .map_err(|e| format!("--cache: {e}"))?
            }
            "--scale" => {
                args.scale = Some(
                    value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--no-indexes" => args.use_indexes = false,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if args.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--slow-query-log" => {
                args.slow_query_ms = Some(
                    value("--slow-query-log")?
                        .parse()
                        .map_err(|e| format!("--slow-query-log: {e}"))?,
                )
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!(
                    "usage: xqd-server [--addr HOST:PORT] [--cache N] [--scale N] \
                     [--seed N] [--no-indexes] [--workers N] [--slow-query-log MS] [--smoke]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xqd-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let svc = Arc::new(QueryService::new(ServiceConfig {
        cache_capacity: args.cache,
        use_indexes: args.use_indexes,
        slow_query_us: args.slow_query_ms.map(|ms| ms * 1000),
        parallel_workers: args.workers,
        ..ServiceConfig::default()
    }));
    if let Some(scale) = args.scale {
        if let Err(e) = svc.load_standard(scale, args.seed) {
            eprintln!("xqd-server: preload failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("xqd-server: preloaded standard catalog at scale {scale}");
    }
    let addr = if args.smoke {
        "127.0.0.1:0".to_string()
    } else {
        args.addr.clone()
    };
    let mut handle = match serve(svc, &ServerConfig { addr }) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("xqd-server: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        let result = run_smoke(handle.addr());
        handle.shutdown();
        return match result {
            Ok(()) => {
                println!("smoke: OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke: FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    eprintln!("xqd-server: listening on {}", handle.addr());
    handle.wait();
    eprintln!("xqd-server: shut down");
    ExitCode::SUCCESS
}

/// One scripted session exercising every op over a real socket.
fn run_smoke(addr: std::net::SocketAddr) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut send = |frame: &str| -> Result<(), String> {
        println!("> {frame}");
        writer
            .write_all(frame.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    };
    let mut recv = |reader: &mut BufReader<TcpStream>| -> Result<Json, String> {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        let line = line.trim();
        println!("< {line}");
        Json::parse(line).map_err(|e| format!("bad frame `{line}`: {e}"))
    };
    let expect_ok = |v: &Json, what: &str| -> Result<(), String> {
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(())
        } else {
            Err(format!("{what}: expected ok frame, got {}", v.render()))
        }
    };
    // Collect one full query exchange; returns (rows, cache label).
    let run_query = |send: &mut dyn FnMut(&str) -> Result<(), String>,
                     reader: &mut BufReader<TcpStream>,
                     recv: &mut dyn FnMut(&mut BufReader<TcpStream>) -> Result<Json, String>,
                     q: &str|
     -> Result<(u64, String), String> {
        let frame = Json::Obj(vec![
            ("op".to_string(), Json::str("query")),
            ("q".to_string(), Json::str(q)),
        ])
        .render();
        send(&frame)?;
        let begin = recv(reader)?;
        if begin.get("type").and_then(Json::as_str) != Some("begin") {
            return Err(format!("expected begin frame, got {}", begin.render()));
        }
        loop {
            let f = recv(reader)?;
            match f.get("type").and_then(Json::as_str) {
                Some("item") => continue,
                Some("done") => {
                    let rows = f.get("rows").and_then(Json::as_u64).unwrap_or(0);
                    let cache = f
                        .get("cache")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string();
                    return Ok((rows, cache));
                }
                _ => return Err(format!("unexpected frame {}", f.render())),
            }
        }
    };

    // 1. Load a small standard catalog.
    send(r#"{"op":"load_standard","scale":20,"seed":42}"#)?;
    let v = recv(&mut reader)?;
    expect_ok(&v, "load_standard")?;

    // 2. Cold query, then the same text warm — the warm run must hit.
    let q = r#"let $d := doc("bib.xml") for $b in $d//book where some $a in $b/author satisfies $a/last = "Suciu" return <hit>{ $b/title }</hit>"#;
    let (cold_rows, cold_cache) = run_query(&mut send, &mut reader, &mut recv, q)?;
    if cold_cache != "miss" {
        return Err(format!("cold query should miss, got `{cold_cache}`"));
    }
    let (warm_rows, warm_cache) = run_query(&mut send, &mut reader, &mut recv, q)?;
    if warm_cache != "hit" {
        return Err(format!("warm query should hit, got `{warm_cache}`"));
    }
    if warm_rows != cold_rows {
        return Err(format!("row drift: cold {cold_rows} vs warm {warm_rows}"));
    }

    // 3. Malformed frame: session must answer with an error and live on.
    send("{not json")?;
    let v = recv(&mut reader)?;
    if v.get("ok").and_then(Json::as_bool) != Some(false) {
        return Err(format!("expected error frame, got {}", v.render()));
    }

    // 4. Update, then the same query again — epoch moved, so the cache
    //    may revalidate or recompile, but never falsely hit.
    send(
        r#"{"op":"update","kind":"insert","uri":"bib.xml","parent":"/bib","xml":"<book year=\"2004\"><title>Smoke</title><author><last>Suciu</last><first>D</first></author><publisher>P</publisher><price>9.99</price></book>"}"#,
    )?;
    let v = recv(&mut reader)?;
    expect_ok(&v, "update")?;
    let (post_rows, post_cache) = run_query(&mut send, &mut reader, &mut recv, q)?;
    if post_cache == "hit" {
        return Err("post-update query must not be a plain hit".to_string());
    }
    if post_rows != cold_rows + 1 {
        return Err(format!(
            "inserted book not visible: {post_rows} rows vs {} expected",
            cold_rows + 1
        ));
    }

    // 5. EXPLAIN ANALYZE: one frame, per-operator measured figures
    //    alongside predicted costs.
    let frame = Json::Obj(vec![
        ("op".to_string(), Json::str("explain")),
        ("q".to_string(), Json::str(q)),
    ])
    .render();
    send(&frame)?;
    let v = recv(&mut reader)?;
    expect_ok(&v, "explain")?;
    let operators = match v.get("operators") {
        Some(Json::Arr(ops)) if !ops.is_empty() => ops.clone(),
        other => return Err(format!("explain: missing operators, got {other:?}")),
    };
    for op in &operators {
        if op.get("op").and_then(Json::as_str).is_none()
            || op.get("rows").and_then(Json::as_u64).is_none()
            || op.get("elapsed_us").and_then(Json::as_u64).is_none()
        {
            return Err(format!("explain: malformed operator {}", op.render()));
        }
    }
    if !operators
        .iter()
        .any(|op| op.get("predicted_cost").and_then(Json::as_f64).is_some())
    {
        return Err("explain: no operator carries a predicted cost".to_string());
    }
    if v.get("stages")
        .map(|s| matches!(s, Json::Arr(a) if !a.is_empty()))
        != Some(true)
    {
        return Err("explain: missing stage spans".to_string());
    }

    // 6. Stats must reflect the session.
    send(r#"{"op":"stats"}"#)?;
    let v = recv(&mut reader)?;
    expect_ok(&v, "stats")?;
    // Warm query + explain (same text, traced run) each hit the cache.
    if v.get("cache_hits").and_then(Json::as_u64) != Some(2) {
        return Err(format!("expected exactly 2 cache hits, got {}", v.render()));
    }
    if v.get("updates").and_then(Json::as_u64) != Some(1) {
        return Err(format!("expected exactly 1 update, got {}", v.render()));
    }
    let stats_queries = v.get("queries").and_then(Json::as_u64).unwrap_or(0);
    let stats_errors = v.get("errors").and_then(Json::as_u64).unwrap_or(0);

    // 7. Metrics: Prometheus text exposition whose counters agree with
    //    the stats frame, every line well-formed.
    send(r#"{"op":"metrics"}"#)?;
    let v = recv(&mut reader)?;
    expect_ok(&v, "metrics")?;
    let text = v
        .get("text")
        .and_then(Json::as_str)
        .ok_or("metrics: missing text field")?
        .to_string();
    check_prometheus_format(&text)?;
    let queries =
        prometheus_value(&text, "xqd_queries_total").ok_or("metrics: missing xqd_queries_total")?;
    if queries != stats_queries as f64 {
        return Err(format!(
            "metrics/stats disagree on queries: {queries} vs {stats_queries}"
        ));
    }
    let errors =
        prometheus_value(&text, "xqd_errors_total").ok_or("metrics: missing xqd_errors_total")?;
    if errors != stats_errors as f64 {
        return Err(format!(
            "metrics/stats disagree on errors: {errors} vs {stats_errors}"
        ));
    }
    if prometheus_value(&text, "xqd_updates_total") != Some(1.0) {
        return Err("metrics: expected xqd_updates_total 1".to_string());
    }

    // 8. Graceful shutdown.
    send(r#"{"op":"shutdown"}"#)?;
    let v = recv(&mut reader)?;
    expect_ok(&v, "shutdown")?;
    Ok(())
}

/// Check every non-empty line of a Prometheus text exposition is either
/// a `#` comment or `name[{labels}] value` with a parseable value.
fn check_prometheus_format(text: &str) -> Result<(), String> {
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("metrics: no value in line `{line}`"))?;
        let bare = name_part.split('{').next().unwrap_or("");
        if bare.is_empty()
            || !bare
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("metrics: bad metric name in line `{line}`"));
        }
        if value_part != "+Inf" && value_part.parse::<f64>().is_err() {
            return Err(format!("metrics: bad value in line `{line}`"));
        }
    }
    Ok(())
}

/// The sample value of an unlabelled metric in a Prometheus exposition.
fn prometheus_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}
