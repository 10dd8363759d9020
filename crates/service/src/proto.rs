//! The `xqd-server` wire protocol: one JSON object per line, in both
//! directions (frames never contain raw newlines — [`crate::json`]
//! escapes them).
//!
//! # Requests
//!
//! ```text
//! {"op":"load","uri":"bib.xml","xml":"<bib>…</bib>"}
//! {"op":"load_standard","scale":100,"seed":42}
//! {"op":"query","q":"for $t in doc(\"bib.xml\")//title return $t"}
//! {"op":"update","kind":"insert","uri":"bib.xml","parent":"/bib","xml":"<book>…</book>"}
//! {"op":"update","kind":"delete","uri":"bib.xml","path":"/bib/book"}
//! {"op":"update","kind":"retext","uri":"bib.xml","path":"/bib/book/title","text":"New"}
//! {"op":"explain","q":"for $t in doc(\"bib.xml\")//title return $t"}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"close"}
//! {"op":"shutdown"}
//! ```
//!
//! # Responses
//!
//! Every request draws exactly one response frame — except `query`,
//! which draws a `begin` frame, zero or more `item` frames (one per
//! result item, streamed as the executor produces them), and a `done`
//! frame. Failures of any kind are `{"ok":false,"error":"…"}`; a
//! malformed line is answered with an error frame and the session
//! continues.
//!
//! ```text
//! {"ok":true,"op":"query","type":"begin"}
//! {"type":"item","xml":"<t>Data on the Web</t>"}
//! {"type":"done","rows":2,"plan":"semijoin","cache":"hit","elapsed_us":184,"updates_seen":0}
//! ```
//!
//! `explain` runs the query with per-operator tracing and answers with
//! one frame carrying the run's `nested_evals` and `spool_probes`
//! counters, the stage spans, the annotated operator list
//! (measured rows/calls/time/probes next to the predicted cost), and
//! the rendered tree. `metrics` answers with one frame whose `text`
//! field is the Prometheus text exposition of the service registry —
//! the same counters the `stats` frame reports as JSON.

use crate::json::Json;
use crate::metrics::render_prometheus;
use crate::service::{ExplainOutcome, QueryService, ServiceStats, UpdateOp};

/// A parsed request frame.
#[derive(Clone, Debug)]
pub enum Request {
    /// Register a document from inline XML.
    Load {
        /// Document URI to register under.
        uri: String,
        /// Document text.
        xml: String,
    },
    /// Replace the catalog with the standard generated workload.
    LoadStandard {
        /// Generator scale (element count knob).
        scale: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Run a query, streaming items.
    Query(
        /// The XQuery text.
        String,
    ),
    /// Apply one mutation.
    Update(UpdateOp),
    /// Run a query with per-operator tracing (EXPLAIN ANALYZE).
    Explain(
        /// The XQuery text.
        String,
    ),
    /// Report service counters.
    Stats,
    /// Report the Prometheus text exposition of the metrics registry.
    Metrics,
    /// End this session (the connection closes after the reply).
    Close,
    /// Stop the whole server gracefully.
    Shutdown,
}

/// What the session loop should do after a handled frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep reading frames.
    Continue,
    /// Close this connection.
    Close,
    /// Close this connection and stop the server.
    Shutdown,
}

fn need_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("malformed frame: {e}"))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field `op`")?;
    match op {
        "load" => Ok(Request::Load {
            uri: need_str(&v, "uri")?,
            xml: need_str(&v, "xml")?,
        }),
        "load_standard" => {
            let scale = v
                .get("scale")
                .and_then(Json::as_u64)
                .ok_or("missing numeric field `scale`")? as usize;
            let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(42);
            Ok(Request::LoadStandard { scale, seed })
        }
        "query" => Ok(Request::Query(need_str(&v, "q")?)),
        "explain" => Ok(Request::Explain(need_str(&v, "q")?)),
        "metrics" => Ok(Request::Metrics),
        "update" => {
            let kind = need_str(&v, "kind")?;
            let uri = need_str(&v, "uri")?;
            let op = match kind.as_str() {
                "insert" => UpdateOp::InsertXml {
                    uri,
                    parent: need_str(&v, "parent")?,
                    xml: need_str(&v, "xml")?,
                },
                "delete" => UpdateOp::DeleteFirst {
                    uri,
                    path: need_str(&v, "path")?,
                },
                "retext" => UpdateOp::ReplaceText {
                    uri,
                    path: need_str(&v, "path")?,
                    text: need_str(&v, "text")?,
                },
                other => return Err(format!("unknown update kind `{other}`")),
            };
            Ok(Request::Update(op))
        }
        "stats" => Ok(Request::Stats),
        "close" => Ok(Request::Close),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Render an error frame.
pub fn error_frame(msg: &str) -> String {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::str(msg)),
    ])
    .render()
}

fn ok_frame(op: &str, extra: Vec<(String, Json)>) -> String {
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::str(op)),
    ];
    fields.extend(extra);
    Json::Obj(fields).render()
}

/// Render the `stats` response payload.
pub fn stats_frame(s: &ServiceStats) -> String {
    ok_frame(
        "stats",
        vec![
            ("queries".to_string(), Json::num(s.queries as f64)),
            (
                "rows_streamed".to_string(),
                Json::num(s.rows_streamed as f64),
            ),
            ("updates".to_string(), Json::num(s.updates as f64)),
            ("cache_hits".to_string(), Json::num(s.cache.hits as f64)),
            (
                "cache_revalidations".to_string(),
                Json::num(s.cache.revalidations as f64),
            ),
            ("cache_misses".to_string(), Json::num(s.cache.misses as f64)),
            (
                "cache_invalidations".to_string(),
                Json::num(s.cache.invalidations as f64),
            ),
            (
                "cache_evictions".to_string(),
                Json::num(s.cache.evictions as f64),
            ),
            ("memo_hits".to_string(), Json::num(s.cache.memo_hits as f64)),
            ("cached_plans".to_string(), Json::num(s.cached_plans as f64)),
            ("memo_entries".to_string(), Json::num(s.memo_entries as f64)),
            ("documents".to_string(), Json::num(s.documents as f64)),
            ("update_seq".to_string(), Json::num(s.update_seq as f64)),
            ("errors".to_string(), Json::num(s.errors as f64)),
            (
                "active_sessions".to_string(),
                Json::num(s.active_sessions as f64),
            ),
            ("plan_hits".to_string(), Json::num(s.plan_hits as f64)),
            (
                "plan_revalidations".to_string(),
                Json::num(s.plan_revalidations as f64),
            ),
            (
                "plan_recompiles".to_string(),
                Json::num(s.plan_recompiles as f64),
            ),
            ("plan_misses".to_string(), Json::num(s.plan_misses as f64)),
            (
                "postings_built".to_string(),
                Json::num(s.maintenance.postings_built as f64),
            ),
            (
                "postings_maintained".to_string(),
                Json::num(s.maintenance.postings_maintained as f64),
            ),
            (
                "full_builds".to_string(),
                Json::num(s.maintenance.full_builds as f64),
            ),
            (
                "delta_updates".to_string(),
                Json::num(s.maintenance.delta_updates as f64),
            ),
            ("query_p50_us".to_string(), Json::num(s.query_p50_us as f64)),
            ("query_p90_us".to_string(), Json::num(s.query_p90_us as f64)),
            ("query_p99_us".to_string(), Json::num(s.query_p99_us as f64)),
            (
                "snapshot_version".to_string(),
                Json::num(s.snapshot_version as f64),
            ),
            (
                "live_snapshots".to_string(),
                Json::num(s.live_snapshots as f64),
            ),
            (
                "publish_p50_us".to_string(),
                Json::num(s.publish_p50_us as f64),
            ),
            (
                "publish_p99_us".to_string(),
                Json::num(s.publish_p99_us as f64),
            ),
        ],
    )
}

/// Render the `explain` response payload: run metadata and counters
/// (`nested_evals`, `spool_probes`), stage spans, the annotated
/// operator list, and the rendered tree.
pub fn explain_frame(o: &ExplainOutcome) -> String {
    let stages: Vec<Json> = o
        .trace
        .stages
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("stage".to_string(), Json::str(s.stage.label())),
                ("us".to_string(), Json::num(s.duration_us() as f64)),
            ])
        })
        .collect();
    let operators: Vec<Json> = o
        .report
        .nodes
        .iter()
        .map(|n| {
            Json::Obj(vec![
                ("op".to_string(), Json::str(n.op.clone())),
                ("detail".to_string(), Json::str(n.detail.trim_start())),
                ("depth".to_string(), Json::num(n.depth as f64)),
                ("rows".to_string(), Json::num(n.rows as f64)),
                ("calls".to_string(), Json::num(n.calls as f64)),
                ("elapsed_us".to_string(), Json::num(n.elapsed_us as f64)),
                (
                    "index_lookups".to_string(),
                    Json::num(n.index_lookups as f64),
                ),
                ("index_hits".to_string(), Json::num(n.index_hits as f64)),
                (
                    "predicted_cost".to_string(),
                    match n.predicted_cost {
                        Some(c) => Json::num(c),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    ok_frame(
        "explain",
        vec![
            ("plan".to_string(), Json::str(o.plan.clone())),
            ("cache".to_string(), Json::str(o.cache.label())),
            ("rows".to_string(), Json::num(o.rows as f64)),
            ("total_us".to_string(), Json::num(o.trace.total_us as f64)),
            (
                "nested_evals".to_string(),
                Json::num(o.metrics.nested_evals as f64),
            ),
            (
                "spool_probes".to_string(),
                Json::num(o.metrics.spool_probes as f64),
            ),
            (
                "fingerprint".to_string(),
                Json::str(format!("{:016x}", o.fingerprint)),
            ),
            ("stages".to_string(), Json::Arr(stages)),
            ("operators".to_string(), Json::Arr(operators)),
            ("text".to_string(), Json::str(o.report.render())),
        ],
    )
}

/// Handle one request line against `svc`, emitting response frames via
/// `emit` (which returns `false` when the peer is gone — mid-stream,
/// that cancels the running query). Returns what the session loop
/// should do next.
pub fn handle_line(svc: &QueryService, line: &str, emit: &mut dyn FnMut(&str) -> bool) -> Control {
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            emit(&error_frame(&e));
            return Control::Continue;
        }
    };
    match req {
        Request::Load { uri, xml } => {
            let frame = match svc.load_xml(&uri, &xml) {
                Ok(()) => ok_frame("load", vec![("uri".to_string(), Json::str(uri))]),
                Err(e) => error_frame(&e.to_string()),
            };
            emit(&frame);
            Control::Continue
        }
        Request::LoadStandard { scale, seed } => {
            let frame = match svc.load_standard(scale, seed) {
                Ok(()) => {
                    let docs = svc.stats().documents;
                    ok_frame(
                        "load_standard",
                        vec![("documents".to_string(), Json::num(docs as f64))],
                    )
                }
                Err(e) => error_frame(&e.to_string()),
            };
            emit(&frame);
            Control::Continue
        }
        Request::Query(q) => {
            handle_query(svc, &q, emit);
            Control::Continue
        }
        Request::Update(op) => {
            let frame = match svc.update(&op) {
                Ok(r) => ok_frame(
                    "update",
                    vec![
                        ("uri".to_string(), Json::str(r.uri)),
                        ("epoch".to_string(), Json::num(r.epoch as f64)),
                        ("nodes".to_string(), Json::num(r.nodes as f64)),
                        ("update_seq".to_string(), Json::num(r.update_seq as f64)),
                    ],
                ),
                Err(e) => error_frame(&e.to_string()),
            };
            emit(&frame);
            Control::Continue
        }
        Request::Explain(q) => {
            let frame = match svc.explain(&q) {
                Ok(o) => explain_frame(&o),
                Err(e) => error_frame(&e.to_string()),
            };
            emit(&frame);
            Control::Continue
        }
        Request::Stats => {
            emit(&stats_frame(&svc.stats()));
            Control::Continue
        }
        Request::Metrics => {
            let text = render_prometheus(
                &svc.stats(),
                &svc.metrics().query_latency(),
                &svc.metrics().update_latency(),
                &svc.metrics().publish_latency(),
            );
            emit(&ok_frame(
                "metrics",
                vec![("text".to_string(), Json::str(text))],
            ));
            Control::Continue
        }
        Request::Close => {
            emit(&ok_frame("close", vec![]));
            Control::Close
        }
        Request::Shutdown => {
            emit(&ok_frame("shutdown", vec![]));
            Control::Shutdown
        }
    }
}

/// The three-part query exchange: `begin`, streamed `item`s, `done`.
/// Compile errors surface as a single error frame instead of `begin`;
/// runtime errors surface as an error frame in place of `done`, so the
/// client can always tell how the exchange ended.
fn handle_query(svc: &QueryService, q: &str, emit: &mut dyn FnMut(&str) -> bool) {
    let mut begun = false;
    // The plan label and cache outcome only come back with the final
    // outcome struct, so `begin` (emitted lazily before the first item,
    // or before `done` for empty results) just opens the exchange and
    // `done` carries the metadata. Items still flow incrementally.
    let mut on_item = |item: &str| -> bool {
        if !begun {
            begun = true;
            if !emit(
                &Json::Obj(vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("op".to_string(), Json::str("query")),
                    ("type".to_string(), Json::str("begin")),
                ])
                .render(),
            ) {
                return false;
            }
        }
        emit(
            &Json::Obj(vec![
                ("type".to_string(), Json::str("item")),
                ("xml".to_string(), Json::str(item)),
            ])
            .render(),
        )
    };
    match svc.query_streamed(q, &mut on_item) {
        Ok(outcome) => {
            if !begun {
                // Empty result: still open the exchange.
                if !emit(
                    &Json::Obj(vec![
                        ("ok".to_string(), Json::Bool(true)),
                        ("op".to_string(), Json::str("query")),
                        ("type".to_string(), Json::str("begin")),
                    ])
                    .render(),
                ) {
                    return;
                }
            }
            if outcome.cancelled {
                return; // Peer is gone; nothing left to tell it.
            }
            emit(
                &Json::Obj(vec![
                    ("type".to_string(), Json::str("done")),
                    ("rows".to_string(), Json::num(outcome.rows as f64)),
                    ("plan".to_string(), Json::str(outcome.plan)),
                    ("cache".to_string(), Json::str(outcome.cache.label())),
                    (
                        "elapsed_us".to_string(),
                        Json::num(outcome.elapsed.as_micros() as f64),
                    ),
                    (
                        "updates_seen".to_string(),
                        Json::num(outcome.updates_seen as f64),
                    ),
                ])
                .render(),
            );
        }
        Err(e) => {
            emit(&error_frame(&e.to_string()));
        }
    }
}
