//! Wire-protocol round trips against a real TCP socket: the full frame
//! grammar, malformed input, concurrent sessions, a client that
//! disconnects mid-stream, and graceful shutdown.

use service::{serve, Json, QueryService, ServerConfig, ServerHandle, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const BIB: &str = "<bib>\
    <book year=\"1994\"><title>TCP/IP Illustrated</title>\
      <author><last>Stevens</last><first>W.</first></author>\
      <publisher>Addison-Wesley</publisher><price>65.95</price></book>\
    <book year=\"2000\"><title>Data on the Web</title>\
      <author><last>Abiteboul</last><first>Serge</first></author>\
      <publisher>Morgan Kaufmann</publisher><price>39.95</price></book>\
    </bib>";

const TITLES: &str = r#"let $d := doc("bib.xml") for $t in $d//book/title return <t>{ $t }</t>"#;

fn start_server() -> ServerHandle {
    let svc = Arc::new(QueryService::new(ServiceConfig {
        cache_capacity: 16,
        use_indexes: true,
        slow_query_us: None,
        ..ServiceConfig::default()
    }));
    serve(
        svc,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
        },
    )
    .expect("bind")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// One write per frame, so the client side never waits on Nagle
    /// and any stall the tests see is the server's.
    fn send(&mut self, frame: &str) {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad frame `{line}`: {e}"))
    }

    /// Read until EOF (used after `close`); true when the server closed.
    fn at_eof(&mut self) -> bool {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map(|n| n == 0)
            .unwrap_or(true)
    }

    fn load_bib(&mut self) {
        self.send(
            &Json::Obj(vec![
                ("op".to_string(), Json::str("load")),
                ("uri".to_string(), Json::str("bib.xml")),
                ("xml".to_string(), Json::str(BIB)),
            ])
            .render(),
        );
        let v = self.recv();
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            v.render()
        );
    }

    /// Run one query exchange; returns (items, done frame).
    fn query(&mut self, q: &str) -> (Vec<String>, Json) {
        self.send(
            &Json::Obj(vec![
                ("op".to_string(), Json::str("query")),
                ("q".to_string(), Json::str(q)),
            ])
            .render(),
        );
        let begin = self.recv();
        assert_eq!(
            begin.get("type").and_then(Json::as_str),
            Some("begin"),
            "expected begin, got {}",
            begin.render()
        );
        let mut items = Vec::new();
        loop {
            let f = self.recv();
            match f.get("type").and_then(Json::as_str) {
                Some("item") => items.push(
                    f.get("xml")
                        .and_then(Json::as_str)
                        .expect("item frame carries xml")
                        .to_string(),
                ),
                Some("done") => return (items, f),
                _ => panic!("unexpected frame {}", f.render()),
            }
        }
    }
}

#[test]
fn full_session_round_trip() {
    let mut handle = start_server();
    let mut c = Client::connect(&handle);
    c.load_bib();

    // Query: streamed items concatenate to the service's own output.
    let (items, done) = c.query(TITLES);
    assert_eq!(done.get("rows").and_then(Json::as_u64), Some(2));
    assert_eq!(done.get("cache").and_then(Json::as_str), Some("miss"));
    let streamed: String = items.concat();
    let direct = handle.service().query(TITLES).expect("direct query");
    assert_eq!(streamed, direct.output, "wire items must equal Ξ output");

    // Same text again: served from the cache.
    let (_, done) = c.query(TITLES);
    assert_eq!(done.get("cache").and_then(Json::as_str), Some("hit"));

    // Update through the wire, then verify visibility.
    c.send(
        r#"{"op":"update","kind":"retext","uri":"bib.xml","path":"/bib/book/title","text":"Renamed Book"}"#,
    );
    let v = c.recv();
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        v.render()
    );
    // Sequence 2: the `load` counted too (any catalog mutation does).
    assert_eq!(v.get("update_seq").and_then(Json::as_u64), Some(2));
    let (items, done) = c.query(TITLES);
    assert!(items.concat().contains("Renamed Book"));
    assert_ne!(done.get("cache").and_then(Json::as_str), Some("hit"));

    // Stats reflect the session.
    c.send(r#"{"op":"stats"}"#);
    let v = c.recv();
    assert_eq!(v.get("queries").and_then(Json::as_u64), Some(4));
    // Two hits: the warm wire query and this test's own direct
    // `service().query` call above.
    assert_eq!(v.get("cache_hits").and_then(Json::as_u64), Some(2));
    assert_eq!(v.get("updates").and_then(Json::as_u64), Some(1));
    assert_eq!(v.get("documents").and_then(Json::as_u64), Some(1));

    // Close ends only this session.
    c.send(r#"{"op":"close"}"#);
    let v = c.recv();
    assert_eq!(v.get("op").and_then(Json::as_str), Some("close"));
    assert!(c.at_eof(), "server must close after `close`");

    handle.shutdown();
}

/// A plain client (default socket options: Nagle on, delayed ACKs) must
/// not pay a delayed-ACK timer per reply. The server used to write each
/// frame and its newline as two small segments; the second waited ~40 ms
/// for the client's ACK of the first, on every exchange (20 sequential
/// exchanges took ≈ 880 ms).
#[test]
fn sequential_exchanges_do_not_stall_on_delayed_ack() {
    let mut handle = start_server();
    let mut c = Client::connect(&handle);
    c.load_bib();
    c.query(TITLES); // cold run: plan and index
    let start = std::time::Instant::now();
    for _ in 0..20 {
        let (items, _) = c.query(TITLES);
        assert_eq!(items.len(), 2);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(400),
        "20 sequential query exchanges took {elapsed:?}"
    );
    handle.shutdown();
}

#[test]
fn malformed_frames_do_not_kill_the_session() {
    let mut handle = start_server();
    let mut c = Client::connect(&handle);
    c.load_bib();
    for bad in [
        "{not json",
        r#"{"no_op":1}"#,
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"query"}"#,
        r#"{"op":"update","kind":"insert","uri":"bib.xml"}"#,
        r#"{"op":"update","kind":"warp","uri":"bib.xml"}"#,
        r#"{"op":"load","uri":"x.xml","xml":"<unclosed>"}"#,
        r#"{"op":"query","q":"let $$ nonsense"}"#,
        r#"{"op":"update","kind":"delete","uri":"ghost.xml","path":"/x"}"#,
    ] {
        c.send(bad);
        let v = c.recv();
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(false),
            "`{bad}` must draw an error frame, got {}",
            v.render()
        );
    }
    // The session survived all of it.
    let (items, _) = c.query(TITLES);
    assert_eq!(items.len(), 2);
    handle.shutdown();
}

#[test]
fn concurrent_sessions_share_the_cache() {
    let mut handle = start_server();
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);
    a.load_bib();
    let (_, done) = a.query(TITLES);
    assert_eq!(done.get("cache").and_then(Json::as_str), Some("miss"));
    // The other session sees the plan the first one compiled.
    let (_, done) = b.query(TITLES);
    assert_eq!(done.get("cache").and_then(Json::as_str), Some("hit"));
    handle.shutdown();
}

#[test]
fn mid_stream_disconnect_leaves_the_server_healthy() {
    let mut handle = start_server();
    let mut c = Client::connect(&handle);
    c.load_bib();
    // Start a query exchange and vanish after the first frame.
    c.send(
        &Json::Obj(vec![
            ("op".to_string(), Json::str("query")),
            ("q".to_string(), Json::str(TITLES)),
        ])
        .render(),
    );
    let begin = c.recv();
    assert_eq!(begin.get("type").and_then(Json::as_str), Some("begin"));
    drop(c);

    // A fresh session on the same server still works end to end.
    let mut c2 = Client::connect(&handle);
    let (items, _) = c2.query(TITLES);
    assert_eq!(items.len(), 2);
    handle.shutdown();
}

#[test]
fn shutdown_frame_stops_the_server() {
    let mut handle = start_server();
    let mut c = Client::connect(&handle);
    c.send(r#"{"op":"shutdown"}"#);
    let v = c.recv();
    assert_eq!(v.get("op").and_then(Json::as_str), Some("shutdown"));
    // The accept loop exits; wait() returning proves the graceful path.
    handle.wait();
    assert!(handle.is_shutting_down());
    // New connections are refused (or immediately closed by a racing
    // accept that observed the flag).
    match TcpStream::connect(handle.addr()) {
        Err(_) => {}
        Ok(s) => {
            let mut line = String::new();
            let n = BufReader::new(s).read_line(&mut line).unwrap_or(0);
            assert_eq!(n, 0, "post-shutdown connection must get EOF");
        }
    }
}

#[test]
fn explain_op_over_the_wire() {
    let mut handle = start_server();
    let mut c = Client::connect(&handle);
    c.load_bib();
    let (_, _) = c.query(TITLES); // cache the plan first
    c.send(
        &Json::Obj(vec![
            ("op".to_string(), Json::str("explain")),
            ("q".to_string(), Json::str(TITLES)),
        ])
        .render(),
    );
    let v = c.recv();
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        v.render()
    );
    assert_eq!(v.get("op").and_then(Json::as_str), Some("explain"));
    assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(v.get("rows").and_then(Json::as_u64), Some(2));
    assert!(v.get("total_us").and_then(Json::as_u64).is_some());
    let fp = v
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint");
    assert_eq!(fp.len(), 16, "fingerprint is 16 hex digits: {fp}");
    assert!(fp.chars().all(|ch| ch.is_ascii_hexdigit()));
    // Stage spans: the warm path records cache_lookup + execute.
    let stages = match v.get("stages") {
        Some(Json::Arr(a)) => a.clone(),
        other => panic!("stages missing: {other:?}"),
    };
    assert!(stages
        .iter()
        .any(|s| s.get("stage").and_then(Json::as_str) == Some("execute")));
    // Operators: every row measured, at least one priced.
    let ops = match v.get("operators") {
        Some(Json::Arr(a)) if !a.is_empty() => a.clone(),
        other => panic!("operators missing: {other:?}"),
    };
    for op in &ops {
        assert!(op.get("op").and_then(Json::as_str).is_some());
        assert!(op.get("rows").and_then(Json::as_u64).is_some());
        assert!(op.get("calls").and_then(Json::as_u64).is_some());
        assert!(op.get("elapsed_us").and_then(Json::as_u64).is_some());
    }
    assert!(ops
        .iter()
        .any(|op| op.get("predicted_cost").and_then(Json::as_f64).is_some()));
    // The rendered text parses back with the engine's own parser.
    let text = v.get("text").and_then(Json::as_str).expect("text");
    let report = engine::ExplainReport::parse(text).expect("round trip");
    assert_eq!(report.nodes.len(), ops.len());

    // Malformed explain frames: error, session lives on.
    c.send(r#"{"op":"explain"}"#);
    let v = c.recv();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    c.send(r#"{"op":"explain","q":42}"#);
    let v = c.recv();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    c.send(r#"{"op":"explain","q":"for $x in ("}"#);
    let v = c.recv();
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(false),
        "{}",
        v.render()
    );
    let (items, _) = c.query(TITLES);
    assert_eq!(items.len(), 2, "session survives malformed explains");
    handle.shutdown();
}

#[test]
fn metrics_op_exposes_prometheus_text() {
    let mut handle = start_server();
    let mut c = Client::connect(&handle);
    c.load_bib();
    c.query(TITLES);
    c.query(TITLES);
    c.send(r#"{"op":"stats"}"#);
    let stats = c.recv();
    let queries = stats
        .get("queries")
        .and_then(Json::as_u64)
        .expect("queries");
    assert_eq!(
        stats.get("active_sessions").and_then(Json::as_u64),
        Some(1),
        "{}",
        stats.render()
    );
    c.send(r#"{"op":"metrics"}"#);
    let v = c.recv();
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        v.render()
    );
    let text = v
        .get("text")
        .and_then(Json::as_str)
        .expect("text")
        .to_string();
    // Line format: every non-empty line is a comment or `name[{labels}] value`.
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("value-bearing line");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable value in `{line}`"
        );
    }
    // The exposition agrees with the stats frame taken a moment ago.
    let sample = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    assert_eq!(sample("xqd_queries_total"), queries as f64);
    assert_eq!(sample("xqd_active_sessions"), 1.0);
    assert_eq!(sample("xqd_documents"), 1.0);
    handle.shutdown();
}
