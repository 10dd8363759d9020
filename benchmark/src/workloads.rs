//! The six workloads: what each sets up, what one operation is, and
//! the timed window that drives it with tracing off.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::linux::net::TcpStreamExt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use engine::PhysPlan;
use service::{
    serve, CacheOutcome, QueryService, ServerConfig, ServerHandle, ServiceConfig, UpdateOp,
};
use xmldb::Catalog;

use crate::inputs::{paper_set, query_set, update_script, ColdTexts, Query, UPDATE_STATES};
use crate::json::{escape_into, Json};
use crate::oracle::{translate, Reference};

/// What one operation of a workload is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `QueryService::query`, plan cache warm.
    Warm,
    /// `QueryService::query` on a never-seen text.
    Cold,
    /// A `query` frame over a socket, read to `done`.
    Wire,
    /// `query_streamed` while a writer updates at a fixed rate.
    ReadWrite,
    /// The compiled `nested` plan through the streaming executor.
    Nested,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// `standard_catalog(scale, 2, seed)`.
    pub scale: usize,
    pub use_indexes: bool,
}

/// Scales are the largest at which every query id still collects the
/// sample floor with a threefold margin in a ten-second window on two
/// cores, and at which the reference evaluation fits the run budget
/// (the scan plan of q8 is quadratic: 0.4 s per query at scale 1000).
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "warm-scan",
        why: "cached plans, no indexes: time is engine pipeline operators; an executor change shows here, an index change must not",
        kind: Kind::Warm,
        scale: 150,
        use_indexes: false,
    },
    Spec {
        name: "warm-indexed",
        why: "cached plans over index access paths: engine::access probes and xmldb::index postings do the work on q3-q10",
        kind: Kind::Warm,
        scale: 400,
        use_indexes: true,
    },
    Spec {
        name: "plan-cold",
        why: "every text is new at a small scale: parse, normalize, translate, enumerate, rank, compile and the cache miss path dominate",
        kind: Kind::Cold,
        scale: 20,
        use_indexes: true,
    },
    Spec {
        name: "wire-read",
        why: "cheap queries over the socket server: JSON codec, protocol, socket hops, snapshot pin and per-item framing are first-order",
        kind: Kind::Wire,
        scale: 50,
        use_indexes: true,
    },
    Spec {
        name: "read-write",
        why: "a streamed reader beside an open-loop writer: clone-on-write publish, delta index maintenance, xpath targets, plan revalidation",
        kind: Kind::ReadWrite,
        scale: 200,
        use_indexes: true,
    },
    Spec {
        name: "paper-nested",
        why: "the paper's baseline: per-tuple nested evaluation through nal's scalar machinery, the denominator of its headline ratio",
        kind: Kind::Nested,
        scale: 40,
        use_indexes: false,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Open-loop update rate of `read-write`, per second.
pub const UPDATE_RATE_HZ: u64 = 50;
/// Blocks the timed window is split into.
pub const BLOCKS: usize = 5;
/// Samples every query id must collect per second of window.
pub const SAMPLE_FLOOR_PER_S: f64 = 20.0;

impl Spec {
    /// The query list of the end-to-end window. The traced pass of
    /// `paper-nested` widens it to all of `Q` so that every per-id row
    /// exists on every workload.
    pub fn queries(&self, traced: bool) -> Vec<Query> {
        if self.kind == Kind::Nested && !traced {
            paper_set()
        } else {
            query_set()
        }
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            use_indexes: self.use_indexes,
            cache_capacity: 64,
            parallel_workers: 1,
            ..Default::default()
        }
    }

    /// Client threads of the window (load is generated from this one
    /// process with at most `nproc` threads).
    pub fn clients(&self) -> usize {
        match self.kind {
            Kind::Wire => nproc().min(2),
            _ => 1,
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The system under test, set up for one workload.
pub struct System {
    pub service: Option<Arc<QueryService>>,
    pub server: Option<ServerHandle>,
    /// `paper-nested`: the catalog the plans run on, and the compiled
    /// `nested` plan of each query.
    pub catalog: Option<Catalog>,
    pub nested_plans: Vec<PhysPlan>,
    /// `update_seq` once set-up is done: a query that reports
    /// `updates_seen` saw `updates_seen − base_seq` script updates.
    pub base_seq: u64,
}

impl System {
    pub fn service(&self) -> &Arc<QueryService> {
        self.service.as_ref().expect("workload has a service")
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("workload has a server").addr()
    }

    pub fn shutdown(&mut self) {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Compile the plan labelled `nested` for `text`.
fn nested_plan(text: &str, catalog: &Catalog) -> Result<PhysPlan, String> {
    let expr = translate(text, catalog)?;
    let nested = unnest::enumerate_plans(&expr, catalog)
        .into_iter()
        .find(|p| p.label == "nested")
        .ok_or("no plan labelled `nested`")?;
    Ok(engine::compile(&nested.expr))
}

/// Everything `setup_s` covers: catalog generation and load, the first
/// (cold, cache- and index-filling) run of each query, server start.
/// `traced` (the traced pass) brings up the service and the server
/// on every workload so that each layer can be probed on each.
pub fn setup(spec: &Spec, seed: u64, traced: bool) -> Result<System, String> {
    let queries = spec.queries(traced);
    let mut system = System {
        service: None,
        server: None,
        catalog: None,
        nested_plans: Vec::new(),
        base_seq: 0,
    };
    if spec.kind == Kind::Nested {
        let catalog = xmldb::gen::standard_catalog(spec.scale, 2, seed);
        for q in &queries {
            let plan = nested_plan(q.text, &catalog)?;
            engine::run_streaming_parallel(&plan, &catalog, 1).map_err(|e| e.to_string())?;
            system.nested_plans.push(plan);
        }
        system.catalog = Some(catalog);
    }
    if spec.kind != Kind::Nested || traced {
        let service = QueryService::new(spec.service_config());
        service
            .load_standard(spec.scale, seed)
            .map_err(|e| e.to_string())?;
        for q in &queries {
            service
                .query(q.text)
                .map_err(|e| format!("{}: {e}", q.id))?;
        }
        system.base_seq = service.stats().update_seq;
        system.service = Some(Arc::new(service));
    }
    if spec.kind == Kind::Wire || traced {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
        };
        system.server =
            Some(serve(Arc::clone(system.service()), &config).map_err(|e| format!("serve: {e}"))?);
    }
    Ok(system)
}

// ---------------------------------------------------------------------
// The timed window
// ---------------------------------------------------------------------

/// Warm-up then a timed window split into [`BLOCKS`] equal blocks.
#[derive(Clone, Copy)]
pub struct Window {
    begin: Instant,
    start: Instant,
    end: Instant,
}

impl Window {
    pub fn new(warmup: Duration, timed: Duration) -> Window {
        let begin = Instant::now();
        Window {
            begin,
            start: begin + warmup,
            end: begin + warmup + timed,
        }
    }

    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Block a completion instant falls into; `None` outside the window.
    fn block(&self, at: Instant) -> Option<usize> {
        if at < self.start || at >= self.end {
            return None;
        }
        let share = (at - self.start).as_secs_f64() / self.seconds();
        Some(((share * BLOCKS as f64) as usize).min(BLOCKS - 1))
    }
}

/// What one thread (or several, merged) measured in the window.
#[derive(Default)]
pub struct Samples {
    /// `latency_us[block][slot]`: one entry per verified operation.
    pub latency_us: Vec<Vec<Vec<f64>>>,
    pub attempted: u64,
    pub failed: u64,
    /// Plan-cache outcomes: hit, revalidated, recompiled, miss.
    pub cache: [u64; 4],
    /// First failure seen, for the error message.
    pub first_failure: Option<String>,
}

impl Samples {
    fn new(slots: usize) -> Samples {
        Samples {
            latency_us: vec![vec![Vec::new(); slots]; BLOCKS],
            ..Samples::default()
        }
    }

    fn record(
        &mut self,
        window: &Window,
        started: Instant,
        done: Instant,
        slot: usize,
        check: Check,
    ) {
        // Only operations that ran wholly inside the window count.
        let Some(block) = window.block(done).filter(|_| started >= window.start) else {
            return;
        };
        self.attempted += 1;
        match check.outcome {
            Ok(()) => self.latency_us[block][slot].push((done - started).as_secs_f64() * 1e6),
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
        }
        if let Some(c) = check.cache {
            self.cache[c] += 1;
        }
    }

    fn merge(&mut self, other: Samples) {
        for (mine, theirs) in self.latency_us.iter_mut().zip(other.latency_us) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.extend(t);
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (m, t) in self.cache.iter_mut().zip(other.cache) {
            *m += t;
        }
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Verdict on one operation, made after its timer stopped.
struct Check {
    outcome: Result<(), String>,
    cache: Option<usize>,
}

fn cache_slot(c: CacheOutcome) -> usize {
    match c {
        CacheOutcome::Hit => 0,
        CacheOutcome::Revalidated => 1,
        CacheOutcome::Recompiled => 2,
        CacheOutcome::Miss => 3,
    }
}

fn cache_slot_of_label(label: &str) -> Option<usize> {
    ["hit", "revalidated", "recompiled", "miss"]
        .iter()
        .position(|l| *l == label)
}

fn compare(id: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{id}: output differs from the reference ({} bytes, expected {})",
            got.len(),
            want.len()
        ))
    }
}

/// Update latencies of the open-loop writer, from each update's due time.
#[derive(Default)]
pub struct UpdateSamples {
    pub latency_us: Vec<Vec<f64>>,
    /// How late the generator started each update (µs after due).
    pub lateness_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

pub struct WindowResult {
    pub samples: Samples,
    pub updates: Option<UpdateSamples>,
    pub seconds: f64,
}

/// Run the workload's closed loop (and the writer, on `read-write`) for
/// one warm-up plus one timed window.
pub fn run_window(
    spec: &Spec,
    system: &System,
    reference: &Reference,
    queries: &[Query],
    seed: u64,
    warmup: Duration,
    timed: Duration,
) -> Result<WindowResult, String> {
    let window = Window::new(warmup, timed);
    let mut updates = None;
    let samples = match spec.kind {
        Kind::Warm => warm_loop(&window, system.service(), reference, queries),
        Kind::Cold => cold_loop(&window, system.service(), reference, seed),
        Kind::Nested => nested_loop(&window, system, reference, queries),
        Kind::Wire => {
            let addr = system.addr();
            std::thread::scope(|s| {
                let clients: Vec<_> = (0..spec.clients())
                    .map(|c| s.spawn(move || wire_loop(&window, addr, reference, queries, c)))
                    .collect();
                let mut all = Samples::new(queries.len());
                for c in clients {
                    all.merge(c.join().map_err(|_| "wire client panicked")??);
                }
                Ok::<Samples, String>(all)
            })?
        }
        Kind::ReadWrite => {
            let script = update_script(seed);
            std::thread::scope(|s| {
                let writer = s.spawn(|| write_loop(&window, system.service(), &script));
                let read = read_loop(&window, system, reference, queries);
                updates = Some(writer.join().map_err(|_| "writer panicked")?);
                Ok::<Samples, String>(read)
            })?
        }
    };
    Ok(WindowResult {
        samples,
        updates,
        seconds: window.seconds(),
    })
}

fn warm_loop(
    window: &Window,
    svc: &QueryService,
    reference: &Reference,
    queries: &[Query],
) -> Samples {
    let mut samples = Samples::new(queries.len());
    let mut k = 0usize;
    while Instant::now() < window.end {
        let slot = k % queries.len();
        k += 1;
        let started = Instant::now();
        let result = svc.query(queries[slot].text);
        let done = Instant::now();
        let check = match result {
            Ok(o) => Check {
                outcome: compare(queries[slot].id, &o.output, reference.expect(0, slot)),
                cache: Some(cache_slot(o.cache)),
            },
            Err(e) => Check {
                outcome: Err(format!("{}: {e}", queries[slot].id)),
                cache: None,
            },
        };
        samples.record(window, started, done, slot, check);
    }
    samples
}

fn cold_loop(window: &Window, svc: &QueryService, reference: &Reference, seed: u64) -> Samples {
    let mut texts = ColdTexts::new(seed);
    let mut samples = Samples::new(query_set().len());
    while Instant::now() < window.end {
        let t = texts.next_text();
        let started = Instant::now();
        let result = svc.query(&t.text);
        let done = Instant::now();
        let check = match result {
            Ok(o) => Check {
                outcome: compare(
                    "plan-cold",
                    &o.output.replace(&t.suffix, ""),
                    reference.expect(0, t.query),
                ),
                cache: Some(cache_slot(o.cache)),
            },
            Err(e) => Check {
                outcome: Err(e.to_string()),
                cache: None,
            },
        };
        samples.record(window, started, done, t.query, check);
    }
    samples
}

fn nested_loop(
    window: &Window,
    system: &System,
    reference: &Reference,
    queries: &[Query],
) -> Samples {
    let catalog = system.catalog.as_ref().expect("paper-nested has a catalog");
    let mut samples = Samples::new(queries.len());
    let mut k = 0usize;
    while Instant::now() < window.end {
        let slot = k % queries.len();
        k += 1;
        let started = Instant::now();
        let result = engine::run_streaming_parallel(&system.nested_plans[slot], catalog, 1);
        let done = Instant::now();
        let outcome = match result {
            Ok(r) => compare(queries[slot].id, &r.output, reference.expect(0, slot)),
            Err(e) => Err(format!("{}: {e}", queries[slot].id)),
        };
        samples.record(
            window,
            started,
            done,
            slot,
            Check {
                outcome,
                cache: None,
            },
        );
    }
    samples
}

fn read_loop(
    window: &Window,
    system: &System,
    reference: &Reference,
    queries: &[Query],
) -> Samples {
    let svc = system.service();
    let mut samples = Samples::new(queries.len());
    let mut out = String::new();
    let mut k = 0usize;
    while Instant::now() < window.end {
        let slot = k % queries.len();
        k += 1;
        out.clear();
        let started = Instant::now();
        let result = svc.query_streamed(queries[slot].text, &mut |item| {
            out.push_str(item);
            true
        });
        let done = Instant::now();
        let check = match result {
            Ok(o) => {
                let state = (o.updates_seen - system.base_seq) as usize % UPDATE_STATES;
                Check {
                    outcome: compare(queries[slot].id, &out, reference.expect(state, slot)),
                    cache: Some(cache_slot(o.cache)),
                }
            }
            Err(e) => Check {
                outcome: Err(format!("{}: {e}", queries[slot].id)),
                cache: None,
            },
        };
        samples.record(window, started, done, slot, check);
    }
    samples
}

/// Sleep to shortly before `due`, then yield until it: a plain sleep
/// overshoots by more than a cheap update takes.
fn wait_until(due: Instant) {
    let spin = Duration::from_micros(300);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > spin {
            std::thread::sleep(due - now - spin);
        } else {
            std::thread::yield_now();
        }
    }
}

/// The open-loop writer: update `k` is due `k / rate` seconds after the
/// start whatever happened to the ones before it, and is timed from
/// that due time. It keeps going through warm-up (so readers warm up
/// under writes) and stops at a script boundary after the window, which
/// leaves the catalog in its base state.
fn write_loop(
    window: &Window,
    svc: &QueryService,
    script: &[UpdateOp; UPDATE_STATES],
) -> UpdateSamples {
    let mut u = UpdateSamples {
        latency_us: vec![Vec::new(); BLOCKS],
        ..UpdateSamples::default()
    };
    let period = Duration::from_nanos(1_000_000_000 / UPDATE_RATE_HZ);
    let mut k = 0u32;
    loop {
        let due = window.begin + period * k;
        if due >= window.end && (k as usize).is_multiple_of(UPDATE_STATES) {
            return u;
        }
        wait_until(due);
        let started = Instant::now();
        let result = svc.update(&script[k as usize % UPDATE_STATES]);
        let done = Instant::now();
        k += 1;
        if due < window.start || due >= window.end {
            continue;
        }
        u.attempted += 1;
        u.lateness_us.push((started - due).as_secs_f64() * 1e6);
        match (result, window.block(done)) {
            (Ok(_), Some(block)) => u.latency_us[block].push((done - due).as_secs_f64() * 1e6),
            (Ok(_), None) => {
                u.failed += 1;
                u.first_failure
                    .get_or_insert("update not applied by the end of the window".to_string());
            }
            (Err(e), _) => {
                u.failed += 1;
                u.first_failure.get_or_insert(e.to_string());
            }
        }
    }
}

// ---------------------------------------------------------------------
// The wire client
// ---------------------------------------------------------------------

/// One protocol connection: strictly request then reply.
///
/// The server writes every frame and its newline as two small segments
/// and leaves Nagle's algorithm on, so the second waits for the ACK of
/// the first — which a client in request/reply rhythm delays by one
/// delayed-ACK timer (about 40 ms, once per query). The load-generating
/// client asks for immediate ACKs (`TCP_QUICKACK`, re-armed after every
/// read, since the kernel drops the mode on its own), so that the
/// workload times the codec, the protocol and the socket hops; the
/// stall itself is tracked from a plain client by the traced pass
/// (`service.wire_plain_roundtrip_us`).
pub struct WireClient {
    stream: TcpStream,
    quickack: bool,
    /// Raw reply bytes of the last exchange: whole lines.
    reply: Vec<u8>,
}

/// What one `query` exchange brought back.
pub struct WireReply {
    pub xml: String,
    pub cache: Option<usize>,
    pub frames: usize,
    pub bytes: usize,
}

impl WireClient {
    pub fn connect(addr: SocketAddr, quickack: bool) -> Result<WireClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(WireClient {
            stream,
            quickack,
            reply: Vec::new(),
        })
    }

    pub fn query_frame(text: &str) -> String {
        let mut frame = String::from("{\"op\":\"query\",\"q\":");
        escape_into(text, &mut frame);
        frame.push_str("}\n");
        frame
    }

    /// Send one frame and read the reply through its last line: `done`
    /// or an error frame. The timer of the caller stops when this
    /// returns; decoding happens in [`WireClient::decode`].
    pub fn exchange(&mut self, frame: &str) -> Result<(), String> {
        self.reply.clear();
        self.stream
            .write_all(frame.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            if self.quickack {
                self.stream
                    .set_quickack(true)
                    .map_err(|e| format!("quickack: {e}"))?;
            }
            self.reply.extend_from_slice(&chunk[..n]);
            if self.reply.ends_with(b"\n") {
                let body = &self.reply[..self.reply.len() - 1];
                let last = body
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(body, |i| &body[i + 1..]);
                let last = String::from_utf8_lossy(last);
                if last.contains("\"type\":\"done\"") || last.contains("\"ok\":false") {
                    return Ok(());
                }
            }
        }
    }

    /// Decode the last reply: the concatenated items and the plan-cache
    /// outcome the `done` frame reports.
    pub fn decode(&self) -> Result<WireReply, String> {
        let text =
            std::str::from_utf8(&self.reply).map_err(|e| format!("reply is not UTF-8: {e}"))?;
        let mut reply = WireReply {
            xml: String::new(),
            cache: None,
            frames: 0,
            bytes: text.len(),
        };
        for line in text.lines() {
            reply.frames += 1;
            let frame = Json::parse(line).map_err(|e| format!("bad frame: {e}"))?;
            if frame.get("ok").and_then(Json::as_bool) == Some(false) {
                let msg = frame.get("error").and_then(Json::as_str).unwrap_or("?");
                return Err(format!("error frame: {msg}"));
            }
            match frame.get("type").and_then(Json::as_str) {
                Some("item") => {
                    reply.xml.push_str(
                        frame
                            .get("xml")
                            .and_then(Json::as_str)
                            .ok_or("item without xml")?,
                    );
                }
                Some("done") => {
                    // Its `elapsed_us` has a varying number of digits;
                    // leaving it out keeps the byte count exact.
                    reply.bytes -= line.len() + 1;
                    reply.cache = frame
                        .get("cache")
                        .and_then(Json::as_str)
                        .and_then(cache_slot_of_label);
                }
                _ => {}
            }
        }
        Ok(reply)
    }

    pub fn close(mut self) {
        let _ = self.stream.write_all(b"{\"op\":\"close\"}\n");
        let _ = self.stream.read(&mut [0u8; 256]);
    }
}

fn wire_loop(
    window: &Window,
    addr: SocketAddr,
    reference: &Reference,
    queries: &[Query],
    client: usize,
) -> Result<Samples, String> {
    let mut conn = WireClient::connect(addr, true)?;
    let frames: Vec<String> = queries
        .iter()
        .map(|q| WireClient::query_frame(q.text))
        .collect();
    let mut samples = Samples::new(queries.len());
    // Clients start at different ids so they do not march in step.
    let mut k = client * queries.len() / 2;
    while Instant::now() < window.end {
        let slot = k % queries.len();
        k += 1;
        let started = Instant::now();
        let sent = conn.exchange(&frames[slot]);
        let done = Instant::now();
        let check = match sent.and_then(|()| conn.decode()) {
            Ok(reply) => Check {
                outcome: compare(queries[slot].id, &reply.xml, reference.expect(0, slot)),
                cache: reply.cache,
            },
            Err(e) => Check {
                outcome: Err(format!("{}: {e}", queries[slot].id)),
                cache: None,
            },
        };
        samples.record(window, started, done, slot, check);
    }
    conn.close();
    Ok(samples)
}
