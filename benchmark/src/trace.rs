//! The traced pass: per-layer numbers, measured from outside.
//!
//! Every operation of the workload is replayed stage by stage through
//! the public functions of each crate, with a span around each call,
//! and beside it the real operation is timed once at every depth
//! (socket round trip ⊃ `handle_line` ⊃ `query_streamed`/`query` ⊃
//! execute). A layer's self time is what its span covers and no span
//! below it does. After the replay a fixed set of probes times the
//! layers the workload does not reach on its own path (generation,
//! parsing, index build, pin, updates, the parallel executor, the
//! paper's nested-versus-unnested ratio), on this workload's catalog,
//! so every per-layer metric exists on every workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use engine::PhysPlan;
use nal::obs::ExecTrace;
use service::QueryService;
use xmldb::{Catalog, CatalogHandle};

use crate::inputs::{
    all_ids, id_index, paper_set, update_script, ColdText, ColdTexts, Query, UPDATE_STATES,
};
use crate::json::Json;
use crate::metrics::Metric;
use crate::oracle::{apply_update, translate, Reference};
use crate::span::{self, Recorder};
use crate::stats::{geomean, median};
use crate::workloads::{nproc, Kind, Spec, System, WireClient};

/// Operator families of `engine.op.<family>.self_share`.
pub const FAMILIES: [&str; 11] = [
    "unnestmap",
    "indexscan",
    "select",
    "map",
    "hashjoin",
    "loopjoin",
    "indexjoin",
    "group",
    "xi",
    "parallel",
    "other",
];

pub fn family(op_name: &str) -> &'static str {
    match op_name {
        "UnnestMap" | "Unnest" => "unnestmap",
        "IndexScan" => "indexscan",
        "Select" => "select",
        "Map" => "map",
        "Xi" | "XiGroup" => "xi",
        "Parallel" | "MorselFeed" => "parallel",
        "HashGroup" | "ThetaGroup" | "HashNestJoin" | "ThetaNestJoin" => "group",
        n if n.starts_with("Index") && n.ends_with("Join") => "indexjoin",
        n if n.starts_with("Hash") && n.ends_with("Join") => "hashjoin",
        n if n.starts_with("Loop") && n.ends_with("Join") => "loopjoin",
        _ => "other",
    }
}

/// Add each plan node's self time (inclusive time minus its children's)
/// to its operator family.
pub fn add_family_self_ns(
    plan: &PhysPlan,
    trace: &ExecTrace,
    into: &mut BTreeMap<&'static str, f64>,
) {
    let inclusive = |p: &PhysPlan| {
        trace
            .get(p as *const PhysPlan as usize)
            .map_or(0, |s| s.elapsed_ns)
    };
    let children = plan.children();
    let below: u64 = children.iter().map(|c| inclusive(c)).sum();
    *into.entry(family(plan.op_name())).or_insert(0.0) +=
        inclusive(plan).saturating_sub(below) as f64;
    for c in children {
        add_family_self_ns(c, trace, into);
    }
}

/// Layers of the share table (`share.<layer>`).
pub const LAYERS: [&str; 5] = [
    "xquery",
    "unnest",
    "engine_plan",
    "engine_execute",
    "service",
];

/// Times of one query slot (ns), one entry per round: the real
/// operation at every depth, the direct execute with and without the
/// engine's tracing, and the compile stages. Everything derived from
/// them is taken between per-slot medians, which a descheduled
/// operation does not move.
#[derive(Default, Clone)]
struct SlotTimes {
    query: Vec<f64>,
    streamed: Vec<f64>,
    handle_line: Vec<f64>,
    roundtrip: Vec<f64>,
    execute: Vec<f64>,
    execute_traced: Vec<f64>,
    /// `paper-nested` only: the plan its probe service runs (the
    /// top-ranked one), for `service.overhead_us`.
    execute_top: Vec<f64>,
    /// parse + normalize + fingerprint + translate.
    xquery: Vec<f64>,
    /// enumerate + rank.
    unnest: Vec<f64>,
    /// compile, plus the index rewrite where the workload runs it.
    plan: Vec<f64>,
}

/// What the compile stages of one text produced.
struct Compiled {
    /// The plan this workload executes for the text.
    plan: PhysPlan,
    /// The plan a service executes for it, where that is another one
    /// (`paper-nested` runs the `nested` plan, a service never does).
    service_plan: Option<PhysPlan>,
    xquery_ns: f64,
    unnest_ns: f64,
    plan_ns: f64,
    alternatives: usize,
    top_is_unnested: bool,
}

/// Parse → … → physical plan, one span per public entry point.
fn compile_stages(
    r: &mut Recorder,
    text: &str,
    catalog: &Catalog,
    spec: &Spec,
) -> Result<Compiled, String> {
    r.span("compile", |r| {
        let parsed = r
            .time("xquery.parse", || xquery::parse_query(text))
            .map_err(|e| e.to_string())?;
        let mut xquery_ns = r.last_ns();
        let normalized = r.time("xquery.normalize", || xquery::normalize(&parsed, catalog));
        xquery_ns += r.last_ns();
        let fingerprint = r.time("xquery.fingerprint", || {
            xquery::Fingerprint::of_normalized(&normalized)
        });
        xquery_ns += r.last_ns();
        std::hint::black_box(fingerprint.hash);
        let expr = r
            .time("xquery.translate", || {
                xquery::translate(&normalized, catalog)
            })
            .map_err(|e| e.to_string())?;
        xquery_ns += r.last_ns();
        let plans = r.time("unnest.enumerate", || {
            unnest::enumerate_plans(&expr, catalog)
        });
        let mut unnest_ns = r.last_ns();
        let alternatives = plans.len();
        let ranked = r.time("unnest.rank", || {
            unnest::rank_plans_with(plans, catalog, spec.use_indexes)
        });
        unnest_ns += r.last_ns();
        let top_is_unnested = ranked.first().is_some_and(|(p, _)| p.label != "nested");
        let choice = if spec.kind == Kind::Nested {
            ranked.iter().find(|(p, _)| p.label == "nested")
        } else {
            ranked.first()
        }
        .map(|(p, _)| p)
        .ok_or("no plan to run")?;
        let service_plan = match ranked.first() {
            Some((top, _)) if spec.kind == Kind::Nested => Some(engine::compile(&top.expr)),
            _ => None,
        };
        let scan = r.time("engine.compile", || engine::compile(&choice.expr));
        let mut plan_ns = r.last_ns();
        // The rewrites are timed on every workload; only an indexed
        // workload runs (and is charged for) the index-rewritten plan,
        // and no workload runs with more than one worker.
        let input = r.time("bench.clone", || scan.clone());
        let rewritten = r.time("engine.index_rewrite", || {
            engine::apply_indexes(input, catalog)
        });
        let plan = if spec.use_indexes {
            plan_ns += r.last_ns();
            rewritten
        } else {
            scan
        };
        let parallel = r.time("engine.parallel_rewrite", || engine::apply_parallel(&plan));
        std::hint::black_box(&parallel);
        Ok(Compiled {
            plan,
            service_plan,
            xquery_ns,
            unnest_ns,
            plan_ns,
            alternatives,
            top_is_unnested,
        })
    })
}

/// Counts of one round of the query set (they repeat exactly for a
/// seed on the one-thread workloads).
#[derive(Default, Clone, PartialEq, Debug)]
struct RoundCounts {
    metrics: nal::Metrics,
    rows: u64,
    alternatives: u64,
    chosen_unnested: u64,
    ops: u64,
    frames: u64,
    bytes: u64,
}

pub struct TraceOutput {
    pub metrics: Vec<Metric>,
    pub spans: Json,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

struct Pass<'a> {
    spec: &'a Spec,
    catalog: &'a Catalog,
    service: &'a QueryService,
    reference: &'a Reference,
    queries: &'a [Query],
    wire: WireClient,
    /// `plan-cold`: the workload's own mix of texts, and a second
    /// generator for the extra misses the other phases need.
    cold: ColdTexts,
    cold_aux: ColdTexts,
    rec: Recorder,
    times: Vec<SlotTimes>,
    families: BTreeMap<&'static str, f64>,
    rounds: u32,
    first_round: Option<RoundCounts>,
    round: RoundCounts,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Pass<'_> {
    fn check(&mut self, what: &str, got: &str, text: &ColdText) {
        self.attempted += 1;
        let want = self.reference.expect(0, text.query);
        let same = if text.suffix.is_empty() {
            got == want
        } else {
            got.replace(&text.suffix, "") == want
        };
        if !same {
            self.failed += 1;
            self.first_failure.get_or_insert(format!(
                "{what} of {}: output differs from the reference",
                self.queries[text.query].id
            ));
        }
    }

    fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        self.first_failure.get_or_insert(format!("{what}: {err}"));
    }

    /// A text for one call on this slot: the query itself, or on
    /// `plan-cold` a retagged copy nobody has sent before.
    fn text(&mut self, slot: usize) -> ColdText {
        if self.spec.kind == Kind::Cold {
            self.cold_aux.fresh_for(slot)
        } else {
            ColdText {
                query: slot,
                text: self.queries[slot].text.to_string(),
                suffix: String::new(),
                renamed: false,
            }
        }
    }

    /// One round: every phase walks the whole query set before the next
    /// starts, so that each call meets the processor caches in the state
    /// the workload's own round-robin leaves them in. Spans of one
    /// operation (same round, same slot) share an id across phases.
    fn round(&mut self) -> Result<(), String> {
        let n = self.queries.len();
        let base = self.rounds * n as u32 + 1;
        self.rounds += 1;
        self.round = RoundCounts::default();
        let (catalog, svc) = (self.catalog, self.service);

        let mut plans = Vec::with_capacity(n);
        for slot in 0..n {
            self.rec.set_op(base + slot as u32);
            let text = self.text(slot);
            let c = compile_stages(&mut self.rec, &text.text, catalog, self.spec)?;
            let t = &mut self.times[slot];
            t.xquery.push(c.xquery_ns);
            t.unnest.push(c.unnest_ns);
            t.plan.push(c.plan_ns);
            self.round.alternatives += c.alternatives as u64;
            self.round.chosen_unnested += u64::from(c.top_is_unnested);
            self.round.ops += 1;
            if let Some(top) = &c.service_plan {
                let run = self.rec.time("engine.execute_top", || {
                    engine::run_streaming_parallel(top, catalog, 1)
                });
                self.times[slot].execute_top.push(self.rec.last_ns());
                if let Err(e) = run {
                    self.fail("execute of the top-ranked plan", e);
                }
            }
            plans.push((c.plan, text));
        }

        // Execute: untraced (the layer's time), then with the engine's
        // per-operator tracing (who inside it spent the time).
        for (slot, (plan, text)) in plans.iter().enumerate() {
            self.rec.set_op(base + slot as u32);
            let run = self.rec.time("engine.execute", || {
                engine::run_streaming_parallel(plan, catalog, 1)
            });
            self.times[slot].execute.push(self.rec.last_ns());
            match run {
                Ok(res) => {
                    self.round.metrics.merge(&res.metrics);
                    self.round.rows += res.rows.len() as u64;
                    self.check("execute", &res.output, text);
                }
                Err(e) => self.fail("execute", e),
            }
        }
        for (slot, (plan, _)) in plans.iter().enumerate() {
            self.rec.set_op(base + slot as u32);
            let run = self.rec.time("engine.execute_traced", || {
                engine::run_streaming_traced_parallel(plan, catalog, 1)
            });
            self.times[slot].execute_traced.push(self.rec.last_ns());
            match run {
                Ok((_, trace)) => add_family_self_ns(plan, &trace, &mut self.families),
                Err(e) => self.fail("traced execute", e),
            }
        }

        // The real operation, one phase per depth.
        for slot in 0..n {
            // `plan-cold` sends its own mix here; only the misses are
            // kept, so that they pair with the compile stages above.
            let text = if self.spec.kind == Kind::Cold {
                self.cold.next_text()
            } else {
                self.text(slot)
            };
            self.rec.set_op(base + slot as u32);
            let out = self.rec.time("service.query", || svc.query(&text.text));
            if !text.renamed {
                self.times[text.query].query.push(self.rec.last_ns());
            }
            match out {
                Ok(o) => self.check("query", &o.output, &text),
                Err(e) => self.fail("query", e),
            }
        }
        for slot in 0..n {
            let text = self.text(slot);
            self.rec.set_op(base + slot as u32);
            let mut streamed = String::new();
            let out = self.rec.time("service.query_streamed", || {
                svc.query_streamed(&text.text, &mut |item| {
                    streamed.push_str(item);
                    true
                })
            });
            self.times[slot].streamed.push(self.rec.last_ns());
            match out {
                Ok(_) => self.check("query_streamed", &streamed, &text),
                Err(e) => self.fail("query_streamed", e),
            }
        }
        for slot in 0..n {
            let frame = WireClient::query_frame(&self.text(slot).text);
            self.rec.set_op(base + slot as u32);
            let mut bytes = 0usize;
            self.rec.time("service.handle_line", || {
                service::proto::handle_line(svc, frame.trim_end(), &mut |line| {
                    bytes += line.len();
                    true
                })
            });
            self.times[slot].handle_line.push(self.rec.last_ns());
            std::hint::black_box(bytes);
        }
        for slot in 0..n {
            let text = self.text(slot);
            let frame = WireClient::query_frame(&text.text);
            self.rec.set_op(base + slot as u32);
            let sent = self
                .rec
                .time("wire.roundtrip", || self.wire.exchange(&frame));
            self.times[slot].roundtrip.push(self.rec.last_ns());
            match sent.and_then(|()| self.wire.decode()) {
                Ok(reply) => {
                    self.round.frames += reply.frames as u64;
                    self.round.bytes += reply.bytes as u64;
                    self.check("wire", &reply.xml, &text);
                }
                Err(e) => self.fail("wire", e),
            }
        }

        if self.first_round.is_none() {
            self.first_round = Some(self.round.clone());
        }
        Ok(())
    }
}

/// Median self time (µs) of the spans called `name`.
fn self_us(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    by_name.get(name).map_or(0.0, |v| median(v) / 1e3)
}

/// Median over slots of `f(slot)`, in µs: a depth difference between
/// two layers' per-slot medians. Signed: a layer thinner than the
/// measurement's resolution reads a little below zero as often as above.
fn slot_median_us(times: &[SlotTimes], f: impl Fn(&SlotTimes) -> f64) -> f64 {
    median(&times.iter().map(|t| f(t) / 1e3).collect::<Vec<_>>())
}

/// The workload's real operation per slot (ns) and its split over
/// [`LAYERS`]: what the replay can account for goes to the layer that
/// did it, the rest is the service's own (cache, pin, protocol, wire).
fn layer_split(kind: Kind, t: &SlotTimes) -> (f64, [f64; 5]) {
    let total = median(match kind {
        Kind::Warm | Kind::Cold => &t.query,
        Kind::ReadWrite => &t.streamed,
        Kind::Wire => &t.roundtrip,
        Kind::Nested => &t.execute,
    });
    let mut parts = [0.0; 5];
    parts[3] = median(&t.execute).min(total);
    if kind == Kind::Cold {
        parts[0] = median(&t.xquery);
        parts[1] = median(&t.unnest);
        parts[2] = median(&t.plan);
    }
    parts[4] = (total - parts.iter().sum::<f64>()).max(0.0);
    (total, parts)
}

/// Median time (µs) of `times` runs of `plan` at `workers` workers.
fn median_run_us(
    plan: &PhysPlan,
    catalog: &Catalog,
    workers: usize,
    times: usize,
) -> Result<f64, String> {
    let mut runs = Vec::with_capacity(times);
    for _ in 0..times {
        let t = Instant::now();
        engine::run_streaming_parallel(plan, catalog, workers).map_err(|e| e.to_string())?;
        runs.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&runs))
}

fn median_secs(mut f: impl FnMut(), times: usize) -> f64 {
    let samples: Vec<f64> = (0..times)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `xmldb.*`: generation, serialize, parse, path-index build, pin.
fn storage_probes(
    spec: &Spec,
    seed: u64,
    catalog: &Catalog,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let gen_s = median_secs(
        || {
            std::hint::black_box(xmldb::gen::standard_catalog(spec.scale, 2, seed));
        },
        3,
    );
    m.push(Metric::new("xmldb.gen_s", gen_s, "s"));

    let mut texts: Vec<(String, String)> = Vec::new();
    let serialize_s = median_secs(
        || {
            texts = catalog
                .iter()
                .map(|(_, d)| (d.uri.clone(), xmldb::serializer::serialize_document(d)))
                .collect();
        },
        3,
    );
    let bytes: usize = texts.iter().map(|(_, t)| t.len()).sum();
    let nodes: usize = catalog.iter().map(|(_, d)| d.node_count()).sum();
    let mut parse_err = None;
    let parse_s = median_secs(
        || {
            for (uri, text) in &texts {
                if let Err(e) = xmldb::parse_document(uri, text) {
                    parse_err = Some(e.to_string());
                }
            }
        },
        3,
    );
    if let Some(e) = parse_err {
        return Err(format!("re-parsing a serialized document: {e}"));
    }
    let mb = bytes as f64 / 1e6;
    m.push(Metric::new("xmldb.parse_mb_per_s", mb / parse_s, "MB/s"));
    m.push(Metric::new(
        "xmldb.serialize_mb_per_s",
        mb / serialize_s,
        "MB/s",
    ));
    m.push(Metric::new("xmldb.doc_bytes", bytes as f64, "bytes"));
    m.push(Metric::new("xmldb.nodes", nodes as f64, "count"));

    let fresh: Vec<Catalog> = (0..3)
        .map(|_| xmldb::gen::standard_catalog(spec.scale, 2, seed))
        .collect();
    let mut next = fresh.iter();
    let index_build_s = median_secs(
        || {
            next.next()
                .expect("one catalog per repeat")
                .prewarm_indexes()
        },
        3,
    );
    m.push(Metric::new("xmldb.index_build_s", index_build_s, "s"));

    let handle = CatalogHandle::new(catalog.clone());
    let pin_ns = median_secs(
        || {
            for _ in 0..10_000 {
                std::hint::black_box(handle.pin());
            }
        },
        5,
    ) * 1e9
        / 10_000.0;
    m.push(Metric::new("xmldb.pin_ns", pin_ns, "ns"));
    Ok(())
}

/// `service.wire_plain_roundtrip_us`: the same exchange from a client
/// that does not ask for immediate ACKs (see [`WireClient`]). The first
/// exchange on a fresh connection is still acknowledged at once; the
/// median of a handful is the steady state a plain client lives in.
fn plain_wire_probe(system: &System, queries: &[Query], m: &mut Vec<Metric>) -> Result<(), String> {
    let mut plain = WireClient::connect(system.addr(), false)?;
    let frame = WireClient::query_frame(queries[queries.len() - 1].text);
    let mut times = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        plain.exchange(&frame)?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    plain.close();
    m.push(Metric::new(
        "service.wire_plain_roundtrip_us",
        median(&times),
        "us",
    ));
    Ok(())
}

/// The update script applied to a private catalog (storage layer
/// alone) and through the service (publish and all), closed loop.
fn update_probes(
    seed: u64,
    catalog: &Catalog,
    service: &QueryService,
    cycles: usize,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let script = update_script(seed);
    let mut private = catalog.clone();
    let before = private.index_maintenance_stats();
    let mut rec = Recorder::new();
    for _ in 0..cycles {
        for op in &script {
            apply_update(&mut private, op, &mut rec)?;
        }
    }
    let after = private.index_maintenance_stats();
    let updates = (cycles * UPDATE_STATES) as f64;
    let by_name = span::self_times_by_name(rec.spans());
    m.push(Metric::new(
        "xmldb.update_apply_us",
        self_us(&by_name, "xmldb.update_apply"),
        "us",
    ));
    m.push(Metric::new(
        "xpath.resolve_us",
        self_us(&by_name, "xpath.resolve"),
        "us",
    ));
    m.push(Metric::new(
        "xmldb.postings_touched_per_update",
        (after.postings_maintained - before.postings_maintained) as f64 / updates,
        "count",
    ));
    m.push(Metric::new(
        "xmldb.full_builds",
        (after.full_builds - before.full_builds) as f64,
        "count",
    ));

    let mut times = Vec::new();
    for _ in 0..cycles {
        for op in &script {
            let t = Instant::now();
            service
                .update(op)
                .map_err(|e| format!("service update: {e}"))?;
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.push(Metric::new("service.update_us", median(&times), "us"));
    m.push(Metric::new(
        "service.live_snapshots_end",
        service.stats().live_snapshots as f64,
        "count",
    ));
    Ok(())
}

/// `engine.execute_par_us`, `engine.par_speedup`: each plan after
/// `apply_parallel` at `min(nproc, 4)` workers against one worker.
/// Informational; with fewer than two cores the ratio says nothing.
fn parallel_probe(
    spec: &Spec,
    catalog: &Catalog,
    queries: &[Query],
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let workers = nproc().min(4);
    let mut scratch = Recorder::new();
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for q in queries {
        let plan =
            engine::apply_parallel(&compile_stages(&mut scratch, q.text, catalog, spec)?.plan);
        serial.push(median_run_us(&plan, catalog, 1, 3)?);
        parallel.push(median_run_us(&plan, catalog, workers, 3)?);
    }
    m.push(
        Metric::new("engine.execute_par_us", geomean(&parallel), "us")
            .with_note(format!("workers={workers}")),
    );
    m.push(Metric::new(
        "engine.par_speedup",
        serial.iter().sum::<f64>() / parallel.iter().sum::<f64>(),
        "ratio",
    ));
    Ok(())
}

/// `paper.speedup.*`: nested p50 ÷ p50 of the top-ranked unnested plan,
/// on a catalog of the paper workload's scale and this seed.
fn paper_probe(seed: u64, m: &mut Vec<Metric>) -> Result<(), String> {
    let spec = crate::workloads::spec("paper-nested").expect("paper-nested exists");
    let catalog = xmldb::gen::standard_catalog(spec.scale, 2, seed);
    let mut ratios = Vec::new();
    for q in paper_set() {
        let expr = translate(q.text, &catalog)?;
        let ranked =
            unnest::rank_plans_with(unnest::enumerate_plans(&expr, &catalog), &catalog, false);
        let p50 = |nested: bool| -> Result<f64, String> {
            let (choice, _) = ranked
                .iter()
                .find(|(p, _)| (p.label == "nested") == nested)
                .ok_or_else(|| format!("{}: no such plan (nested: {nested})", q.id))?;
            median_run_us(&engine::compile(&choice.expr), &catalog, 1, 7)
        };
        let ratio = p50(true)? / p50(false)?;
        m.push(Metric::new(
            format!("paper.speedup.{}", q.id),
            ratio,
            "ratio",
        ));
        ratios.push(ratio);
    }
    m.push(Metric::new(
        "paper.speedup_geomean",
        geomean(&ratios),
        "ratio",
    ));
    Ok(())
}

/// Run the traced pass for about `budget`, then the probes.
/// `window_p50_us[slot]` is the untraced per-id median of this run.
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    spec: &Spec,
    system: &System,
    catalog: &Catalog,
    reference: &Reference,
    queries: &[Query],
    seed: u64,
    budget: Duration,
    window_p50_us: &[f64],
) -> Result<TraceOutput, String> {
    let mut pass = Pass {
        spec,
        catalog,
        service: system.service(),
        reference,
        queries,
        wire: WireClient::connect(system.addr(), true)?,
        cold: ColdTexts::new(seed ^ 0x7ACE),
        cold_aux: ColdTexts::new(seed ^ 0xA0C5),
        rec: Recorder::new(),
        times: vec![SlotTimes::default(); queries.len()],
        families: BTreeMap::new(),
        rounds: 0,
        first_round: None,
        round: RoundCounts::default(),
        attempted: 0,
        failed: 0,
        first_failure: None,
    };

    // One unrecorded round first: it builds whatever this catalog copy
    // builds lazily (statistics, value indexes).
    pass.round()?;
    pass.rec = Recorder::new();
    pass.times = vec![SlotTimes::default(); queries.len()];
    pass.families.clear();
    pass.rounds = 0;
    pass.first_round = None;

    let start = Instant::now();
    let mut counts_repeat = true;
    while pass.rounds < 3 || start.elapsed() < budget {
        pass.round()?;
        // plan-cold walks its generator, so its rounds differ by design.
        counts_repeat &= spec.kind == Kind::Cold || pass.first_round.as_ref() == Some(&pass.round);
    }
    let Pass {
        rec,
        times,
        families,
        rounds,
        first_round,
        wire,
        attempted,
        mut failed,
        mut first_failure,
        ..
    } = pass;
    wire.close();
    let counts = first_round.expect("at least three rounds ran");
    if !counts_repeat {
        failed += 1;
        first_failure.get_or_insert("per-round counts did not repeat".to_string());
    }

    let spans = rec.spans();
    let by_name = span::self_times_by_name(spans);
    let mut m = Vec::new();
    for (metric, name) in [
        ("xquery.parse_us", "xquery.parse"),
        ("xquery.normalize_us", "xquery.normalize"),
        ("xquery.fingerprint_us", "xquery.fingerprint"),
        ("xquery.translate_us", "xquery.translate"),
        ("unnest.enumerate_us", "unnest.enumerate"),
        ("unnest.rank_us", "unnest.rank"),
        ("engine.compile_us", "engine.compile"),
        ("engine.index_rewrite_us", "engine.index_rewrite"),
        ("engine.parallel_rewrite_us", "engine.parallel_rewrite"),
        ("engine.execute_us", "engine.execute"),
        ("service.query_us", "service.query"),
        ("service.handle_line_us", "service.handle_line"),
    ] {
        m.push(Metric::new(metric, self_us(&by_name, name), "us"));
    }
    m.push(Metric::new(
        "unnest.alternatives",
        counts.alternatives as f64,
        "count",
    ));
    m.push(Metric::new(
        "unnest.chosen_unnested_share",
        counts.chosen_unnested as f64 / counts.ops.max(1) as f64,
        "ratio",
    ));

    let family_total: f64 = families.values().sum();
    for f in FAMILIES {
        let share = families.get(f).copied().unwrap_or(0.0) / family_total.max(1.0);
        m.push(Metric::new(
            format!("engine.op.{f}.self_share"),
            share,
            "ratio",
        ));
    }
    let c = &counts.metrics;
    for (name, v) in [
        ("engine.tuples_produced", c.tuples_produced),
        ("engine.nodes_visited", c.nodes_visited),
        ("engine.doc_scans", c.doc_scans),
        ("engine.nested_evals", c.nested_evals),
        ("engine.probe_tuples", c.probe_tuples),
        ("engine.index_lookups", c.index_lookups),
        ("engine.index_hits", c.index_hits),
    ] {
        m.push(Metric::new(name, v as f64, "count"));
    }
    m.push(Metric::new(
        "engine.index_hit_ratio",
        c.index_hits as f64 / c.index_lookups.max(1) as f64,
        "ratio",
    ));
    m.push(Metric::new(
        "engine.examined_per_row",
        (c.nodes_visited + c.tuples_produced) as f64 / counts.rows.max(1) as f64,
        "ratio",
    ));

    // Depth differences between per-slot medians.
    let cold = spec.kind == Kind::Cold;
    m.push(Metric::new(
        "service.overhead_us",
        slot_median_us(&times, |t| {
            let compile = if cold {
                median(&t.xquery) + median(&t.unnest) + median(&t.plan)
            } else {
                0.0
            };
            let execute = if t.execute_top.is_empty() {
                &t.execute
            } else {
                &t.execute_top
            };
            median(&t.query) - median(execute) - compile
        }),
        "us",
    ));
    m.push(Metric::new(
        "service.proto_self_us",
        slot_median_us(&times, |t| median(&t.handle_line) - median(&t.streamed)),
        "us",
    ));
    m.push(Metric::new(
        "service.wire_self_us",
        slot_median_us(&times, |t| median(&t.roundtrip) - median(&t.handle_line)),
        "us",
    ));
    m.push(Metric::new(
        "service.frames_per_query",
        counts.frames as f64 / counts.ops.max(1) as f64,
        "count",
    ));
    m.push(Metric::new(
        "service.bytes_per_query",
        counts.bytes as f64 / counts.ops.max(1) as f64,
        "bytes",
    ));

    let splits: Vec<(f64, [f64; 5])> = times.iter().map(|t| layer_split(spec.kind, t)).collect();
    let total_ns: f64 = splits.iter().map(|(total, _)| total).sum::<f64>().max(1.0);
    for (i, layer) in LAYERS.iter().enumerate() {
        let ns: f64 = splits.iter().map(|(_, parts)| parts[i]).sum();
        m.push(Metric::new(
            format!("share.{layer}"),
            ns / total_ns,
            "ratio",
        ));
    }

    // What qualifies the numbers above.
    let window_us: f64 = window_p50_us.iter().sum();
    m.push(Metric::new(
        "trace.overhead_share",
        total_ns / 1e3 / window_us.max(1e-9) - 1.0,
        "ratio",
    ));
    let sum_of_medians =
        |f: fn(&SlotTimes) -> &Vec<f64>| times.iter().map(|t| median(f(t))).sum::<f64>();
    m.push(Metric::new(
        "trace.engine_overhead_share",
        sum_of_medians(|t| &t.execute_traced) / sum_of_medians(|t| &t.execute).max(1.0) - 1.0,
        "ratio",
    ));
    // Only `compile` has children; its own time is the recorder's.
    let gaps: f64 = by_name.get("compile").map_or(0.0, |v| v.iter().sum());
    let compile_total: f64 = spans
        .iter()
        .filter(|s| s.name == "compile")
        .map(|s| s.duration_ns() as f64)
        .sum();
    m.push(Metric::new(
        "trace.unattributed_share",
        gaps / compile_total.max(1.0),
        "ratio",
    ));
    m.push(Metric::new("trace.rounds", f64::from(rounds), "count"));

    storage_probes(spec, seed, catalog, &mut m)?;
    parallel_probe(spec, catalog, queries, &mut m)?;
    paper_probe(seed, &mut m)?;
    plain_wire_probe(system, queries, &mut m)?;
    // Updates go last: they move the service's document stamps.
    update_probes(seed, catalog, system.service(), 25, &mut m)?;

    let file = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(seed as f64)),
        ("rounds", Json::Num(f64::from(rounds))),
        ("spans_recorded", Json::Num(spans.len() as f64)),
        ("spans", span::to_json(spans, 20_000)),
    ]);
    Ok(TraceOutput {
        metrics: m,
        spans: file,
        attempted,
        failed,
        first_failure,
    })
}

/// `query.qN.p50_us` rows for every id of `Q` (all exist on every
/// workload's traced run).
pub fn per_id_metrics(queries: &[Query], p50_by_slot: &[f64]) -> Vec<Metric> {
    let mut by_id = vec![0.0; all_ids().len()];
    for (q, p50) in queries.iter().zip(p50_by_slot) {
        by_id[id_index(q.id)] = *p50;
    }
    all_ids()
        .iter()
        .zip(by_id)
        .map(|(id, v)| Metric::new(format!("query.{id}.p50_us"), v, "us"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_operator_name_has_a_family() {
        for (op, fam) in [
            ("UnnestMap", "unnestmap"),
            ("IndexScan", "indexscan"),
            ("Select", "select"),
            ("Map", "map"),
            ("HashSemiJoin", "hashjoin"),
            ("HashOuterJoin", "hashjoin"),
            ("LoopAntiJoin", "loopjoin"),
            ("IndexCompositeSemiJoin", "indexjoin"),
            ("IndexRangeAntiJoin", "indexjoin"),
            ("HashNestJoin", "group"),
            ("ThetaGroup", "group"),
            ("XiGroup", "xi"),
            ("MorselFeed", "parallel"),
            ("Singleton", "other"),
            ("Cross", "other"),
        ] {
            assert_eq!(family(op), fam, "{op}");
            assert!(FAMILIES.contains(&family(op)));
        }
    }

    #[test]
    fn family_self_time_is_node_minus_children() {
        use nal::expr::builder::singleton;
        use nal::Scalar;
        let plan = engine::compile(&singleton().map("a", Scalar::int(1)));
        let child = plan.children()[0];
        let mut trace = ExecTrace::new();
        trace.record(&plan as *const PhysPlan as usize, 1, 900, 0, 0);
        trace.record(child as *const PhysPlan as usize, 1, 300, 0, 0);
        let mut fam = BTreeMap::new();
        add_family_self_ns(&plan, &trace, &mut fam);
        assert_eq!(fam["map"], 600.0);
        assert_eq!(fam["other"], 300.0);
    }

    #[test]
    fn layer_split_gives_the_remainder_to_the_service() {
        let t = SlotTimes {
            query: vec![100.0, 120.0, 110.0],
            streamed: vec![130.0],
            roundtrip: vec![400.0],
            execute: vec![80.0, 90.0, 70.0],
            xquery: vec![10.0],
            unnest: vec![15.0],
            plan: vec![5.0],
            ..SlotTimes::default()
        };
        // Warm: query 110 = execute 80 + service 30.
        assert_eq!(
            layer_split(Kind::Warm, &t),
            (110.0, [0.0, 0.0, 0.0, 80.0, 30.0])
        );
        // Cold: the compile stages are on the path; nothing is left over.
        assert_eq!(
            layer_split(Kind::Cold, &t),
            (110.0, [10.0, 15.0, 5.0, 80.0, 0.0])
        );
        // Wire: everything above execute is the service's.
        assert_eq!(
            layer_split(Kind::Wire, &t),
            (400.0, [0.0, 0.0, 0.0, 80.0, 320.0])
        );
        // Nested: the operation is the execute itself.
        assert_eq!(
            layer_split(Kind::Nested, &t),
            (80.0, [0.0, 0.0, 0.0, 80.0, 0.0])
        );
        assert_eq!(
            slot_median_us(&[t], |t| median(&t.roundtrip) - median(&t.streamed)),
            0.27
        );
    }
}
