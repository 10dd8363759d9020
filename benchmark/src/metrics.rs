//! Metric names, units and bounds, and the arithmetic that turns a
//! timed window into the end-to-end figures.

use crate::stats::{block_stat, geomean, median, percentile, sorted, BlockStat};
use crate::workloads::{UpdateSamples, WindowResult, BLOCKS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric and the share of the old value by which it may
/// worsen before `compare` calls it worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Part of the driver's contract (`BENCHMARK.json`): present on
    /// every workload, never zero, and steady enough on two shared
    /// cores that the driver's A/A check does not trip on it. The
    /// others are reported and compared by `xqbench` itself.
    pub in_contract: bool,
}

/// The issue asked for 5 % / 12 % / 5 % / 20 % / 5 % on `query_p50_us`,
/// `query_p95_us`, `queries_per_s`, `setup_s`, `peak_rss_mb`. The A/A
/// runs of this PR (README, "Measured A/A spread") put the run-to-run
/// interquartile spread of the timing metrics at 1–8 % of the median
/// (p95: 3–12 %) on the two shared cores the driver gives a run, with
/// the machine itself moving by 20 % for tens of seconds at a time, so
/// those bounds are widened to three times the worst spread seen
/// (capped at the contract's 25 %). `query_p95_us` moved by 20 % between
/// the medians of two ten-run sets of one commit, which is too close to
/// any bound the contract allows, so it is judged by `compare` only.
/// The update bounds are the issue's; `compare` answers *unresolved*
/// where a spread exceeds them.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        in_contract: true,
    },
    EndToEnd {
        name: "query_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        in_contract: false,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        in_contract: true,
    },
    EndToEnd {
        name: "update_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.08,
        in_contract: false,
    },
    EndToEnd {
        name: "update_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        in_contract: false,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        in_contract: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        in_contract: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
        in_contract: true,
    },
];

/// Every per-layer metric of the traced pass, in the order it is
/// printed: name, unit, and the direction that counts as better (a
/// share of time has none; "lower" is entered so a rise stands out).
/// The traced pass reports exactly these, on every workload.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    use Better::{Higher, Lower};
    let mut t: Vec<(String, &'static str, Better)> = Vec::new();
    let mut add =
        |name: &str, unit: &'static str, better: Better| t.push((name.to_string(), unit, better));
    for stage in [
        "xquery.parse_us",
        "xquery.normalize_us",
        "xquery.fingerprint_us",
        "xquery.translate_us",
        "unnest.enumerate_us",
        "unnest.rank_us",
        "engine.compile_us",
        "engine.index_rewrite_us",
        "engine.parallel_rewrite_us",
        "engine.execute_us",
        "service.query_us",
        "service.handle_line_us",
    ] {
        add(stage, "us", Lower);
    }
    add("unnest.alternatives", "count", Lower);
    add("unnest.chosen_unnested_share", "ratio", Higher);
    for family in crate::trace::FAMILIES {
        add(&format!("engine.op.{family}.self_share"), "ratio", Lower);
    }
    for count in [
        "engine.tuples_produced",
        "engine.nodes_visited",
        "engine.doc_scans",
        "engine.nested_evals",
        "engine.probe_tuples",
        "engine.index_lookups",
        "engine.index_hits",
    ] {
        add(count, "count", Lower);
    }
    add("engine.index_hit_ratio", "ratio", Higher);
    add("engine.examined_per_row", "ratio", Lower);
    add("service.overhead_us", "us", Lower);
    add("service.proto_self_us", "us", Lower);
    add("service.wire_self_us", "us", Lower);
    add("service.frames_per_query", "count", Lower);
    add("service.bytes_per_query", "bytes", Lower);
    for layer in [
        "xquery",
        "unnest",
        "engine_plan",
        "engine_execute",
        "service",
    ] {
        add(&format!("share.{layer}"), "ratio", Lower);
    }
    add("trace.overhead_share", "ratio", Lower);
    add("trace.engine_overhead_share", "ratio", Lower);
    add("trace.unattributed_share", "ratio", Lower);
    add("trace.rounds", "count", Higher);
    add("xmldb.gen_s", "s", Lower);
    add("xmldb.parse_mb_per_s", "MB/s", Higher);
    add("xmldb.serialize_mb_per_s", "MB/s", Higher);
    add("xmldb.doc_bytes", "bytes", Lower);
    add("xmldb.nodes", "count", Lower);
    add("xmldb.index_build_s", "s", Lower);
    add("xmldb.pin_ns", "ns", Lower);
    add("engine.execute_par_us", "us", Lower);
    add("engine.par_speedup", "ratio", Higher);
    for q in &crate::inputs::all_ids()[..6] {
        add(&format!("paper.speedup.{q}"), "ratio", Higher);
    }
    add("paper.speedup_geomean", "ratio", Higher);
    add("service.wire_plain_roundtrip_us", "us", Lower);
    add("xmldb.update_apply_us", "us", Lower);
    add("xpath.resolve_us", "us", Lower);
    add("xmldb.postings_touched_per_update", "count", Lower);
    add("xmldb.full_builds", "count", Lower);
    add("service.update_us", "us", Lower);
    add("service.live_snapshots_end", "count", Lower);
    add("service.cache_hit_share", "ratio", Higher);
    add("service.cache_revalidated_share", "ratio", Lower);
    add("service.cache_recompiled_share", "ratio", Lower);
    add("service.cache_miss_share", "ratio", Lower);
    for q in crate::inputs::all_ids() {
        add(&format!("query.{q}.p50_us"), "us", Lower);
    }
    add("nal.reference_eval_s", "s", Lower);
    t
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-form qualifiers printed beside it (noise, sample counts).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// Per-id and whole-workload latency figures of one window.
pub struct LatencySummary {
    /// Median of the per-block medians, per slot (µs).
    pub p50_by_slot: Vec<f64>,
    pub p50: BlockStat,
    pub p95: f64,
    pub rate: BlockStat,
    pub min_samples: usize,
    pub total_samples: usize,
}

/// `latency_us[block][slot]` → the summary. A median or a rate is the
/// median of its per-block values; p95 is taken over the whole window.
pub fn summarize(latency_us: &[Vec<Vec<f64>>], window_s: f64) -> LatencySummary {
    let slots = latency_us.first().map_or(0, Vec::len);
    let block_s = window_s / BLOCKS as f64;
    let mut p50_by_slot = Vec::with_capacity(slots);
    let mut p95_by_slot = Vec::with_capacity(slots);
    let mut min_samples = usize::MAX;
    let mut total_samples = 0;
    for slot in 0..slots {
        let block_medians: Vec<f64> = latency_us
            .iter()
            .filter(|b| !b[slot].is_empty())
            .map(|b| median(&b[slot]))
            .collect();
        p50_by_slot.push(median(&block_medians));
        let all: Vec<f64> = latency_us
            .iter()
            .flat_map(|b| b[slot].iter().copied())
            .collect();
        min_samples = min_samples.min(all.len());
        total_samples += all.len();
        p95_by_slot.push(percentile(&sorted(all), 0.95));
    }
    // The block-level view of the same geomean gives the noise figure.
    let block_geomeans: Vec<f64> = latency_us
        .iter()
        .filter(|b| b.iter().all(|s| !s.is_empty()))
        .map(|b| geomean(&b.iter().map(|s| median(s)).collect::<Vec<_>>()))
        .collect();
    let rates: Vec<f64> = latency_us
        .iter()
        .map(|b| b.iter().map(Vec::len).sum::<usize>() as f64 / block_s)
        .collect();
    LatencySummary {
        p50: BlockStat {
            value: geomean(&p50_by_slot),
            noise: block_stat(&block_geomeans).noise,
        },
        p95: geomean(&p95_by_slot),
        rate: block_stat(&rates),
        p50_by_slot,
        min_samples: if slots == 0 { 0 } else { min_samples },
        total_samples,
    }
}

pub struct UpdateSummary {
    pub p50: BlockStat,
    pub p95: f64,
    pub lateness_p95: f64,
    pub lateness_max: f64,
    pub samples: usize,
}

pub fn summarize_updates(u: &UpdateSamples) -> UpdateSummary {
    let block_medians: Vec<f64> = u
        .latency_us
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| median(b))
        .collect();
    let all = sorted(u.latency_us.iter().flatten().copied().collect());
    let late = sorted(u.lateness_us.clone());
    UpdateSummary {
        p50: block_stat(&block_medians),
        p95: percentile(&all, 0.95),
        lateness_p95: percentile(&late, 0.95),
        lateness_max: late.last().copied().unwrap_or(0.0),
        samples: all.len(),
    }
}

/// Operations attempted and failed in a window, queries and updates.
pub fn totals(w: &WindowResult) -> (u64, u64) {
    let u = w.updates.as_ref();
    (
        w.samples.attempted + u.map_or(0, |u| u.attempted),
        w.samples.failed + u.map_or(0, |u| u.failed),
    )
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two slots, five blocks; slot 0 costs 10 µs (20 in one block),
    /// slot 1 costs 1000 µs throughout.
    fn sample() -> Vec<Vec<Vec<f64>>> {
        (0..BLOCKS)
            .map(|b| {
                let cheap = if b == 2 { 20.0 } else { 10.0 };
                vec![vec![cheap; 40], vec![1000.0; 40]]
            })
            .collect()
    }

    #[test]
    fn p50_is_the_geomean_of_per_id_block_medians() {
        let s = summarize(&sample(), 5.0);
        assert_eq!(s.p50_by_slot, vec![10.0, 1000.0]);
        assert!((s.p50.value - 100.0).abs() < 1e-9);
        // One block in five is √2 slower: (141.4 − 100) / 100.
        assert!((s.p50.noise - (2f64.sqrt() - 1.0)).abs() < 1e-9);
        assert_eq!(s.min_samples, 200);
        assert_eq!(s.total_samples, 400);
        // 80 operations per one-second block.
        assert_eq!(s.rate.value, 80.0);
        assert_eq!(s.rate.noise, 0.0);
    }

    #[test]
    fn p95_is_taken_over_the_whole_window() {
        let mut w = sample();
        // 5 % of slot 1's 200 samples are ten times slower.
        for b in &mut w {
            b[1][0] = 10_000.0;
            b[1][1] = 10_000.0;
        }
        let s = summarize(&w, 5.0);
        let slot1 = percentile(
            &sorted(w.iter().flat_map(|b| b[1].iter().copied()).collect()),
            0.95,
        );
        assert!(slot1 > 1000.0);
        assert!((s.p95 - (20.0 * slot1).sqrt()).abs() < 1e-6);
        assert_eq!(s.p50_by_slot[1], 1000.0, "the median does not see the tail");
    }

    #[test]
    fn contract_metrics_are_never_zero_by_kind() {
        let names: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.in_contract)
            .map(|m| m.name)
            .collect();
        assert_eq!(
            names,
            ["query_p50_us", "queries_per_s", "setup_s", "peak_rss_mb"]
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn peak_rss_reads_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
