//! Query observability primitives: a shared monotonic clock, frontend
//! stage spans, and per-operator execution traces.
//!
//! Everything here is zero-dependency and deliberately *outside*
//! [`crate::eval::Metrics`]: the parallel-vs-serial suites assert that a
//! morsel-parallel run produces exactly the counters of a serial run,
//! and wall-clock timing can never be identical by construction. Traces
//! ride in their own optional slot on [`crate::eval::EvalCtx`], so an
//! untraced run pays nothing and the parity invariants never see time.

use std::collections::HashMap;
use std::time::Instant;

/// One monotonic clock per query. Every timestamp of a query — stage
/// spans, the `done`-frame `elapsed_us`, the trace total — must be read
/// from the *same* clock so they nest consistently (a span can never end
/// after the total it is part of).
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Start a clock at "now"; all readings are relative to this origin.
    pub fn start() -> Clock {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Microseconds elapsed since the clock started.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// The frontend/backend stages a query passes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// XQuery text → AST.
    Parse,
    /// AST normalization.
    Normalize,
    /// Plan-cache lookup (text memo + fingerprint lookup).
    CacheLookup,
    /// Translation + unnesting enumeration + cost-based ranking.
    Unnest,
    /// Physical compilation (and cache insert).
    Plan,
    /// Plan execution.
    Execute,
}

impl Stage {
    /// Stable lower-case label (wire frames, logs, Prometheus).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Normalize => "normalize",
            Stage::CacheLookup => "cache_lookup",
            Stage::Unnest => "unnest",
            Stage::Plan => "plan",
            Stage::Execute => "execute",
        }
    }
}

/// One recorded stage interval, in microseconds since the query clock's
/// origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// Which stage this span times.
    pub stage: Stage,
    /// Start offset (µs since the clock origin).
    pub start_us: u64,
    /// End offset (µs since the clock origin).
    pub end_us: u64,
}

impl StageSpan {
    /// Span length in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// The stage-level trace of one query: non-overlapping spans read off
/// one [`Clock`], plus the total elapsed time off the same clock.
///
/// Invariant (asserted by tests, guaranteed by the shared clock and
/// non-overlapping recording): the sum of all span durations never
/// exceeds `total_us`.
#[derive(Clone, Debug, Default)]
pub struct QueryTrace {
    /// Recorded stage spans, in recording order.
    pub stages: Vec<StageSpan>,
    /// Whole-query elapsed time on the same clock (µs).
    pub total_us: u64,
}

impl QueryTrace {
    /// Record one stage interval.
    pub fn record_stage(&mut self, stage: Stage, start_us: u64, end_us: u64) {
        self.stages.push(StageSpan {
            stage,
            start_us,
            end_us,
        });
    }

    /// Total microseconds attributed to `stage` (summed over spans).
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(StageSpan::duration_us)
            .sum()
    }

    /// Sum of all span durations (≤ `total_us` by construction).
    pub fn stages_total_us(&self) -> u64 {
        self.stages.iter().map(StageSpan::duration_us).sum()
    }

    /// One-line `stage=NNNus` breakdown (slow-query log format).
    pub fn breakdown(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.stages.len());
        for s in &self.stages {
            parts.push(format!("{}={}us", s.stage.label(), s.duration_us()));
        }
        parts.join(" ")
    }
}

/// Accumulated per-operator execution counters for one plan node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// `next` calls the operator answered.
    pub calls: u64,
    /// Output rows the operator produced.
    pub rows: u64,
    /// Inclusive wall time (the operator and its subtree), nanoseconds.
    pub elapsed_ns: u64,
    /// Index probes issued while this operator (subtree) ran.
    pub index_lookups: u64,
    /// Index probes that found at least one node.
    pub index_hits: u64,
}

impl OpStats {
    /// Inclusive wall time in microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.elapsed_ns / 1_000
    }
}

/// Per-operator execution trace: node identity → accumulated counters.
///
/// Node identities are opaque `usize` tokens chosen by the executor (the
/// engine uses the plan node's address, which is stable for the life of
/// a run — plans are immutable while executing). `nal` never interprets
/// them, which is what lets this type live below the engine crate.
#[derive(Clone, Debug, Default)]
pub struct ExecTrace {
    ops: HashMap<usize, OpStats>,
}

impl ExecTrace {
    /// An empty trace.
    pub fn new() -> ExecTrace {
        ExecTrace::default()
    }

    /// Accumulate one operator invocation.
    pub fn record(&mut self, node: usize, rows: u64, elapsed_ns: u64, lookups: u64, hits: u64) {
        let s = self.ops.entry(node).or_default();
        s.calls += 1;
        s.rows += rows;
        s.elapsed_ns += elapsed_ns;
        s.index_lookups += lookups;
        s.index_hits += hits;
    }

    /// The accumulated counters for `node`, if it ever ran.
    pub fn get(&self, node: usize) -> Option<&OpStats> {
        self.ops.get(&node)
    }

    /// Fold another trace into this one, node by node. Parallel workers
    /// trace into private `ExecTrace`s against the same (shared,
    /// immutable) plan allocation, so node identities line up and the
    /// merged trace reads like a serial one — except `elapsed_ns`, which
    /// becomes summed-across-workers CPU time rather than wall time.
    pub fn merge(&mut self, other: &ExecTrace) {
        for (node, s) in &other.ops {
            let acc = self.ops.entry(*node).or_default();
            acc.calls += s.calls;
            acc.rows += s.rows;
            acc.elapsed_ns += s.elapsed_ns;
            acc.index_lookups += s.index_lookups;
            acc.index_hits += s.index_hits;
        }
    }

    /// Number of distinct nodes traced.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_spans_sum_below_total() {
        let clock = Clock::start();
        let mut trace = QueryTrace::default();
        let t0 = clock.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.record_stage(Stage::Parse, t0, clock.now_us());
        let t1 = clock.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.record_stage(Stage::Execute, t1, clock.now_us());
        trace.total_us = clock.now_us();
        assert!(trace.stages_total_us() <= trace.total_us);
        assert!(trace.stage_us(Stage::Parse) > 0);
        assert!(trace.breakdown().contains("parse="));
    }

    #[test]
    fn exec_trace_accumulates_per_node() {
        let mut t = ExecTrace::new();
        t.record(7, 1, 100, 2, 1);
        t.record(7, 1, 50, 0, 0);
        t.record(9, 3, 10, 0, 0);
        let s = t.get(7).unwrap();
        assert_eq!(s.calls, 2);
        assert_eq!(s.rows, 2);
        assert_eq!(s.elapsed_ns, 150);
        assert_eq!(s.index_lookups, 2);
        assert_eq!(s.index_hits, 1);
        assert_eq!(t.len(), 2);
    }
}
