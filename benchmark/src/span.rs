//! In-memory span recorder for the traced pass.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into each crate's public functions; nothing inside the program under
//! test is instrumented. A layer's self time is its span's duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Spans of one operation share this identifier.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Spans recorded from here on belong to operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, nested under whichever span
    /// is open on this recorder.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        self.spans[idx as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        let r = f(self);
        self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        r
    }

    /// A leaf span around one call.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the span opened last (the leaf just timed).
    pub fn last_ns(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.duration_ns() as f64)
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children (children never overlap: one recorder, one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self times grouped by span name, in nanoseconds, one entry per span.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        by.entry(s.name).or_default().push(own as f64);
    }
    by
}

/// The spans as a JSON array (at most `cap` of them, so a long run does
/// not write an unbounded file).
pub fn to_json(spans: &[Span], cap: usize) -> Json {
    Json::Arr(
        spans
            .iter()
            .take(cap)
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("op", Json::Num(f64::from(s.op))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, None),
            span("parse", 5, 25, Some(0)),
            span("execute", 30, 90, Some(0)),
            span("probe", 40, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 30]);
        let by = self_times_by_name(&spans);
        assert_eq!(by["execute"], vec![30.0]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut r = Recorder::new();
        let op = 7;
        r.set_op(op);
        r.span("op", |r| {
            r.time("a", || std::hint::black_box(1 + 1));
            r.span("b", |r| r.time("c", || ()));
        });
        let s = r.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["op", "a", "b", "c"]
        );
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.op == op && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
    }
}
