//! EXPLAIN ANALYZE: pair a physical plan tree with the per-operator
//! counters a traced run recorded, and (optionally) the cost model's
//! per-node predictions.
//!
//! The report is the calibration surface the bench harness and the
//! `xqd-server` `explain` op expose: each node carries *measured* rows,
//! inclusive wall time, and index-probe counts next to the *predicted*
//! cost for the same node, so `(predicted, measured)` pairs can be read
//! off every operator rather than only whole plans.

use std::collections::HashMap;

use nal::obs::ExecTrace;
use nal::EvalResult;
use xmldb::Catalog;

use crate::plan::PhysPlan;
use crate::QueryResult;

/// One annotated operator of an EXPLAIN ANALYZE report (pre-order).
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainNode {
    /// Tree depth (root = 0; rendering indents two spaces per level).
    pub depth: usize,
    /// Operator display name ([`PhysPlan::op_name`]).
    pub op: String,
    /// What the dead-attribute pass decided for the operator
    /// ([`PhysPlan::detail`]): the attribute it binds, what it keeps,
    /// the projections folded into it — empty for most operators.
    pub detail: String,
    /// Plan-node identity (the node's address during the traced run;
    /// `0` after a round-trip parse). Joins the trace and cost maps.
    pub node: usize,
    /// Output rows the operator actually produced.
    pub rows: u64,
    /// `next` calls the operator answered.
    pub calls: u64,
    /// Inclusive measured wall time, microseconds.
    pub elapsed_us: u64,
    /// Index probes issued in this operator's subtree.
    pub index_lookups: u64,
    /// Index probes that found at least one node.
    pub index_hits: u64,
    /// The cost model's predicted cost for this node (inclusive, same
    /// convention as the measured time); `None` when no model ran.
    pub predicted_cost: Option<f64>,
    /// Degree of parallelism the run executed this operator with
    /// (`Parallel` segments only; `None` elsewhere). The degree lives on
    /// the execution context, not the plan, so the annotation is applied
    /// per report via [`ExplainReport::annotate_parallel`].
    pub workers: Option<usize>,
}

/// A whole EXPLAIN ANALYZE report: the plan tree in pre-order, each
/// node annotated with measured (and optionally predicted) figures.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExplainReport {
    /// Annotated operators, pre-order (root first).
    pub nodes: Vec<ExplainNode>,
}

impl ExplainReport {
    /// Build a report from a plan and the trace a traced run recorded.
    /// Nodes the executor never entered report zero counters.
    pub fn from_trace(plan: &PhysPlan, trace: &ExecTrace) -> ExplainReport {
        let mut nodes = Vec::new();
        collect(plan, 0, trace, &mut nodes);
        ExplainReport { nodes }
    }

    /// Attach per-node predicted costs (keyed by plan-node identity).
    pub fn annotate_costs(&mut self, costs: &HashMap<usize, f64>) {
        for n in &mut self.nodes {
            if let Some(c) = costs.get(&n.node) {
                n.predicted_cost = Some(*c);
            }
        }
    }

    /// Record the degree of parallelism the traced run used on every
    /// `Parallel` segment. Plans are degree-independent (the degree is
    /// an execution-context knob), so the report — which describes one
    /// concrete run — is where the number belongs.
    pub fn annotate_parallel(&mut self, degree: usize) {
        for n in &mut self.nodes {
            if n.op == "Parallel" {
                n.workers = Some(degree);
            }
        }
    }

    /// Total measured time of the root operator (µs) — the inclusive
    /// time of the whole plan.
    pub fn total_us(&self) -> u64 {
        self.nodes.first().map(|n| n.elapsed_us).unwrap_or(0)
    }

    /// Render the annotated tree, one operator per line:
    ///
    /// ```text
    /// HashSemiJoin rows=12 calls=13 elapsed_us=84 lookups=0 hits=0 cost=912.0
    ///   IndexScan[t1] keep{t1} absorbed Π[t1] rows=40 calls=41 elapsed_us=31 lookups=1 hits=1 cost=41.0
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            for _ in 0..n.depth {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{}{} rows={} calls={} elapsed_us={} lookups={} hits={} cost={}",
                n.op,
                n.detail,
                n.rows,
                n.calls,
                n.elapsed_us,
                n.index_lookups,
                n.index_hits,
                match n.predicted_cost {
                    Some(c) => format!("{c:.1}"),
                    None => "-".to_string(),
                }
            ));
            if let Some(w) = n.workers {
                out.push_str(&format!(" workers={w}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parse a rendered report back into its nodes (node identities are
    /// not recoverable and parse as `0`). `parse(render(r))` reproduces
    /// every field of `r` except `node`.
    pub fn parse(text: &str) -> Result<ExplainReport, String> {
        let mut nodes = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let indent = raw.len() - raw.trim_start_matches(' ').len();
            if indent % 2 != 0 {
                return Err(format!("line {}: odd indentation", lineno + 1));
            }
            let mut parts = raw.split_whitespace().peekable();
            let head = parts
                .next()
                .ok_or_else(|| format!("line {}: missing operator", lineno + 1))?;
            // The operator name ends where its `[bound attribute]`
            // starts; the words of [`PhysPlan::detail`] continue it.
            let (op, bound) = head.split_at(head.find('[').unwrap_or(head.len()));
            let mut detail = bound.to_string();
            let of_detail = |word: &&str| {
                ["keep{", "Π[", "shared{"]
                    .iter()
                    .any(|p| word.starts_with(p))
                    || ["absorbed", "fused"].contains(word)
            };
            while let Some(word) = parts.next_if(of_detail) {
                detail.push(' ');
                detail.push_str(word);
            }
            let mut node = ExplainNode {
                depth: indent / 2,
                op: op.to_string(),
                detail,
                node: 0,
                rows: 0,
                calls: 0,
                elapsed_us: 0,
                index_lookups: 0,
                index_hits: 0,
                predicted_cost: None,
                workers: None,
            };
            for kv in parts {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("line {}: bad field `{kv}`", lineno + 1))?;
                let int = || {
                    v.parse::<u64>()
                        .map_err(|e| format!("line {}: {k}: {e}", lineno + 1))
                };
                match k {
                    "rows" => node.rows = int()?,
                    "calls" => node.calls = int()?,
                    "elapsed_us" => node.elapsed_us = int()?,
                    "lookups" => node.index_lookups = int()?,
                    "hits" => node.index_hits = int()?,
                    "workers" => {
                        node.workers = Some(
                            v.parse::<usize>()
                                .map_err(|e| format!("line {}: workers: {e}", lineno + 1))?,
                        )
                    }
                    "cost" => {
                        node.predicted_cost = if v == "-" {
                            None
                        } else {
                            Some(
                                v.parse::<f64>()
                                    .map_err(|e| format!("line {}: cost: {e}", lineno + 1))?,
                            )
                        };
                    }
                    other => return Err(format!("line {}: unknown field `{other}`", lineno + 1)),
                }
            }
            nodes.push(node);
        }
        if nodes.is_empty() {
            return Err("empty explain report".to_string());
        }
        Ok(ExplainReport { nodes })
    }
}

fn collect(plan: &PhysPlan, depth: usize, trace: &ExecTrace, out: &mut Vec<ExplainNode>) {
    let id = plan as *const PhysPlan as usize;
    let stats = trace.get(id).copied().unwrap_or_default();
    out.push(ExplainNode {
        depth,
        op: plan.op_name().to_string(),
        detail: plan.detail(),
        node: id,
        rows: stats.rows,
        calls: stats.calls,
        elapsed_us: stats.elapsed_us(),
        index_lookups: stats.index_lookups,
        index_hits: stats.index_hits,
        predicted_cost: None,
        workers: None,
    });
    for c in plan.children() {
        collect(c, depth + 1, trace, out);
    }
}

/// [`crate::run_compiled`] with per-operator tracing enabled: returns
/// the usual result plus the recorded [`ExecTrace`]. Counters in
/// `result.metrics` are identical to an untraced run (tracing only adds
/// timing).
pub fn run_traced(plan: &PhysPlan, catalog: &Catalog) -> EvalResult<(QueryResult, ExecTrace)> {
    run_streaming_traced_parallel(plan, catalog, 1)
}

/// [`run_traced`] at an explicit degree of parallelism: `Parallel`
/// segments in the plan fan out over `workers` threads, per-worker
/// traces merge into the returned [`ExecTrace`] (stage counters sum to
/// their serial values). Pair with [`ExplainReport::annotate_parallel`]
/// to surface the degree in the rendered report.
pub fn run_streaming_traced_parallel(
    plan: &PhysPlan,
    catalog: &Catalog,
    workers: usize,
) -> EvalResult<(QueryResult, ExecTrace)> {
    let (result, trace) = crate::run_at(plan, catalog, workers, true)?;
    Ok((result, trace.expect("the run was traced")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::{CmpOp, Scalar};

    fn sample_plan() -> PhysPlan {
        let l = singleton()
            .map("dead", Scalar::int(0))
            .map("a", Scalar::int(1))
            .project(&["a"]);
        let r = singleton().map("b", Scalar::int(1));
        crate::compile(&l.semijoin(r, Scalar::attr_cmp(CmpOp::Eq, "a", "b")))
    }

    #[test]
    fn reports_show_what_producers_keep_and_absorbed() {
        let catalog = Catalog::new();
        let plan = sample_plan();
        let (_, trace) = run_traced(&plan, &catalog).unwrap();
        let text = ExplainReport::from_trace(&plan, &trace).render();
        assert!(
            text.contains("\n  Map[a] keep{a} absorbed Π[a] fused rows=1 "),
            "{text}"
        );
        assert!(text.contains("\n    Map[dead] keep{} rows=1 "), "{text}");
    }

    #[test]
    fn traced_run_annotates_every_node() {
        let catalog = Catalog::new();
        let plan = sample_plan();
        let (result, trace) = run_traced(&plan, &catalog).unwrap();
        assert_eq!(result.rows.len(), 1);
        let report = ExplainReport::from_trace(&plan, &trace);
        assert_eq!(report.nodes[0].depth, 0);
        assert!(report.nodes.iter().all(|n| n.calls > 0), "{report:?}");
        assert_eq!(report.nodes[0].rows, 1);
        // Inclusive timing: the root's time bounds every child's.
        let root = report.nodes[0].elapsed_us;
        assert!(report.nodes.iter().all(|n| n.elapsed_us <= root));
    }

    #[test]
    fn streaming_trace_matches_tree_shape() {
        let catalog = Catalog::new();
        let plan = sample_plan();
        let (_, trace) = run_traced(&plan, &catalog).unwrap();
        let report = ExplainReport::from_trace(&plan, &trace);
        // One report node per plan node, in pre-order, each pulled at
        // least once (the final None pull).
        let depths: Vec<usize> = report.nodes.iter().map(|n| n.depth).collect();
        assert_eq!(depths, [0, 1, 2, 3, 1, 2], "{report:?}");
        assert!(report.nodes.iter().all(|n| n.calls > 0), "{report:?}");
    }

    #[test]
    fn render_parse_round_trip() {
        let catalog = Catalog::new();
        let plan = sample_plan();
        let (_, trace) = run_traced(&plan, &catalog).unwrap();
        let mut report = ExplainReport::from_trace(&plan, &trace);
        // Give one node a predicted cost so both arms round-trip.
        let id = report.nodes[0].node;
        report.annotate_costs(&HashMap::from([(id, 12.5f64)]));
        let text = report.render();
        let parsed = ExplainReport::parse(&text).unwrap();
        assert_eq!(parsed.nodes.len(), report.nodes.len());
        for (a, b) in parsed.nodes.iter().zip(&report.nodes) {
            assert_eq!(a.depth, b.depth);
            assert_eq!(a.op, b.op);
            assert_eq!(a.detail, b.detail);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.calls, b.calls);
            assert_eq!(a.elapsed_us, b.elapsed_us);
            assert_eq!(a.index_lookups, b.index_lookups);
            assert_eq!(a.index_hits, b.index_hits);
            assert_eq!(a.predicted_cost, b.predicted_cost);
        }
        assert_eq!(parsed.render(), text, "render is a fixed point");
    }

    #[test]
    fn shared_subtree_marks_round_trip() {
        let range = singleton().map("b", Scalar::int(1)).project(&["b"]);
        let e = singleton().map("a", Scalar::int(1)).select(Scalar::Exists {
            var: nal::Sym::new("v"),
            range: Box::new(range),
            pred: Box::new(Scalar::attr_cmp(CmpOp::Eq, "v", "a")),
        });
        let plan = crate::compile(&e);
        let (_, trace) = run_traced(&plan, &Catalog::new()).unwrap();
        let text = ExplainReport::from_trace(&plan, &trace).render();
        assert!(text.starts_with("Select shared{χ[b]} rows=1 "), "{text}");
        let parsed = ExplainReport::parse(&text).unwrap();
        assert_eq!(parsed.nodes[0].op, "Select");
        assert_eq!(parsed.nodes[0].detail, " shared{χ[b]}");
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn workers_annotation_round_trips() {
        let catalog = Catalog::new();
        let plan = sample_plan();
        let (_, trace) = run_traced(&plan, &catalog).unwrap();
        let mut report = ExplainReport::from_trace(&plan, &trace);
        // No Parallel node in this plan: annotation is a no-op …
        report.annotate_parallel(4);
        assert!(report.nodes.iter().all(|n| n.workers.is_none()));
        // … but a workers field must still survive render → parse.
        report.nodes[0].workers = Some(4);
        let text = report.render();
        assert!(
            text.lines().next().unwrap().ends_with("workers=4"),
            "{text}"
        );
        let parsed = ExplainReport::parse(&text).unwrap();
        assert_eq!(parsed.nodes[0].workers, Some(4));
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ExplainReport::parse("").is_err());
        assert!(ExplainReport::parse(" Op rows=1\n").is_err());
        assert!(ExplainReport::parse("Op bogus\n").is_err());
        assert!(ExplainReport::parse("Op rows=x\n").is_err());
    }
}
