//! Shared measurement helpers for the benchmark harness and the Criterion
//! benches: compile a workload into its plan alternatives and time them.

pub mod allocs;

use std::time::{Duration, Instant};

use nal::Expr;
use ordered_unnesting::workloads::Workload;
use xmldb::Catalog;

/// Measurement configuration: whether plans are compiled with
/// index-backed access paths (`--indexes on`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    pub indexes: bool,
}

impl RunConfig {
    pub fn new(indexes: bool) -> RunConfig {
        RunConfig { indexes }
    }

    pub fn indexes_label(self) -> &'static str {
        if self.indexes {
            "on"
        } else {
            "off"
        }
    }

    /// Compile (with or without the index rewrite) and run.
    pub fn run(self, expr: &Expr, catalog: &Catalog) -> nal::EvalResult<engine::QueryResult> {
        engine::run_compiled(&self.compile(expr, catalog), catalog)
    }

    /// Compile under this configuration's index mode.
    pub fn compile(self, expr: &Expr, catalog: &Catalog) -> engine::PhysPlan {
        if self.indexes {
            engine::compile_indexed(expr, catalog)
        } else {
            engine::compile(expr)
        }
    }
}

/// One operator row of an EXPLAIN ANALYZE'd measurement: the predicted
/// cost next to the measured figures for the same plan node — the
/// per-operator calibration pair every `--json` cell carries.
#[derive(Clone, Debug)]
pub struct OpCell {
    /// Operator display name.
    pub op: String,
    /// Tree depth (root = 0).
    pub depth: usize,
    /// Output rows the operator produced.
    pub rows: u64,
    /// Times the operator was entered.
    pub calls: u64,
    /// Inclusive measured wall time, microseconds.
    pub measured_us: u64,
    /// Index probes issued in this operator's subtree.
    pub index_lookups: u64,
    /// Index probes that found at least one node.
    pub index_hits: u64,
    /// The cost model's inclusive prediction for this node.
    pub predicted_cost: Option<f64>,
}

/// One measured (plan, scale) cell.
#[derive(Clone, Debug, Default)]
pub struct Measurement {
    pub plan: String,
    pub elapsed: Duration,
    pub doc_scans: u64,
    pub output_len: usize,
    /// `true` when the cell was extrapolated instead of measured (nested
    /// plans beyond the time cap).
    pub estimated: bool,
    pub tuples_produced: u64,
    pub probe_tuples: u64,
    pub index_lookups: u64,
    pub index_hits: u64,
    /// The cost model's prediction for this plan under the measured
    /// configuration's index mode (`CostModel::with_indexes`), recorded
    /// next to the measured time in every `--json` row so the
    /// `BENCH_*.json` trajectories can fit the probe constants against
    /// reality (the cost-model calibration hook). `None` for
    /// extrapolated cells.
    pub predicted_cost: Option<f64>,
    /// Per-operator `(predicted_cost, measured)` pairs from a traced
    /// companion run of the same plan (empty for extrapolated cells).
    pub operators: Vec<OpCell>,
}

impl Measurement {
    /// An extrapolated (not measured) cell.
    pub fn estimated(plan: impl Into<String>, elapsed: Duration) -> Measurement {
        Measurement {
            plan: plan.into(),
            elapsed,
            doc_scans: 0,
            output_len: 0,
            estimated: true,
            tuples_produced: 0,
            probe_tuples: 0,
            index_lookups: 0,
            index_hits: 0,
            predicted_cost: None,
            operators: Vec::new(),
        }
    }

    /// Total tuples the plan *examined*: probed join candidates plus
    /// every tuple produced by any operator. Index-backed quantifier
    /// joins never execute their build side, which is exactly what this
    /// number exposes in the `index` ablation.
    pub fn tuples_examined(&self) -> u64 {
        self.probe_tuples + self.tuples_produced
    }
}

/// Compile a workload and enumerate its plan alternatives.
pub fn plans_for(w: &Workload, catalog: &Catalog) -> Vec<(String, Expr)> {
    let nested = xquery::compile(w.query, catalog)
        .unwrap_or_else(|e| panic!("[{}] compile failed: {e}", w.id));
    unnest::enumerate_plans(&nested, catalog)
        .into_iter()
        .map(|p| (p.label, p.expr))
        .collect()
}

/// Execute one plan over scan-based access paths and record its cost.
/// The first execution result is used (documents are memory-resident, so
/// runs are stable; the Criterion benches provide statistical rigor at
/// smaller scales).
pub fn measure_plan(label: &str, expr: &Expr, catalog: &Catalog) -> Measurement {
    measure_plan_cfg(label, expr, catalog, RunConfig::new(false))
}

/// [`measure_plan`] under an explicit index mode.
pub fn measure_plan_cfg(
    label: &str,
    expr: &Expr,
    catalog: &Catalog,
    cfg: RunConfig,
) -> Measurement {
    // Predict before measuring: the model's estimate under the matching
    // index mode rides along in every JSON row (calibration hook).
    let predicted = unnest::CostModel::with_indexes(catalog, cfg.indexes)
        .estimate(expr)
        .cost;
    let start = Instant::now();
    let result = cfg.run(expr, catalog).unwrap_or_else(|e| {
        panic!(
            "plan `{label}` failed (indexes {}): {e}",
            cfg.indexes_label()
        )
    });
    let elapsed = start.elapsed();
    // A second, traced companion run yields the per-operator figures
    // (EXPLAIN ANALYZE). Kept out of the timed run above so the
    // per-operator clock reads never perturb the headline time.
    let plan = cfg.compile(expr, catalog);
    let operators = match engine::run_traced(&plan, catalog) {
        Ok((_, trace)) => {
            let mut rep = engine::ExplainReport::from_trace(&plan, &trace);
            rep.annotate_costs(&unnest::plan_cost_map(&plan, catalog, cfg.indexes));
            rep.nodes
                .into_iter()
                .map(|n| OpCell {
                    op: n.op,
                    depth: n.depth,
                    rows: n.rows,
                    calls: n.calls,
                    measured_us: n.elapsed_us,
                    index_lookups: n.index_lookups,
                    index_hits: n.index_hits,
                    predicted_cost: n.predicted_cost,
                })
                .collect()
        }
        Err(_) => Vec::new(),
    };
    Measurement {
        plan: label.to_string(),
        elapsed,
        doc_scans: result.metrics.doc_scans,
        output_len: result.output.len(),
        estimated: false,
        tuples_produced: result.metrics.tuples_produced,
        probe_tuples: result.metrics.probe_tuples,
        index_lookups: result.metrics.index_lookups,
        index_hits: result.metrics.index_hits,
        predicted_cost: Some(predicted),
        operators,
    }
}

// ---------------------------------------------------------------------
// Machine-readable results (`--json <path>`)
// ---------------------------------------------------------------------

/// A collected run report, written as a JSON array so per-PR
/// `BENCH_*.json` trajectories can be recorded and diffed. Hand-rolled
/// emitter — the container has no serde.
#[derive(Default)]
pub struct Report {
    rows: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    /// Record one measurement cell with its experimental coordinates.
    /// `knobs` carries experiment-specific dimensions (scale, fanout…).
    pub fn record(
        &mut self,
        experiment: &str,
        cfg: RunConfig,
        knobs: &[(&str, i64)],
        m: &Measurement,
    ) {
        let mut fields = vec![
            ("experiment".to_string(), json_str(experiment)),
            ("plan".to_string(), json_str(&m.plan)),
            ("indexes".to_string(), json_str(cfg.indexes_label())),
            (
                "elapsed_secs".to_string(),
                format!("{}", m.elapsed.as_secs_f64()),
            ),
            ("estimated".to_string(), m.estimated.to_string()),
            ("doc_scans".to_string(), m.doc_scans.to_string()),
            ("output_len".to_string(), m.output_len.to_string()),
            ("tuples_produced".to_string(), m.tuples_produced.to_string()),
            ("probe_tuples".to_string(), m.probe_tuples.to_string()),
            (
                "tuples_examined".to_string(),
                m.tuples_examined().to_string(),
            ),
            ("index_lookups".to_string(), m.index_lookups.to_string()),
            ("index_hits".to_string(), m.index_hits.to_string()),
            (
                "predicted_cost".to_string(),
                match m.predicted_cost {
                    Some(c) if c.is_finite() => format!("{c}"),
                    _ => "null".to_string(),
                },
            ),
        ];
        let ops: Vec<String> = m
            .operators
            .iter()
            .map(|o| {
                format!(
                    "{{\"op\": {}, \"depth\": {}, \"rows\": {}, \"calls\": {}, \
                     \"measured_us\": {}, \"index_lookups\": {}, \"index_hits\": {}, \
                     \"predicted_cost\": {}}}",
                    json_str(&o.op),
                    o.depth,
                    o.rows,
                    o.calls,
                    o.measured_us,
                    o.index_lookups,
                    o.index_hits,
                    match o.predicted_cost {
                        Some(c) if c.is_finite() => format!("{c}"),
                        _ => "null".to_string(),
                    }
                )
            })
            .collect();
        fields.push(("operators".to_string(), format!("[{}]", ops.join(", "))));
        for (k, v) in knobs {
            fields.push(((*k).to_string(), v.to_string()));
        }
        let body: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", json_str(&k)))
            .collect();
        self.rows.push(format!("{{{}}}", body.join(", ")));
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the whole report as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("  ");
            out.push_str(row);
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out.push('\n');
        out
    }

    /// Write the report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// JSON string literal with the escapes the emitted field values need.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Quadratic extrapolation for nested cells beyond the measurement cap:
/// nested plans re-scan the document per outer tuple, so their cost grows
/// ~quadratically in the scale. `t_small` was measured at `s_small`.
pub fn extrapolate_nested(t_small: Duration, s_small: usize, s_target: usize) -> Duration {
    let ratio = (s_target as f64 / s_small.max(1) as f64).powi(2);
    Duration::from_secs_f64(t_small.as_secs_f64() * ratio)
}

/// Render a duration the way the paper's tables do (`0.15 s`, `7.04 s`,
/// `788 s`).
pub fn fmt_secs(d: Duration, estimated: bool) -> String {
    let s = d.as_secs_f64();
    let text = if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 0.001 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{:.0} µs", s * 1e6)
    };
    if estimated {
        format!("{text} (est.)")
    } else {
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordered_unnesting::workloads::Q6_HAVING;
    use xmldb::gen::standard_catalog;

    #[test]
    fn measure_produces_consistent_outputs() {
        let catalog = standard_catalog(60, 2, 5);
        let plans = plans_for(&Q6_HAVING, &catalog);
        assert!(plans.len() >= 2);
        let ms: Vec<Measurement> = plans
            .iter()
            .map(|(l, e)| measure_plan(l, e, &catalog))
            .collect();
        let first = ms[0].output_len;
        assert!(ms.iter().all(|m| m.output_len == first));
    }

    #[test]
    fn extrapolation_is_quadratic() {
        let t = extrapolate_nested(Duration::from_secs(1), 100, 1000);
        assert_eq!(t, Duration::from_secs(100));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_secs(Duration::from_millis(150), false), "150.0 ms");
        assert_eq!(fmt_secs(Duration::from_secs(7), false), "7.00 s");
        assert_eq!(fmt_secs(Duration::from_secs(788), false), "788 s");
        assert_eq!(fmt_secs(Duration::from_secs(788), true), "788 s (est.)");
    }

    #[test]
    fn indexed_runs_match_scan_runs_and_probe_less() {
        let catalog = standard_catalog(60, 2, 5);
        let w = &ordered_unnesting::workloads::Q3_EXISTENTIAL;
        let plans = plans_for(w, &catalog);
        let (label, expr) = plans
            .iter()
            .find(|(l, _)| l == "semijoin")
            .expect("semijoin plan");
        let scan = measure_plan_cfg(label, expr, &catalog, RunConfig::new(false));
        let indexed = measure_plan_cfg(label, expr, &catalog, RunConfig::new(true));
        assert_eq!(scan.output_len, indexed.output_len);
        assert!(indexed.index_lookups > 0);
        // Every measured cell carries per-operator calibration pairs,
        // each node priced by the physical cost walk.
        for m in [&scan, &indexed] {
            assert!(!m.operators.is_empty());
            assert!(m.operators.iter().all(|o| o.predicted_cost.is_some()));
            let root = m.operators[0].measured_us;
            assert!(m.operators.iter().all(|o| o.measured_us <= root));
        }
        assert!(
            indexed.tuples_examined() < scan.tuples_examined(),
            "indexed {} vs scan {}",
            indexed.tuples_examined(),
            scan.tuples_examined()
        );
    }

    #[test]
    fn report_renders_valid_json_shape() {
        let mut r = Report::new();
        let m = Measurement::estimated("outer \"join\"", Duration::from_millis(5));
        r.record("grouping", RunConfig::new(true), &[("scale", 100)], &m);
        let json = r.to_json();
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.contains("\"experiment\": \"grouping\""), "{json}");
        assert!(json.contains("\"operators\": []"), "{json}");
        assert!(json.contains("\"plan\": \"outer \\\"join\\\"\""), "{json}");
        assert!(json.contains("\"indexes\": \"on\""), "{json}");
        assert!(json.contains("\"scale\": 100"), "{json}");
        assert_eq!(r.len(), 1);
    }
}
