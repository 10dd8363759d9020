//! Measurement helpers for the §5 table harness: compile a workload
//! into its plan alternatives and time them.

pub mod allocs;

use std::time::{Duration, Instant};

use nal::Expr;
use ordered_unnesting::workloads::Workload;
use xmldb::Catalog;

/// Measurement configuration: whether plans are compiled with
/// index-backed access paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    pub indexes: bool,
}

impl RunConfig {
    pub fn new(indexes: bool) -> RunConfig {
        RunConfig { indexes }
    }

    /// Compile (with or without the index rewrite) and run.
    pub fn run(self, expr: &Expr, catalog: &Catalog) -> nal::EvalResult<engine::QueryResult> {
        let plan = if self.indexes {
            engine::compile_indexed(expr, catalog)
        } else {
            engine::compile(expr)
        };
        engine::run_compiled(&plan, catalog)
    }
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
}

impl Measurement {
    /// An extrapolated (not measured) cell.
    pub fn estimated(plan: impl Into<String>, elapsed: Duration) -> Measurement {
        Measurement {
            plan: plan.into(),
            elapsed,
            estimated: true,
            ..Measurement::default()
        }
    }

    /// Total tuples the plan *examined*: probed join candidates plus
    /// every tuple produced by any operator. Index-backed quantifier
    /// joins never execute their build side, which is exactly what this
    /// number exposes.
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
/// runs are stable; xqbench under `benchmark/` measures with spreads).
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
    let start = Instant::now();
    let result = cfg
        .run(expr, catalog)
        .unwrap_or_else(|e| panic!("plan `{label}` failed (indexes {}): {e}", cfg.indexes));
    let elapsed = start.elapsed();
    Measurement {
        plan: label.to_string(),
        elapsed,
        doc_scans: result.metrics.doc_scans,
        output_len: result.output.len(),
        estimated: false,
        tuples_produced: result.metrics.tuples_produced,
        probe_tuples: result.metrics.probe_tuples,
        index_lookups: result.metrics.index_lookups,
    }
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
        assert!(
            indexed.tuples_examined() < scan.tuples_examined(),
            "indexed {} vs scan {}",
            indexed.tuples_examined(),
            scan.tuples_examined()
        );
    }
}
