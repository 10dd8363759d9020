//! Differential testing of the morsel-parallel pipeline (drain,
//! partition, run the stages per morsel, merge back in source order)
//! against the result the reference evaluator (`nal::eval`)
//! materializes: a plan under the [`engine::apply_parallel`] rewrite,
//! pulled at one worker and at two, must produce the same row sequence
//! and byte-identical Ξ output — on randomized relations over every
//! operator kind, and on every plan alternative of every §5 workload.
//! Both degrees must also examine the same number of build-side
//! candidates.
//!
//! Every randomized input here forms at least one parallel segment
//! (asserted), so it exercises what a serial run never does. The serial
//! pipeline's own Ξ-order inputs (stacked Ξ, Ξ below a join build side,
//! Ξ inside scalars of both sides of a ×) live in `engine_vs_spec`; the
//! Ξ inputs here put Ξ writers *above* a segment, whose merged output
//! order is what they write in.

use proptest::prelude::*;

use engine::PhysPlan;
use nal::expr::builder::*;
use nal::{eval_query, AggKind, CmpOp, EvalCtx, Expr, GroupFn, Scalar, Sym, Tuple, Value};
use xmldb::gen::standard_catalog;
use xmldb::Catalog;

fn s(n: &str) -> Sym {
    Sym::new(n)
}

/// The reference evaluator's materialized result: rows and Ξ bytes.
fn reference(expr: &Expr, cat: &Catalog) -> (Vec<Tuple>, String) {
    let mut ctx = EvalCtx::new(cat);
    let rows = eval_query(expr, &mut ctx).expect("reference evaluation succeeds");
    (rows, ctx.take_output())
}

fn rel(attr_a: &str, attr_b: &str, rows: &[(i64, i64)]) -> Expr {
    Expr::Literal(
        rows.iter()
            .map(|&(x, y)| {
                Tuple::from_pairs(vec![(s(attr_a), Value::Int(x)), (s(attr_b), Value::Int(y))])
            })
            .collect(),
    )
    .project_syms(vec![s(attr_a), s(attr_b)])
}

fn has_segment(plan: &PhysPlan) -> bool {
    matches!(plan, PhysPlan::Parallel { .. }) || plan.children().into_iter().any(has_segment)
}

/// `expr`'s parallel plan at degrees 1 and 2 against the reference:
/// identical rows, identical Ξ output stream, and — the degrees
/// differing only in where segments run — the same number of build-side
/// candidates examined.
fn assert_parallel_matches(expr: &Expr, cat: &Catalog, at: &str) -> PhysPlan {
    let (rows, output) = reference(expr, cat);
    let plan = engine::compile_parallel(expr);
    let run = |degree| {
        engine::run_streaming_parallel(&plan, cat, degree)
            .unwrap_or_else(|e| panic!("[{at}] degree {degree}: {e}"))
    };
    let (one, two) = (run(1), run(2));
    for (degree, r) in [(1, &one), (2, &two)] {
        assert_eq!(r.rows, rows, "[{at}] rows differ at degree {degree}");
        assert_eq!(
            r.output, output,
            "[{at}] Ξ output differs at degree {degree}"
        );
    }
    assert_eq!(
        one.metrics.probe_tuples, two.metrics.probe_tuples,
        "[{at}] probe_tuples differ"
    );
    plan
}

/// [`assert_parallel_matches`] on a plan that must contain a parallel
/// segment.
fn assert_stream_matches(expr: &Expr, cat: &Catalog) {
    let plan = assert_parallel_matches(expr, cat, &expr.to_string());
    assert!(
        has_segment(&plan),
        "no parallel segment formed for {expr}:\n{}",
        plan.explain()
    );
}

/// Every plan alternative of every §5 workload — the appendix-A rewrite
/// outputs included — on one generated catalog.
fn assert_paper_plans_stream(scale: usize, fanout: usize, seed: u64) {
    let catalog = standard_catalog(scale, fanout, seed);
    for w in &ordered_unnesting::workloads::ALL {
        let nested = xquery::compile(w.query, &catalog)
            .unwrap_or_else(|e| panic!("[{}] compile: {e}", w.id));
        for plan in unnest::enumerate_plans(&nested, &catalog) {
            let at = format!("{} / {} @ scale={scale} seed={seed}", w.id, plan.label);
            assert_parallel_matches(&plan.expr, &catalog, &at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn joins_stream_identically(
        l in prop::collection::vec((0i64..5, 0i64..40), 0..14),
        r in prop::collection::vec((0i64..5, 0i64..40), 0..14),
        kind in 0..4usize,
        with_residual in prop::bool::ANY,
    ) {
        let cat = Catalog::new();
        let left = rel("a", "x", &l);
        let right = rel("b", "y", &r);
        let mut pred = Scalar::attr_cmp(CmpOp::Eq, "a", "b");
        if with_residual {
            pred = pred.and(Scalar::cmp(CmpOp::Lt, Scalar::attr("y"), Scalar::int(25)));
        }
        let expr = match kind {
            0 => left.join(right, pred),
            1 => left.semijoin(right, pred),
            2 => left.antijoin(right, pred),
            _ => left.outerjoin(right, pred, "y", Value::Int(0)),
        };
        assert_stream_matches(&expr, &cat);
    }

    #[test]
    fn non_equi_joins_stream_identically(
        l in prop::collection::vec((0i64..5, 0i64..40), 0..10),
        r in prop::collection::vec((0i64..5, 0i64..40), 0..10),
        kind in 0..4usize,
        op in prop::sample::select(vec![CmpOp::Lt, CmpOp::Ne, CmpOp::Ge]),
    ) {
        let cat = Catalog::new();
        let left = rel("a", "x", &l);
        let right = rel("b", "y", &r);
        let pred = Scalar::attr_cmp(op, "a", "b");
        let expr = match kind {
            0 => left.join(right, pred),
            1 => left.semijoin(right, pred),
            2 => left.antijoin(right, pred),
            _ => left.outerjoin(right, pred, "y", Value::Int(0)),
        };
        assert_stream_matches(&expr, &cat);
    }

    #[test]
    fn cross_and_select_stream_identically(
        l in prop::collection::vec((0i64..4, 0i64..9), 0..8),
        r in prop::collection::vec((0i64..4, 0i64..9), 0..8),
        k in 0i64..9,
    ) {
        let cat = Catalog::new();
        let expr = rel("a", "x", &l)
            .cross(rel("b", "y", &r))
            .select(Scalar::cmp(CmpOp::Le, Scalar::attr("y"), Scalar::int(k)));
        assert_stream_matches(&expr, &cat);
    }

    #[test]
    fn grouping_streams_identically(
        rows in prop::collection::vec((0i64..5, 0i64..40), 0..16),
        theta in prop::sample::select(vec![CmpOp::Eq, CmpOp::Lt, CmpOp::Ge]),
        f in prop::sample::select(vec![
            GroupFn::count(),
            GroupFn::id(),
            GroupFn::project_items("y"),
            GroupFn::agg_of(AggKind::Min, "y"),
            GroupFn::agg_of(AggKind::Sum, "y"),
        ]),
    ) {
        let cat = Catalog::new();
        let expr = rel("b", "y", &rows).group_unary("g", &["b"], theta, f);
        assert_stream_matches(&expr, &cat);
    }

    #[test]
    fn binary_grouping_streams_identically(
        l in prop::collection::vec(0i64..5, 0..10),
        r in prop::collection::vec((0i64..5, 0i64..40), 0..14),
        theta in prop::sample::select(vec![CmpOp::Eq, CmpOp::Le]),
    ) {
        let cat = Catalog::new();
        let left = Expr::Literal(
            l.iter().map(|&k| Tuple::singleton(s("a"), Value::Int(k))).collect(),
        )
        .project_syms(vec![s("a")]);
        let expr = left.group_binary(
            rel("b", "y", &r),
            "g",
            &["a"],
            theta,
            &["b"],
            GroupFn::count(),
        );
        assert_stream_matches(&expr, &cat);
    }

    #[test]
    fn unnest_and_projections_stream_identically(
        rows in prop::collection::vec((0i64..4, 0i64..6), 0..16),
        distinct in prop::bool::ANY,
    ) {
        let cat = Catalog::new();
        let grouped = rel("b", "y", &rows).group_unary("g", &["b"], CmpOp::Eq, GroupFn::id());
        let expr = if distinct { grouped.unnest_distinct("g") } else { grouped.unnest("g") };
        assert_stream_matches(&expr, &cat);

        let base = rel("b", "y", &rows);
        assert_stream_matches(&base.clone().project(&["b"]), &cat);
        assert_stream_matches(&base.clone().drop_attrs(&["y"]), &cat);
        assert_stream_matches(&base.clone().rename(&[("z", "b")]), &cat);
        assert_stream_matches(&base.clone().distinct_cols(&["b"]), &cat);
        assert_stream_matches(&base.distinct_rename(&[("z", "b")]), &cat);
    }

    /// Grouped and simple Ξ over a segment whose σ stage runs per
    /// morsel.
    #[test]
    fn xi_streams_identically(
        rows in prop::collection::vec((0i64..4, 0i64..6), 0..16),
        grouped in prop::bool::ANY,
        k in 0i64..6,
    ) {
        let cat = Catalog::new();
        let kept = rel("b", "y", &rows)
            .select(Scalar::cmp(CmpOp::Le, Scalar::attr("y"), Scalar::int(k)));
        let expr = if grouped {
            kept.xi_group(
                &["b"],
                xi_cmds(&["<g k=\"", "$b", "\">"]),
                xi_cmds(&["<i>", "$y", "</i>"]),
                xi_cmds(&["</g>"]),
            )
        } else {
            xi(kept, &["<row>", "$y", "</row>"])
        };
        assert_stream_matches(&expr, &cat);
    }

    /// Stacked Ξ over a segment, and Ξ over a join that runs as a stage
    /// of the segment partitioning its probe side.
    #[test]
    fn stacked_xi_streams_identically(
        rows in prop::collection::vec((0i64..4, 0i64..6), 0..10),
    ) {
        let cat = Catalog::new();
        let kept = rel("b", "y", &rows)
            .select(Scalar::cmp(CmpOp::Ge, Scalar::attr("y"), Scalar::int(1)));
        let inner = xi(kept, &["<inner>", "$y", "</inner>"]);
        assert_stream_matches(&xi(inner, &["<outer>", "$b", "</outer>"]), &cat);

        let joined = rel("a", "x", &rows)
            .join(rel("b", "y", &rows), Scalar::attr_cmp(CmpOp::Eq, "a", "b"));
        assert_stream_matches(&xi(joined, &["<j>", "$x", "/", "$y", "</j>"]), &cat);
    }

    /// Ξ inside the scalars (aggregate inputs, quantifier ranges) of an
    /// operator above a segment: one write per merged tuple, in the
    /// merged order.
    #[test]
    fn xi_inside_scalars_streams_identically(
        rows in prop::collection::vec((0i64..4, 0i64..6), 1..8),
    ) {
        let cat = Catalog::new();
        // An aggregate whose nested input writes Ξ output when evaluated.
        let xi_agg = |tag: &str| Scalar::Agg {
            f: GroupFn::count(),
            input: Box::new(xi(rel("b", "y", &rows), &[tag])),
        };
        let mapped = rel("a", "x", &rows)
            .select(Scalar::cmp(CmpOp::Ge, Scalar::attr("x"), Scalar::int(1)))
            .map("g", xi_agg("<A/>"));
        assert_stream_matches(&mapped, &cat);

        let one = Expr::Literal(vec![Tuple::singleton(s("z"), Value::Int(1))])
            .project_syms(vec![s("z")]);
        let selected = rel("a", "x", &rows)
            .join(rel("b", "y", &rows), Scalar::attr_cmp(CmpOp::Eq, "a", "b"))
            .select(Scalar::Exists {
                var: s("q"),
                range: Box::new(xi(one, &["<B/>"])),
                pred: Box::new(Scalar::cmp(CmpOp::Gt, Scalar::attr("q"), Scalar::int(0))),
            });
        assert_stream_matches(&selected, &cat);
    }
}

fn xi(input: Expr, cmds: &[&str]) -> Expr {
    Expr::XiSimple {
        input: Box::new(input),
        cmds: xi_cmds(cmds),
    }
}

#[test]
fn all_paper_plans_stream_identically() {
    assert_paper_plans_stream(25, 3, 11);
}

/// Other generator scales and seeds, so blocking operators see empty,
/// singleton, and large groups.
#[test]
fn paper_plans_stream_identically_across_seeds() {
    assert_paper_plans_stream(10, 2, 1);
    assert_paper_plans_stream(30, 5, 7);
}
