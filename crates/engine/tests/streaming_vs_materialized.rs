//! Differential testing of the streaming executor: `run_streaming` must
//! produce the same row sequence and byte-identical Ξ output as the
//! materializing `run` — on randomized relations over every operator
//! kind, and on every plan alternative of every §5 workload.

use proptest::prelude::*;

use nal::expr::builder::*;
use nal::{AggKind, CmpOp, Expr, GroupFn, Scalar, Sym, Tuple, Value};
use xmldb::gen::standard_catalog;
use xmldb::Catalog;

fn s(n: &str) -> Sym {
    Sym::new(n)
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

/// Both executors on the same expression: identical rows, identical Ξ
/// output stream, and — their joins being the same cursors — the same
/// number of build-side candidates examined.
fn assert_stream_matches(expr: &Expr, cat: &Catalog) {
    let m = engine::run(expr, cat).expect("materializing executor succeeds");
    let p = engine::run_streaming(expr, cat).expect("streaming executor succeeds");
    assert_eq!(m.rows, p.rows, "row mismatch for {expr}");
    assert_eq!(m.output, p.output, "Ξ output mismatch for {expr}");
    assert_eq!(
        m.metrics.probe_tuples, p.metrics.probe_tuples,
        "probe_tuples mismatch for {expr}"
    );
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

    #[test]
    fn xi_streams_identically(
        rows in prop::collection::vec((0i64..4, 0i64..6), 0..16),
        grouped in prop::bool::ANY,
    ) {
        let cat = Catalog::new();
        let expr = if grouped {
            rel("b", "y", &rows).xi_group(
                &["b"],
                xi_cmds(&["<g k=\"", "$b", "\">"]),
                xi_cmds(&["<i>", "$y", "</i>"]),
                xi_cmds(&["</g>"]),
            )
        } else {
            Expr::XiSimple {
                input: Box::new(rel("b", "y", &rows)),
                cmds: xi_cmds(&["<row>", "$y", "</row>"]),
            }
        };
        assert_stream_matches(&expr, &cat);
    }

    /// Stacked Ξ operators: the streaming executor must reproduce the
    /// materializing executor's strict bottom-up Ξ write order (the
    /// lowering's eager-materialization fallback).
    #[test]
    fn stacked_xi_streams_identically(
        rows in prop::collection::vec((0i64..4, 0i64..6), 0..10),
    ) {
        let cat = Catalog::new();
        let inner = Expr::XiSimple {
            input: Box::new(rel("b", "y", &rows)),
            cmds: xi_cmds(&["<inner>", "$y", "</inner>"]),
        };
        let outer = Expr::XiSimple {
            input: Box::new(inner.clone()),
            cmds: xi_cmds(&["<outer>", "$b", "</outer>"]),
        };
        assert_stream_matches(&outer, &cat);

        // Ξ below a join build side — forces the strict-order path for
        // binary operators.
        let joined = rel("a", "x", &rows).join(
            Expr::XiSimple {
                input: Box::new(rel("b", "y", &rows)),
                cmds: xi_cmds(&["<r>", "$b", "</r>"]),
            },
            Scalar::attr_cmp(CmpOp::Eq, "a", "b"),
        );
        let wrapped = Expr::XiSimple {
            input: Box::new(joined),
            cmds: xi_cmds(&["<j>", "$x", "</j>"]),
        };
        assert_stream_matches(&wrapped, &cat);
    }

    /// Ξ hiding *inside scalars* (quantifier ranges, aggregate inputs):
    /// the lowering's Ξ analysis must see through operator subscripts,
    /// or pipelining would interleave the writes.
    #[test]
    fn xi_inside_scalars_streams_identically(
        rows in prop::collection::vec((0i64..4, 0i64..6), 1..8),
    ) {
        let cat = Catalog::new();
        // An aggregate whose nested input writes Ξ output when evaluated.
        let xi_agg = |tag: &str| Scalar::Agg {
            f: GroupFn::count(),
            input: Box::new(Expr::XiSimple {
                input: Box::new(rel("b", "y", &rows)),
                cmds: xi_cmds(&[tag]),
            }),
        };
        // Cross of two Ξ-emitting Maps: the materializing executor
        // evaluates left fully, then right — the streaming Cross must
        // not build the right side first.
        let one = |a: &str, v: i64| {
            Expr::Literal(vec![Tuple::singleton(s(a), Value::Int(v))])
                .project_syms(vec![s(a)])
        };
        let left = one("l", 1).map("gl", xi_agg("<L/>"));
        let right = one("r", 2).map("gr", xi_agg("<R/>"));
        assert_stream_matches(&left.cross(right), &cat);

        // Stacked unary operators that both write through their scalars:
        // a Select whose quantifier range writes Ξ, above a Map whose
        // aggregate input writes Ξ.
        let mapped = rel("a", "x", &rows).map("g", xi_agg("<A/>"));
        let selected = mapped.select(Scalar::Exists {
            var: s("q"),
            range: Box::new(Expr::XiSimple {
                input: Box::new(
                    Expr::Literal(vec![Tuple::singleton(s("z"), Value::Int(1))])
                        .project_syms(vec![s("z")]),
                ),
                cmds: xi_cmds(&["<B/>"]),
            }),
            pred: Box::new(Scalar::cmp(CmpOp::Gt, Scalar::attr("q"), Scalar::int(0))),
        });
        assert_stream_matches(&selected, &cat);
    }
}

/// Every plan alternative of every §5 workload — the appendix-A rewrite
/// outputs included — must stream byte-identically.
#[test]
fn all_paper_plans_stream_identically() {
    let catalog = standard_catalog(25, 3, 11);
    for (id, query) in workloads() {
        let nested =
            xquery::compile(query, &catalog).unwrap_or_else(|e| panic!("[{id}] compile: {e}"));
        for plan in unnest::enumerate_plans(&nested, &catalog) {
            let m = engine::run(&plan.expr, &catalog)
                .unwrap_or_else(|e| panic!("[{id} / {}] run: {e}", plan.label));
            let p = engine::run_streaming(&plan.expr, &catalog)
                .unwrap_or_else(|e| panic!("[{id} / {}] run_streaming: {e}", plan.label));
            assert_eq!(m.rows, p.rows, "[{id} / {}] rows differ", plan.label);
            assert_eq!(
                m.output, p.output,
                "[{id} / {}] Ξ output differs",
                plan.label
            );
            assert_eq!(
                m.metrics.probe_tuples, p.metrics.probe_tuples,
                "[{id} / {}] probe_tuples differ",
                plan.label
            );
        }
    }
}

/// Same differential across generator scales and seeds, so blocking
/// operators see empty, singleton, and large groups.
#[test]
fn paper_plans_stream_identically_across_seeds() {
    for &(scale, fanout, seed) in &[(10usize, 2usize, 1u64), (30, 5, 7)] {
        let catalog = standard_catalog(scale, fanout, seed);
        for (id, query) in workloads() {
            let nested =
                xquery::compile(query, &catalog).unwrap_or_else(|e| panic!("[{id}] compile: {e}"));
            for plan in unnest::enumerate_plans(&nested, &catalog) {
                let m = engine::run(&plan.expr, &catalog).expect("run");
                let p = engine::run_streaming(&plan.expr, &catalog).expect("run_streaming");
                assert_eq!(
                    m.output, p.output,
                    "[{id} / {} @ scale={scale} seed={seed}] Ξ output differs",
                    plan.label
                );
            }
        }
    }
}

/// Inline copy of the workload queries (kept in sync by the umbrella
/// end-to-end tests) to avoid a dependency cycle on the umbrella crate.
fn workloads() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "q1",
            r#"let $d1 := doc("bib.xml")
               for $a1 in distinct-values($d1//author)
               return <author><name>{ $a1 }</name>{
                 let $d2 := doc("bib.xml")
                 for $b2 in $d2//book[$a1 = author]
                 return $b2/title
               }</author>"#,
        ),
        (
            "q2",
            r#"let $d1 := doc("prices.xml")
               for $t1 in distinct-values($d1//book/title)
               let $m1 := min(let $d2 := doc("prices.xml")
                              for $p2 in $d2//book[title = $t1]/price
                              return decimal($p2))
               return <minprice title="{ $t1 }"><price>{ $m1 }</price></minprice>"#,
        ),
        (
            "q3",
            r#"let $d1 := document("bib.xml")
               for $t1 in $d1//book/title
               where some $t2 in document("reviews.xml")//entry/title
                     satisfies $t1 = $t2
               return <book-with-review>{ $t1 }</book-with-review>"#,
        ),
        (
            "q4",
            r#"let $d1 := doc("bib.xml")
               for $b1 in $d1//book, $a1 in $b1/author
               where exists(let $d2 := doc("bib.xml")
                            for $b2 in $d2//book, $a2 in $b2/author
                            where contains($a2, "an") and $b1 = $b2
                            return $b2)
               return <book>{ $a1 }</book>"#,
        ),
        (
            "q5",
            r#"let $d1 := doc("bib.xml")
               for $a1 in distinct-values($d1//author)
               where every $b2 in doc("bib.xml")//book[author = $a1]
                     satisfies $b2/@year > 1993
               return <new-author>{ $a1 }</new-author>"#,
        ),
        (
            "q6",
            r#"let $d1 := document("bids.xml")
               for $i1 in distinct-values($d1//itemno)
               where count($d1//bidtuple[itemno = $i1]) >= 3
               return <popular-item>{ $i1 }</popular-item>"#,
        ),
    ]
}
