//! Differential testing: the physical engine must agree with the
//! reference evaluator (`nal::eval`) on every operator, including order —
//! rows, and the Ξ output stream byte for byte. The Ξ inputs below pin
//! the pipeline's evaluation-order barriers (`strict` joins, the
//! `Materialize` barrier): the reference writes Ξ bottom-up and
//! left-to-right, so stacked Ξ, Ξ below a join build side and Ξ inside
//! quantifier or aggregate scalars fail here if pipelining interleaves
//! the writes.

use proptest::prelude::*;

use nal::expr::builder::*;
use nal::{eval_query, AggKind, CmpOp, EvalCtx, Expr, GroupFn, Scalar, Sym, Tuple, Value};
use xmldb::gen::{gen_bib, standard_catalog, BibConfig};
use xmldb::Catalog;

fn s(n: &str) -> Sym {
    Sym::new(n)
}

fn spec(expr: &Expr, cat: &Catalog) -> (Vec<Tuple>, String) {
    let mut ctx = EvalCtx::new(cat);
    let rows = eval_query(expr, &mut ctx).expect("spec evaluation succeeds");
    (rows, ctx.take_output())
}

fn engine_run(expr: &Expr, cat: &Catalog) -> (Vec<Tuple>, String) {
    let r = engine::run(expr, cat).expect("engine evaluation succeeds");
    (r.rows, r.output)
}

fn assert_same(expr: &Expr, cat: &Catalog) {
    let (srows, sout) = spec(expr, cat);
    let (erows, eout) = engine_run(expr, cat);
    assert_eq!(srows, erows, "row mismatch for {expr}");
    assert_eq!(sout, eout, "Ξ output mismatch for {expr}");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn joins_agree(
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
        assert_same(&expr, &cat);
    }

    /// Every join kind over a non-equi predicate, and a cross product
    /// under a selection.
    #[test]
    fn non_equi_joins_agree(
        l in prop::collection::vec((0i64..5, 0i64..40), 0..10),
        r in prop::collection::vec((0i64..5, 0i64..40), 0..10),
        op in prop::sample::select(vec![CmpOp::Lt, CmpOp::Ne, CmpOp::Ge]),
        k in 0i64..40,
    ) {
        let cat = Catalog::new();
        let (left, right) = (rel("a", "x", &l), rel("b", "y", &r));
        let pred = Scalar::attr_cmp(op, "a", "b");
        assert_same(&left.clone().join(right.clone(), pred.clone()), &cat);
        assert_same(&left.clone().semijoin(right.clone(), pred.clone()), &cat);
        assert_same(&left.clone().antijoin(right.clone(), pred.clone()), &cat);
        assert_same(&left.clone().outerjoin(right.clone(), pred, "y", Value::Int(0)), &cat);
        let crossed = left.cross(right).select(Scalar::cmp(op, Scalar::attr("y"), Scalar::int(k)));
        assert_same(&crossed, &cat);
    }

    #[test]
    fn grouping_agrees(
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
        assert_same(&expr, &cat);
    }

    #[test]
    fn binary_grouping_agrees(
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
        assert_same(&expr, &cat);
    }

    #[test]
    fn group_then_unnest_agrees(
        rows in prop::collection::vec((0i64..4, 0i64..40), 0..14),
        distinct in prop::bool::ANY,
    ) {
        let cat = Catalog::new();
        let grouped = rel("b", "y", &rows).group_unary("g", &["b"], CmpOp::Eq, GroupFn::id());
        let expr = if distinct { grouped.unnest_distinct("g") } else { grouped.unnest("g") };
        assert_same(&expr, &cat);
    }

    #[test]
    fn projections_agree(
        rows in prop::collection::vec((0i64..4, 0i64..6), 0..16),
    ) {
        let cat = Catalog::new();
        let base = rel("b", "y", &rows);
        assert_same(&base.clone().project(&["b"]), &cat);
        assert_same(&base.clone().drop_attrs(&["y"]), &cat);
        assert_same(&base.clone().rename(&[("z", "b")]), &cat);
        assert_same(&base.clone().distinct_cols(&["b"]), &cat);
        assert_same(&base.distinct_rename(&[("z", "b")]), &cat);
    }

    /// Grouped and simple Ξ, stacked Ξ, Ξ below a join build side, and
    /// Ξ inside quantifier and aggregate scalars.
    #[test]
    fn xi_group_agrees(
        rows in prop::collection::vec((0i64..4, 0i64..6), 0..16),
    ) {
        let cat = Catalog::new();
        let expr = rel("b", "y", &rows).xi_group(
            &["b"],
            xi_cmds(&["<g k=\"", "$b", "\">"]),
            xi_cmds(&["<i>", "$y", "</i>"]),
            xi_cmds(&["</g>"]),
        );
        assert_same(&expr, &cat);
        let xi = |input: Expr, cmds: &[&str]| Expr::XiSimple {
            input: Box::new(input),
            cmds: xi_cmds(cmds),
        };
        let simple = xi(rel("b", "y", &rows), &["<row>", "$y", "</row>"]);
        assert_same(&simple, &cat);

        // Stacked: the inner Ξ's whole byte stream precedes the outer's.
        let inner = xi(rel("b", "y", &rows), &["<inner>", "$y", "</inner>"]);
        assert_same(&xi(inner, &["<outer>", "$b", "</outer>"]), &cat);

        // Ξ below a join build side, under another Ξ: the left side is
        // evaluated before the right.
        let joined = rel("a", "x", &rows).join(
            xi(rel("b", "y", &rows), &["<r>", "$b", "</r>"]),
            Scalar::attr_cmp(CmpOp::Eq, "a", "b"),
        );
        assert_same(&xi(joined, &["<j>", "$x", "</j>"]), &cat);

        // An aggregate whose nested input writes Ξ when evaluated.
        let xi_agg = |tag: &str| Scalar::Agg {
            f: GroupFn::count(),
            input: Box::new(xi(rel("b", "y", &rows), &[tag])),
        };
        // Cross of two Ξ-writing χ: left fully, then right.
        let one = |a: &str, v: i64| {
            Expr::Literal(vec![Tuple::singleton(s(a), Value::Int(v))]).project_syms(vec![s(a)])
        };
        let left = one("l", 1).map("gl", xi_agg("<L/>"));
        let right = one("r", 2).map("gr", xi_agg("<R/>"));
        assert_same(&left.cross(right), &cat);

        // Stacked unary writers: a σ whose quantifier range writes Ξ,
        // over a χ whose aggregate input writes Ξ.
        let mapped = rel("a", "x", &rows).map("g", xi_agg("<A/>"));
        let selected = mapped.select(Scalar::Exists {
            var: s("q"),
            range: Box::new(xi(one("z", 1), &["<B/>"])),
            pred: Box::new(Scalar::cmp(CmpOp::Gt, Scalar::attr("q"), Scalar::int(0))),
        });
        assert_same(&selected, &cat);
    }
}

/// All plans of all six paper workloads, across generator scales and
/// seeds so blocking operators see empty, singleton, and large groups:
/// engine output == spec output.
#[test]
fn engine_matches_spec_on_all_paper_plans() {
    for (scale, fanout, seed) in [(25usize, 3usize, 11u64), (10, 2, 1), (30, 5, 7)] {
        let catalog = standard_catalog(scale, fanout, seed);
        for w in &ordered_unnesting::workloads::ALL {
            let nested = xquery::compile(w.query, &catalog)
                .unwrap_or_else(|e| panic!("[{}] compile: {e}", w.id));
            for plan in unnest::enumerate_plans(&nested, &catalog) {
                let at = format!("{} / {} @ scale={scale} seed={seed}", w.id, plan.label);
                let (srows, sout) = spec(&plan.expr, &catalog);
                let r = engine::run(&plan.expr, &catalog)
                    .unwrap_or_else(|e| panic!("[{at}] engine: {e}"));
                assert_eq!(r.rows, srows, "[{at}] rows differ");
                assert_eq!(r.output, sout, "[{at}] Ξ output differs");
            }
        }
    }
}

/// The engine must be *faster* than the spec evaluator on an unnested
/// grouping plan at moderate scale (sanity check of the hash operators).
#[test]
fn hash_grouping_beats_definitional_grouping() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 300,
        authors_per_book: 3,
        ..Default::default()
    }));
    let q = r#"let $d1 := doc("bib.xml")
               for $a1 in distinct-values($d1//author)
               return <author><name>{ $a1 }</name>{
                 let $d2 := doc("bib.xml")
                 for $b2 in $d2//book[$a1 = author]
                 return $b2/title
               }</author>"#;
    let nested = xquery::compile(q, &cat).unwrap();
    let (best, _) = unnest::unnest_best(&nested, &cat);
    let t0 = std::time::Instant::now();
    let _ = engine::run(&best, &cat).unwrap();
    let engine_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let mut ctx = EvalCtx::new(&cat);
    let _ = eval_query(&nested, &mut ctx).unwrap();
    let nested_time = t1.elapsed();
    assert!(
        engine_time < nested_time,
        "unnested engine plan ({engine_time:?}) should beat the nested baseline ({nested_time:?})"
    );
}
