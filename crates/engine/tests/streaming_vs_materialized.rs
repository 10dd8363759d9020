//! Differential testing of the streaming pipeline against the result
//! the reference evaluator (`nal::eval`) materializes: a plan's cursor
//! tree, pulled one tuple at a time, must produce the reference's row
//! sequence, and after every pull the Ξ bytes written so far must be a
//! prefix of the reference's output — each increment `query_streamed`
//! sends is final. Randomized relations over every operator kind, and
//! every plan alternative of every §5 workload.
//!
//! The Ξ inputs here put Ξ writers *above* a pipeline — σ, μ and join
//! operators under `XiSimple`/`XiGroup`, stacked Ξ over a σ, Ξ-writing
//! aggregate and quantifier scalars over σ and ⋈ — and so are written in
//! the order the pipeline produces its tuples. The pipeline's Ξ-order
//! barriers (stacked Ξ, Ξ below a join build side, Ξ inside scalars of
//! both sides of a ×) live in `engine_vs_spec`.

// The reference evaluator is this file's oracle.
#![allow(clippy::disallowed_methods)]

use proptest::prelude::*;

use nal::expr::builder::*;
use nal::{
    eval_query, AggKind, CmpOp, Dec, EvalCtx, EvalResult, Expr, GroupFn, Scalar, Scope, Sym, Tuple,
    Value,
};
use xmldb::gen::standard_catalog;
use xmldb::Catalog;

fn s(n: &str) -> Sym {
    Sym::new(n)
}

/// The reference evaluator's materialized result: rows, Ξ bytes and
/// how many nested blocks it evaluated.
fn reference(expr: &Expr, cat: &Catalog) -> EvalResult<(Vec<Tuple>, String, u64)> {
    let mut ctx = EvalCtx::new(cat);
    let rows = eval_query(expr, &mut ctx)?;
    Ok((rows, ctx.take_output(), ctx.metrics.nested_evals))
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

/// Pull `expr`'s compiled plan tuple by tuple against the reference:
/// the `k`-th row equals the reference's `k`-th, the Ξ bytes so far are
/// a prefix of the reference's, and at the end both are whole — with
/// no more nested blocks evaluated than the reference evaluates.
fn assert_stream_matches_at(expr: &Expr, cat: &Catalog, at: &str) {
    let (rows, output, nested_evals) = reference(expr, cat).expect("reference evaluation succeeds");
    let plan = engine::compile(expr);
    let mut root = engine::pipeline::lower(&plan, &Scope::Empty);
    let mut ctx = EvalCtx::new(cat);
    let mut pulled = 0;
    while let Some(row) = root
        .next(&mut ctx)
        .unwrap_or_else(|e| panic!("[{at}] pull {pulled}: {e}"))
    {
        assert_eq!(rows.get(pulled), Some(&row), "[{at}] row {pulled} differs");
        assert!(
            output.starts_with(&ctx.out),
            "[{at}] Ξ output after row {pulled} is no prefix of the reference's"
        );
        pulled += 1;
    }
    assert_eq!(pulled, rows.len(), "[{at}] row count differs");
    assert_eq!(ctx.out, output, "[{at}] Ξ output differs");
    assert!(
        ctx.metrics.nested_evals <= nested_evals,
        "[{at}] {} nested evaluations, the reference's {nested_evals}",
        ctx.metrics.nested_evals
    );
}

/// The grouping keys the Γ properties draw from: 0..4, NULL, NaN, a
/// missing attribute (`None`), "a" and "b" — no `2.0` or "2", across
/// which `cmp_atomic` is not transitive.
fn pool_key(k: usize) -> Option<Value> {
    match k {
        0..=4 => Some(Value::Int(k as i64)),
        5 => Some(Value::Null),
        6 => Some(Value::Dec(Dec(f64::NAN))),
        7 => None,
        8 => Some(Value::str("a")),
        _ => Some(Value::str("b")),
    }
}

/// Rows binding `key` from the pool (unless it is missing) and `val`.
fn keyed(key: &str, val: &str, rows: &[(usize, i64)]) -> Expr {
    Expr::Literal(
        rows.iter()
            .map(|&(k, v)| {
                let mut fields = vec![(s(val), Value::Int(v))];
                fields.extend(pool_key(k).map(|k| (s(key), k)));
                Tuple::from_pairs(fields)
            })
            .collect(),
    )
    .project_syms(vec![s(key), s(val)])
}

const THETAS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// `count ∘ σ[∃q ∈ W: q > y]`: a filter whose quantifier ranges over an
/// invariant block, which the engine spools.
fn filtered_count() -> GroupFn {
    GroupFn::count().filtered(exists_above("y"))
}

/// `∃q ∈ W: q > attr`, a quantifier over an invariant range: a
/// predicate whose block the engine spools.
fn exists_above(attr: &str) -> Scalar {
    let w = rel("w", "z", &[(5, 0), (15, 0), (25, 0)]).select(Scalar::cmp(
        CmpOp::Ge,
        Scalar::attr("z"),
        Scalar::int(0),
    ));
    Scalar::Exists {
        var: s("q"),
        range: Box::new(w.project(&["w"])),
        pred: Box::new(Scalar::attr_cmp(CmpOp::Gt, "q", attr)),
    }
}

/// No extra conjunct, one over either side, or a quantifier over the
/// build side's attribute.
fn extra_conjunct(pred: Scalar, extra: usize) -> Scalar {
    match extra {
        0 => pred,
        1 => pred.and(Scalar::cmp(CmpOp::Lt, Scalar::attr("y"), Scalar::int(25))),
        2 => pred.and(Scalar::cmp(CmpOp::Lt, Scalar::attr("x"), Scalar::int(25))),
        _ => pred.and(exists_above("y")),
    }
}

/// A join of kind `kind` (inner, semi, anti, outer).
fn join_of(kind: usize, left: Expr, right: Expr, pred: Scalar) -> Expr {
    match kind {
        0 => left.join(right, pred),
        1 => left.semijoin(right, pred),
        2 => left.antijoin(right, pred),
        _ => left.outerjoin(right, pred, "y", Value::Int(0)),
    }
}

fn assert_stream_matches(expr: &Expr, cat: &Catalog) {
    assert_stream_matches_at(expr, cat, &expr.to_string());
}

/// As `assert_stream_matches`, except that where the reference fails (a
/// join key a row lacks) the engine's stream must fail for the same
/// cause. Only the join properties, whose keys may be missing, use it.
fn assert_stream_agrees(expr: &Expr, cat: &Catalog) {
    let Err(want) = reference(expr, cat) else {
        return assert_stream_matches(expr, cat);
    };
    let plan = engine::compile(expr);
    let mut root = engine::pipeline::lower(&plan, &Scope::Empty);
    let got =
        engine::drain(root.as_mut(), &mut EvalCtx::new(cat)).expect_err("the reference fails");
    // The tuple the error was raised over may be narrower.
    let cause = |m: &str| m.split(" (env ").next().unwrap_or(m).to_string();
    assert_eq!(cause(&got.message), cause(&want.message), "{expr}");
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
            assert_stream_matches_at(&plan.expr, &catalog, &at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Equi-joins of every kind over keys that are numbers, text, NULL,
    /// NaN or missing, with residuals over either side or holding a
    /// quantifier.
    #[test]
    fn joins_stream_identically(
        l in prop::collection::vec((0usize..10, 0i64..40), 0..14),
        r in prop::collection::vec((0usize..10, 0i64..40), 0..14),
        kind in 0..4usize,
        extra in 0..4usize,
    ) {
        let cat = Catalog::new();
        let pred = extra_conjunct(Scalar::attr_cmp(CmpOp::Eq, "a", "b"), extra);
        let expr = join_of(kind, keyed("a", "x", &l), keyed("b", "y", &r), pred);
        assert_stream_agrees(&expr, &cat);
    }

    #[test]
    fn non_equi_joins_stream_identically(
        l in prop::collection::vec((0usize..10, 0i64..40), 0..10),
        r in prop::collection::vec((0usize..10, 0i64..40), 0..10),
        kind in 0..4usize,
        op in prop::sample::select(THETAS.to_vec()),
        extra in 0..4usize,
    ) {
        let cat = Catalog::new();
        let pred = extra_conjunct(Scalar::attr_cmp(op, "a", "b"), extra);
        let expr = join_of(kind, keyed("a", "x", &l), keyed("b", "y", &r), pred);
        assert_stream_agrees(&expr, &cat);
    }

    #[test]
    fn cross_and_select_stream_identically(
        l in prop::collection::vec((0usize..10, 0i64..9), 0..8),
        r in prop::collection::vec((0usize..10, 0i64..9), 0..8),
        op in prop::sample::select(THETAS.to_vec()),
        k in 0i64..9,
    ) {
        let cat = Catalog::new();
        let expr = keyed("a", "x", &l)
            .cross(keyed("b", "y", &r))
            .select(Scalar::attr_cmp(op, "a", "b").and(Scalar::cmp(
                CmpOp::Le,
                Scalar::attr("y"),
                Scalar::int(k),
            )));
        assert_stream_agrees(&expr, &cat);
    }

    #[test]
    fn grouping_streams_identically(
        rows in prop::collection::vec((0usize..10, 0i64..40), 0..16),
        theta in prop::sample::select(THETAS.to_vec()),
        f in prop::sample::select(vec![
            GroupFn::count(),
            GroupFn::id(),
            GroupFn::project_items("y"),
            GroupFn::agg_of(AggKind::Min, "y"),
            GroupFn::agg_of(AggKind::Sum, "y"),
            filtered_count(),
        ]),
    ) {
        let cat = Catalog::new();
        let expr = keyed("b", "y", &rows).group_unary("g", &["b"], theta, f);
        assert_stream_matches(&expr, &cat);
    }

    #[test]
    fn binary_grouping_streams_identically(
        l in prop::collection::vec(0usize..10, 0..10),
        r in prop::collection::vec((0usize..10, 0i64..40), 0..14),
        theta in prop::sample::select(THETAS.to_vec()),
        f in prop::sample::select(vec![GroupFn::count(), filtered_count()]),
    ) {
        let cat = Catalog::new();
        let left: Vec<_> = l.into_iter().zip(0..).collect();
        let expr = keyed("a", "x", &left).group_binary(
            keyed("b", "y", &r),
            "g",
            &["a"],
            theta,
            &["b"],
            f,
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

    /// Grouped and simple Ξ over a σ, and over a μ fanning out the
    /// groups of a Γ.
    #[test]
    fn xi_streams_identically(
        rows in prop::collection::vec((0i64..4, 0i64..6), 0..16),
        grouped in prop::bool::ANY,
        k in 0i64..6,
    ) {
        let cat = Catalog::new();
        let writer = |input: Expr| {
            if grouped {
                input.xi_group(
                    &["b"],
                    xi_cmds(&["<g k=\"", "$b", "\">"]),
                    xi_cmds(&["<i>", "$y", "</i>"]),
                    xi_cmds(&["</g>"]),
                )
            } else {
                xi(input, &["<row>", "$y", "</row>"])
            }
        };
        let kept = rel("b", "y", &rows)
            .select(Scalar::cmp(CmpOp::Le, Scalar::attr("y"), Scalar::int(k)));
        assert_stream_matches(&writer(kept), &cat);
        let fanned = rel("b", "y", &rows)
            .group_unary("g", &["b"], CmpOp::Eq, GroupFn::id())
            .unnest("g");
        assert_stream_matches(&writer(fanned), &cat);
    }

    /// Stacked Ξ over a σ, and Ξ over a Ξ-free join.
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
    /// operator above a σ or a join: one write per tuple, in the order
    /// the pipeline produces the tuples.
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
