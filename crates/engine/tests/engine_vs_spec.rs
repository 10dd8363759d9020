//! Differential testing: the physical engine must agree with the
//! reference evaluator (`nal::eval`) on every operator, including order —
//! rows, and the Ξ output stream byte for byte. The Ξ inputs below pin
//! the pipeline's evaluation-order barriers (`strict` joins, the
//! `Materialize` barrier): the reference writes Ξ bottom-up and
//! left-to-right, so stacked Ξ, Ξ below a join build side and Ξ inside
//! quantifier or aggregate scalars fail here if pipelining interleaves
//! the writes.

// The reference evaluator is this file's oracle.
#![allow(clippy::disallowed_methods)]

use proptest::prelude::*;

use nal::expr::builder::*;
use nal::{eval_query, AggKind, CmpOp, Dec, EvalCtx, Expr, GroupFn, Scalar, Sym, Tuple, Value};
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

/// The engine's rows and Ξ bytes are the reference's, and it evaluates
/// no more nested blocks than the reference does.
fn assert_same(expr: &Expr, cat: &Catalog) {
    let mut ctx = EvalCtx::new(cat);
    let rows = eval_query(expr, &mut ctx).expect("spec evaluation succeeds");
    let run = engine::run(expr, cat).expect("engine evaluation succeeds");
    assert_eq!(run.rows, rows, "row mismatch for {expr}");
    assert_eq!(
        run.output,
        ctx.take_output(),
        "Ξ output mismatch for {expr}"
    );
    assert!(
        run.metrics.nested_evals <= ctx.metrics.nested_evals,
        "{} nested evaluations, the reference's {}: {expr}",
        run.metrics.nested_evals,
        ctx.metrics.nested_evals
    );
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

/// The grouping keys the Γ properties draw from: 0..4, NULL, NaN, a
/// missing attribute (`None`), "a" and "b". Mixed numeric types (`2.0`)
/// and numeric text ("2") stay out: `cmp_atomic` is not transitive
/// across them, so no hash partition can agree with the reference.
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

/// Rows binding `key` (unless it is missing) and `val` per pair.
fn keyed(key: &str, val: &str, rows: &[(Option<Value>, i64)]) -> Expr {
    Expr::Literal(
        rows.iter()
            .map(|(k, v)| {
                let mut fields = vec![(s(val), Value::Int(*v))];
                fields.extend(k.clone().map(|k| (s(key), k)));
                Tuple::from_pairs(fields)
            })
            .collect(),
    )
    .project_syms(vec![s(key), s(val)])
}

fn pooled(rows: &[(usize, i64)]) -> Vec<(Option<Value>, i64)> {
    rows.iter().map(|&(k, v)| (pool_key(k), v)).collect()
}

/// Rows binding a join key from the whole pool — a row may lack it —
/// and `val`.
fn joinable(key: &str, val: &str, rows: &[(usize, i64)]) -> Expr {
    keyed(key, val, &pooled(rows))
}

/// An error message without the tuple it was raised over, which the
/// engine may hold narrower than the reference.
fn cause(message: &str) -> &str {
    message.split(" (env ").next().unwrap_or(message)
}

/// [`assert_same`] — or, where the reference fails (a join key a row
/// lacks), the engine fails for the same cause.
fn assert_agrees(expr: &Expr, cat: &Catalog) {
    match eval_query(expr, &mut EvalCtx::new(cat)) {
        Ok(_) => assert_same(expr, cat),
        Err(want) => {
            let got = engine::run(expr, cat).expect_err("the reference fails");
            assert_eq!(cause(&got.message), cause(&want.message), "{expr}");
        }
    }
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

/// A join key a tuple lacks fails the comparison in the reference, so
/// the engine does not hash on it: `[a: 1, x: 0]` against `Π[b,y]` of
/// `[y: 5]` fails under `=` as it does under `<`, for ⋉, ▷ and ⋈.
#[test]
fn join_keys_a_tuple_lacks_fail_like_the_reference() {
    let cat = Catalog::new();
    let left = Expr::Literal(vec![Tuple::from_pairs(vec![
        (s("a"), Value::Int(1)),
        (s("x"), Value::Int(0)),
    ])]);
    let right = Expr::Literal(vec![Tuple::singleton(s("y"), Value::Int(5))]).project(&["b", "y"]);
    for op in [CmpOp::Eq, CmpOp::Lt] {
        let pred = Scalar::attr_cmp(op, "a", "b");
        let (l, r) = (left.clone(), right.clone());
        for (expr, name) in [
            (l.clone().semijoin(r.clone(), pred.clone()), "LoopSemiJoin"),
            (l.clone().antijoin(r.clone(), pred.clone()), "LoopAntiJoin"),
            (l.join(r, pred), "LoopJoin"),
        ] {
            assert_eq!(engine::compile(&expr).op_name(), name, "{expr}");
            let want = eval_query(&expr, &mut EvalCtx::new(&cat)).expect_err("unbound `b`");
            assert!(want.message.contains("`b`"), "{}", want.message);
            assert_agrees(&expr, &cat);
        }
    }
}

/// Keys that match nothing — NULL, NaN, a missing attribute — are keys
/// all the same: Γ gives each distinct one `f(∅)`, and Ξg writes its
/// head and tail around an empty body.
#[test]
fn keys_that_match_nothing_keep_their_groups() {
    let cat = Catalog::new();
    let nan = Value::Dec(Dec(f64::NAN));
    let keys = [
        Some(Value::Int(1)),
        Some(Value::Null),
        Some(Value::items(vec![])),
        Some(Value::str("a")),
        None,
        Some(Value::Int(1)),
        Some(nan.clone()),
        Some(Value::Null),
        Some(nan.clone()),
        None,
    ];
    let rows = |keys: &[Option<Value>]| {
        let rows: Vec<_> = keys.iter().cloned().zip(0..).collect();
        keyed("b", "y", &rows)
    };
    let grouped = rows(&keys).group_unary("g", &["b"], CmpOp::Eq, GroupFn::count());
    let (groups, _) = spec(&grouped, &cat);
    assert_eq!(groups.len(), 6, "{groups:?}");
    let count = |key: Option<Value>| {
        let mut fields = vec![(s("g"), Value::Int(0))];
        fields.extend(key.map(|k| (s("b"), k)));
        Tuple::from_pairs(fields)
    };
    for key in [Some(Value::Null), None, Some(nan)] {
        assert!(groups.contains(&count(key.clone())), "{key:?}: {groups:?}");
    }
    assert_same(&grouped, &cat);

    let xi_group = |input: Expr| {
        input.xi_group(
            &["b"],
            xi_cmds(&["<k>", "$b", "</k>"]),
            xi_cmds(&["$y", ","]),
            xi_cmds(&[";"]),
        )
    };
    let present: Vec<_> = keys.iter().filter(|k| k.is_some()).cloned().collect();
    let written = xi_group(rows(&present));
    let (_, out) = spec(&written, &cat);
    assert!(
        out.contains("<k></k>;") && out.contains("<k>NaN</k>;"),
        "{out}"
    );
    assert_same(&written, &cat);
    // A row without `b` leaves `$b` unbound in both.
    let unbound = xi_group(rows(&keys));
    assert!(eval_query(&unbound, &mut EvalCtx::new(&cat)).is_err());
    assert!(engine::run(&unbound, &cat).is_err());
}

/// A θ-Γ runs on the engine's own cursors: its rows are counted once,
/// by the meter, and its filter's invariant block is spooled and
/// indexed for the ∃ on `q > y`.
#[test]
fn theta_grouping_runs_on_the_engine() {
    let cat = Catalog::new();
    let rows: Vec<_> = [1, 2, 1, 3, 2]
        .into_iter()
        .zip(0..)
        .map(|(b, y)| Tuple::from_pairs(vec![(s("b"), Value::Int(b)), (s("y"), Value::Int(y))]))
        .collect();
    let grouped = |f| Expr::Literal(rows.clone()).group_unary("g", &["b"], CmpOp::Lt, f);
    let counted = grouped(GroupFn::count());
    assert_same(&counted, &cat);
    let run = engine::run(&counted, &cat).unwrap();
    assert_eq!(run.metrics.tuples_produced, 5 + 3);

    let filtered = grouped(filtered_count());
    assert_eq!(
        engine::compile(&filtered).detail(),
        " shared{Π ∃ indexed(w >)}"
    );
    assert_same(&filtered, &cat);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Equi-joins of every kind over keys that are numbers, text, NULL,
    /// NaN or missing, with residuals over either side or holding a
    /// quantifier.
    #[test]
    fn joins_agree(
        l in prop::collection::vec((0usize..10, 0i64..40), 0..14),
        r in prop::collection::vec((0usize..10, 0i64..40), 0..14),
        kind in 0..4usize,
        extra in 0..4usize,
    ) {
        let cat = Catalog::new();
        let left = joinable("a", "x", &l);
        let right = joinable("b", "y", &r);
        let pred = extra_conjunct(Scalar::attr_cmp(CmpOp::Eq, "a", "b"), extra);
        let expr = match kind {
            0 => left.join(right, pred),
            1 => left.semijoin(right, pred),
            2 => left.antijoin(right, pred),
            _ => left.outerjoin(right, pred, "y", Value::Int(0)),
        };
        assert_agrees(&expr, &cat);
    }

    /// Every join kind over every θ and the same keys, and a cross
    /// product under a selection.
    #[test]
    fn non_equi_joins_agree(
        l in prop::collection::vec((0usize..10, 0i64..40), 0..10),
        r in prop::collection::vec((0usize..10, 0i64..40), 0..10),
        op in prop::sample::select(THETAS.to_vec()),
        extra in 0..4usize,
        k in 0i64..40,
    ) {
        let cat = Catalog::new();
        let (left, right) = (joinable("a", "x", &l), joinable("b", "y", &r));
        let pred = extra_conjunct(Scalar::attr_cmp(op, "a", "b"), extra);
        assert_agrees(&left.clone().join(right.clone(), pred.clone()), &cat);
        assert_agrees(&left.clone().semijoin(right.clone(), pred.clone()), &cat);
        assert_agrees(&left.clone().antijoin(right.clone(), pred.clone()), &cat);
        assert_agrees(&left.clone().outerjoin(right.clone(), pred, "y", Value::Int(0)), &cat);
        let crossed = left.cross(right).select(
            Scalar::attr_cmp(op, "a", "b").and(Scalar::cmp(op, Scalar::attr("y"), Scalar::int(k))),
        );
        assert_agrees(&crossed, &cat);
    }

    #[test]
    fn grouping_agrees(
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
        let expr = keyed("b", "y", &pooled(&rows)).group_unary("g", &["b"], theta, f);
        assert_same(&expr, &cat);
    }

    #[test]
    fn binary_grouping_agrees(
        l in prop::collection::vec(0usize..10, 0..10),
        r in prop::collection::vec((0usize..10, 0i64..40), 0..14),
        theta in prop::sample::select(THETAS.to_vec()),
        f in prop::sample::select(vec![GroupFn::count(), filtered_count()]),
    ) {
        let cat = Catalog::new();
        let left: Vec<_> = l.iter().zip(0..).map(|(&k, x)| (pool_key(k), x)).collect();
        let expr = keyed("a", "x", &left).group_binary(
            keyed("b", "y", &pooled(&r)),
            "g",
            &["a"],
            theta,
            &["b"],
            f,
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
