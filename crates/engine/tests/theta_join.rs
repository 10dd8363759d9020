//! Differential and bound tests of the shared θ-probe
//! (`engine::theta`): loop joins whose predicate is split by side and
//! whose range conjuncts probe an ordered build.
//!
//! The oracle is the reference evaluator (`nal::eval`, the §2
//! definitions) — not a kept copy of the old pair loop. Every case runs
//! serially and in parallel at degrees 2 and 8; all must produce the
//! oracle's rows and Ξ bytes, and the parallel runs the serial run's
//! counters.

use fuzz::corpus::VALUE_POOL;
use nal::expr::builder::*;
use nal::{eval, ArithOp, CmpOp, Dec, EvalCtx, Expr, Func, Metrics, Scalar, Sym, Tuple, Value};
use proptest::TestRng;
use xmldb::{parse_document, Catalog};

const INEQ: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const ALL_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const LEFT: [&str; 2] = ["a", "x"];
const RIGHT: [&str; 2] = ["b", "y"];

fn pick<'a, T>(rng: &mut TestRng, from: &'a [T]) -> &'a T {
    &from[rng.below(from.len() as u64) as usize]
}

/// A catalog holding the pool's node values: elements whose string
/// values are pool strings, one of them with mixed content.
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let body: String = ["NaN", "-0", "10", "2", "abc", "", "3.0", "3"]
        .iter()
        .map(|v| format!("<v>{v}</v>"))
        .collect();
    let xml = format!("<p>{body}<v>1<i>0</i></v></p>");
    cat.register(parse_document("pool.xml", &xml).expect("pool document parses"));
    cat
}

/// The adversarial value pool: `fuzz`'s strings as text, the same
/// values typed, NULL, booleans, nodes, and item sequences.
fn value_pool(cat: &Catalog) -> Vec<Value> {
    let mut ctx = EvalCtx::new(cat);
    let scan = doc_scan("d", "pool.xml").unnest_map(
        "v",
        Scalar::attr("d").path(xpath::parse_path("//v").expect("path parses")),
    );
    let nodes: Vec<Value> = nal::eval_query(&scan, &mut ctx)
        .expect("pool scan evaluates")
        .iter()
        .map(|t| t.get(Sym::new("v")).expect("bound").clone())
        .collect();

    let mut pool: Vec<Value> = VALUE_POOL.iter().map(Value::str).collect();
    pool.push(Value::str(" 3 "));
    pool.extend([
        Value::Null,
        Value::Bool(true),
        Value::Bool(false),
        Value::Int(0),
        Value::Int(3),
        Value::Int(10),
        Value::Int(-1),
        Value::Dec(Dec(3.0)),
        Value::Dec(Dec(3.5)),
        Value::Dec(Dec(-0.0)),
        Value::Dec(Dec(f64::NAN)),
        Value::Dec(Dec(f64::INFINITY)),
        Value::Items(vec![].into()),
        Value::Items(vec![Value::Int(3)].into()),
        Value::items(vec![Value::Int(1), Value::str("zz9")]),
        Value::items(vec![Value::str("abc"), Value::str("2")]),
        Value::items(vec![nodes[2].clone(), Value::Dec(Dec(f64::NAN))]),
    ]);
    pool.extend(nodes);
    pool
}

/// A relation over two adversarial columns and one small-integer
/// column (`num`, what the non-replay-safe conjuncts compute on).
fn relation(rng: &mut TestRng, cols: [&str; 2], num: &str, pool: &[Value], max: u64) -> Expr {
    let rows = (0..rng.below(max + 1))
        .map(|_| {
            Tuple::from_pairs(vec![
                (Sym::new(cols[0]), pick(rng, pool).clone()),
                (Sym::new(cols[1]), pick(rng, pool).clone()),
                (Sym::new(num), Value::Int(rng.below(6) as i64)),
            ])
        })
        .collect();
    Expr::Literal(rows)
}

fn constant(rng: &mut TestRng, pool: &[Value]) -> Scalar {
    Scalar::constant(pick(rng, pool).clone())
}

/// One replay-safe conjunct: left-only, right-only, a range conjunct in
/// either orientation, a band over one build column, `≠`, a disjunction
/// across the sides, or a negated disjunction.
fn conjunct(rng: &mut TestRng, pool: &[Value]) -> Scalar {
    let l = Scalar::attr(*pick(rng, &LEFT));
    let r = Scalar::attr(*pick(rng, &RIGHT));
    let ineq = *pick(rng, &INEQ);
    match rng.below(10) {
        0 => Scalar::cmp(*pick(rng, &ALL_OPS), l, constant(rng, pool)),
        1 => Scalar::cmp(*pick(rng, &ALL_OPS), constant(rng, pool), r),
        2 => Scalar::cmp(*pick(rng, &ALL_OPS), r, constant(rng, pool)),
        3 | 4 => Scalar::cmp(ineq, l, r),
        5 => Scalar::cmp(ineq, r, l),
        6 => {
            // lo < k ∧ k ≤ hi, with the strictness of either end varied.
            let lo = *pick(rng, &[CmpOp::Lt, CmpOp::Le]);
            let hi = *pick(rng, &[CmpOp::Lt, CmpOp::Le]);
            Scalar::cmp(lo, Scalar::attr("a"), r.clone()).and(Scalar::cmp(hi, r, Scalar::attr("x")))
        }
        7 => Scalar::cmp(CmpOp::Ne, l, r),
        8 => Scalar::cmp(ineq, l, r.clone()).or(Scalar::cmp(CmpOp::Eq, r, constant(rng, pool))),
        _ => Scalar::Not(Box::new(Scalar::cmp(ineq, l.clone(), r).or(Scalar::cmp(
            CmpOp::Eq,
            l,
            constant(rng, pool),
        )))),
    }
}

/// A conjunct that is not replay-safe (arithmetic, `decimal()`): its
/// presence keeps the whole predicate the pair part. Usually over the
/// integer columns, where it cannot fail; sometimes over an adversarial
/// column, where the reference evaluation may raise an error the
/// engine must raise too.
fn unsafe_conjunct(rng: &mut TestRng) -> Scalar {
    let (l, r) = if rng.below(4) == 0 {
        ("a", "b")
    } else {
        ("n", "m")
    };
    let ineq = *pick(rng, &INEQ);
    if rng.below(2) == 0 {
        let sum = Scalar::Arith(
            ArithOp::Add,
            Box::new(Scalar::attr(l)),
            Box::new(Scalar::int(1)),
        );
        Scalar::cmp(ineq, sum, Scalar::attr(r))
    } else {
        Scalar::cmp(
            ineq,
            Scalar::Call(Func::Decimal, vec![Scalar::attr(l)]),
            Scalar::attr(r),
        )
    }
}

fn predicate(rng: &mut TestRng, pool: &[Value]) -> Scalar {
    let mut parts: Vec<Scalar> = (0..1 + rng.below(3)).map(|_| conjunct(rng, pool)).collect();
    if rng.below(5) == 0 {
        let at = rng.below(parts.len() as u64 + 1) as usize;
        parts.insert(at, unsafe_conjunct(rng));
    }
    Scalar::conjoin(parts)
}

fn join(kind: u64, left: Expr, right: Expr, pred: Scalar) -> Expr {
    let joined = match kind {
        0 => left.join(right, pred),
        1 => left.semijoin(right, pred),
        2 => left.antijoin(right, pred),
        _ => left.outerjoin(right, pred, "y", Value::str("none")),
    };
    joined.xi(xi_cmds(&["<r>", "$a", "|", "$x", "</r>"]))
}

type Outcome = Result<(Vec<Tuple>, String), String>;

fn outcome(r: nal::EvalResult<engine::QueryResult>) -> (Outcome, Metrics) {
    match r {
        Ok(q) => (Ok((q.rows, q.output)), q.metrics),
        Err(e) => (Err(e.message), Metrics::default()),
    }
}

/// Run `expr` on the oracle and on the engine, serially and in
/// parallel, under `env`; returns the serial run's metrics.
fn check(expr: &Expr, env: &Tuple, cat: &Catalog) -> Metrics {
    let mut octx = EvalCtx::new(cat);
    let oracle: Outcome = eval(expr, env, &mut octx)
        .map(|rows| (rows, octx.take_output()))
        .map_err(|e| e.message);

    let plan = engine::compile(expr);
    let par_plan = engine::apply_parallel(&plan);
    let run = |plan: &engine::PhysPlan, workers: usize| {
        let mut ctx = EvalCtx::new(cat);
        ctx.parallel = workers;
        let rows = engine::execute(plan, env, &mut ctx);
        let out = ctx.take_output();
        outcome(rows.map(|rows| engine::QueryResult {
            rows,
            output: out,
            metrics: ctx.metrics,
            elapsed: Default::default(),
        }))
    };

    let (serial, serial_metrics) = run(&plan, 1);
    // An error's message names the offending operands, so it pins the
    // pair the evaluation stopped at, not just that it stopped.
    assert_eq!(serial, oracle, "serial vs nal::eval for {expr}");
    for workers in [2, 8] {
        let (par, par_metrics) = run(&par_plan, workers);
        assert_eq!(
            par.is_ok(),
            oracle.is_ok(),
            "parallel@{workers} for {expr}: {par:?}"
        );
        if oracle.is_ok() {
            assert_eq!(par, oracle, "parallel@{workers} vs nal::eval for {expr}");
            assert_eq!(
                par_metrics, serial_metrics,
                "parallel@{workers} vs serial counters for {expr}"
            );
        }
    }
    serial_metrics
}

#[test]
fn random_theta_joins_match_the_reference_evaluator() {
    let cat = catalog();
    let pool = value_pool(&cat);
    let mut rng = TestRng::from_name("random_theta_joins_match_the_reference_evaluator");
    // Cases whose predicate has a [right-only, left-only, range] part.
    let mut covered = [0usize; 3];
    for case in 0..1500u64 {
        let left = relation(&mut rng, LEFT, "n", &pool, 7);
        let right = relation(&mut rng, RIGHT, "m", &pool, 9);
        let pred = predicate(&mut rng, &pool);
        let expr = join(case % 4, left, right, pred);
        if let engine::PhysPlan::XiSimple { input, .. } = engine::compile(&expr) {
            if let engine::PhysPlan::LoopJoin { split, .. } = *input {
                covered[0] += usize::from(split.right_only.is_some());
                covered[1] += usize::from(split.left_only.is_some());
                covered[2] += usize::from(split.range.is_some());
            }
        }
        check(&expr, &Tuple::empty(), &cat);
    }
    assert!(
        covered.iter().all(|&n| n > 200),
        "every part of the split is exercised: {covered:?}"
    );
}

/// Outer-scope attributes count as neither side: a conjunct over the
/// environment alone filters the build, and one over the environment
/// and the left side runs once per probe tuple.
#[test]
fn outer_scope_attributes_belong_to_neither_side() {
    let cat = catalog();
    let pool = value_pool(&cat);
    let mut rng = TestRng::from_name("outer_scope_attributes_belong_to_neither_side");
    for case in 0..300u64 {
        let env = Tuple::from_pairs(vec![
            (Sym::new("o"), pick(&mut rng, &pool).clone()),
            // Shadowed by the left side's column of the same name.
            (Sym::new("x"), pick(&mut rng, &pool).clone()),
        ]);
        let left = relation(&mut rng, LEFT, "n", &pool, 6);
        let right = relation(&mut rng, RIGHT, "m", &pool, 6);
        let ineq = *pick(&mut rng, &INEQ);
        let pred = Scalar::conjoin(vec![
            Scalar::cmp(ineq, Scalar::attr("o"), Scalar::attr("b")),
            Scalar::cmp(*pick(&mut rng, &ALL_OPS), Scalar::attr("o"), Scalar::int(3)),
            Scalar::cmp(
                *pick(&mut rng, &ALL_OPS),
                Scalar::attr("o"),
                Scalar::attr("x"),
            ),
            conjunct(&mut rng, &pool),
        ]);
        check(&join(case % 4, left, right, pred), &env, &cat);
    }
}

fn strings(attr: &str, values: impl Iterator<Item = String>) -> Expr {
    Expr::Literal(
        values
            .map(|v| Tuple::singleton(Sym::new(attr), Value::str(v)))
            .collect(),
    )
}

fn ints(attr: &str, values: impl Iterator<Item = i64>) -> Expr {
    Expr::Literal(
        values
            .map(|v| Tuple::singleton(Sym::new(attr), Value::Int(v)))
            .collect(),
    )
}

/// The q8 shape, `every $p in R satisfies $p > 5` over a population
/// that clears the floor: the anti join's predicate `p <= 5` never
/// mentions the left side, so it is decided while the build is
/// filtered and no probe tuple examines a candidate.
#[test]
fn an_uncorrelated_every_examines_no_pair_candidates() {
    let cat = catalog();
    let n = 64;
    let titles = strings("t", (0..n).map(|i| format!("title {i}")));
    let prices = ints("p", (0..n).map(|i| 6 + i));
    let expr = titles.antijoin(
        prices,
        Scalar::cmp(CmpOp::Le, Scalar::attr("p"), Scalar::int(5)),
    );
    let m = check(&expr, &Tuple::empty(), &cat);
    assert_eq!(m.probe_tuples, 0);
    assert_eq!(m.op_count("LoopAntiJoin"), n as u64, "every title survives");
}

/// The same quantifier with its one counterexample on the *last* build
/// row: still decided once, by the build filter — not by scanning to
/// the end of the build for each of the `n` probe tuples.
#[test]
fn a_floor_failing_on_the_last_build_row_is_decided_once() {
    let cat = catalog();
    let n = 64;
    let titles = strings("t", (0..n).map(|i| format!("title {i}")));
    let prices = ints("p", (0..n).map(|i| if i == n - 1 { 1 } else { 6 + i }));
    let expr = titles.antijoin(
        prices,
        Scalar::cmp(CmpOp::Le, Scalar::attr("p"), Scalar::int(5)),
    );
    let m = check(&expr, &Tuple::empty(), &cat);
    assert_eq!(m.probe_tuples, 0);
    assert_eq!(m.op_count("LoopAntiJoin"), 0, "no title survives");
}

/// The q7 shape, `some $t2 in R satisfies $t1 < $t2`: each probe seeks
/// the ordered build and verifies one candidate at most.
#[test]
fn a_range_some_examines_at_most_one_candidate_per_probe() {
    let cat = catalog();
    let n = 64u64;
    let left = strings("t1", (0..n).map(|i| format!("title {:03}", i * 2)));
    let right = strings("t2", (0..n).map(|i| format!("title {:03}", (i * 37) % 100)));
    let expr = left.semijoin(right, Scalar::attr_cmp(CmpOp::Lt, "t1", "t2"));
    let m = check(&expr, &Tuple::empty(), &cat);
    assert!(m.probe_tuples > 0, "the plan does probe");
    assert!(
        m.probe_tuples <= n,
        "{} candidates examined for {n} probe tuples",
        m.probe_tuples
    );
}

/// A numeric probe against a build column holding `"abc"`, `"10"`,
/// `"2"` and NaN: the numeric view orders what parses, the rest can
/// never match, and the inner join still emits in right arrival order.
#[test]
fn a_mixed_type_build_column_is_windowed_numerically() {
    let cat = catalog();
    let right = Expr::Literal(
        ["abc", "10", "2", "NaN", "7", " 3 "]
            .iter()
            .map(|v| Tuple::singleton(Sym::new("k"), Value::str(v)))
            .collect(),
    );
    let left = ints("c", [1, 5, 9, 11].into_iter());
    let expr = left.join(right, Scalar::attr_cmp(CmpOp::Lt, "c", "k"));
    let m = check(&expr, &Tuple::empty(), &cat);
    // c=1 → {10,2,7,3}; 5 → {10,7}; 9 → {10}; 11 → {}: only true
    // matches are examined.
    assert_eq!(m.probe_tuples, 7);
}
