//! Quantifier semantics and short-circuiting in the pipeline executor.
//!
//! Two families of regression tests:
//!
//! 1. **Vacuous quantifiers** — `some $x in () satisfies p` is false and
//!    `every $x in () satisfies p` is true, end-to-end (algebra level and
//!    XQuery level, engine and reference evaluator).
//! 2. **Short-circuiting** — the semi/anti join cursors stop
//!    probing a tuple's bucket at the deciding match. Observed through
//!    the new per-operator tuple counters (`Metrics::op_tuples`) and the
//!    probe counter (`Metrics::probe_tuples`): on an all-matching
//!    workload the probe count stays *strictly below the input
//!    cardinality*, where a non-short-circuiting nested loop would do
//!    |left| × |right| work; an index join whose decision does not
//!    depend on the probing tuple probes the index once.

use nal::{eval_query, CmpOp, EvalCtx, Expr, Scalar, Sym, Tuple, Value};
use xmldb::gen::{gen_bib, gen_reviews, BibConfig, ReviewsConfig};
use xmldb::Catalog;

fn s(n: &str) -> Sym {
    Sym::new(n)
}

/// The engine's run and the reference evaluator's (`nal::eval_query`):
/// rows and Ξ output of each, labelled.
fn both(expr: &Expr, cat: &Catalog) -> [(&'static str, Vec<Tuple>, String); 2] {
    let run = engine::run(expr, cat).expect("engine runs");
    let mut ctx = EvalCtx::new(cat);
    let rows = eval_query(expr, &mut ctx).expect("reference evaluates");
    [
        ("engine", run.rows, run.output),
        ("reference", rows, ctx.take_output()),
    ]
}

fn int_rel(attr: &str, keys: &[i64]) -> Expr {
    Expr::Literal(
        keys.iter()
            .map(|&k| Tuple::singleton(s(attr), Value::Int(k)))
            .collect(),
    )
    .project_syms(vec![s(attr)])
}

/// The empty single-attribute relation `()` used as a quantifier range.
fn empty_range() -> Expr {
    Expr::Literal(Vec::new()).project_syms(vec![s("x")])
}

// ---------------------------------------------------------------------
// 1. Vacuous quantifiers
// ---------------------------------------------------------------------

#[test]
fn some_over_empty_range_is_false() {
    let cat = Catalog::new();
    let input = int_rel("t", &[1, 2, 3]);
    let expr = input.select(Scalar::Exists {
        var: s("x"),
        range: Box::new(empty_range()),
        pred: Box::new(Scalar::cmp(CmpOp::Gt, Scalar::attr("x"), Scalar::int(0))),
    });
    for (label, rows, _) in both(&expr, &cat) {
        assert!(
            rows.is_empty(),
            "{label}: `some $x in () …` must hold for no tuple, got {rows:?}"
        );
    }
}

#[test]
fn every_over_empty_range_is_true() {
    let cat = Catalog::new();
    let input = int_rel("t", &[1, 2, 3]);
    let expr = input.select(Scalar::Forall {
        var: s("x"),
        range: Box::new(empty_range()),
        pred: Box::new(Scalar::cmp(CmpOp::Gt, Scalar::attr("x"), Scalar::int(0))),
    });
    for (label, rows, _) in both(&expr, &cat) {
        assert_eq!(
            rows.len(),
            3,
            "{label}: `every $x in () …` must hold vacuously for every tuple"
        );
    }
}

/// End-to-end through the XQuery frontend: quantifying over an *empty
/// document sequence* — `reviews.xml` with zero entries.
#[test]
fn vacuous_quantifiers_end_to_end() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 10,
        authors_per_book: 2,
        seed: 5,
        ..BibConfig::default()
    }));
    cat.register(gen_reviews(&ReviewsConfig {
        entries: 0,
        ..ReviewsConfig::default()
    }));

    let some_q = r#"
        let $d1 := doc("bib.xml")
        for $t1 in $d1//book/title
        where some $t2 in document("reviews.xml")//entry/title
              satisfies $t1 = $t2
        return <hit>{ $t1 }</hit>"#;
    let every_q = r#"
        let $d1 := doc("bib.xml")
        for $t1 in $d1//book/title
        where every $t2 in document("reviews.xml")//entry/title
              satisfies $t1 = $t2
        return <hit>{ $t1 }</hit>"#;

    let some_expr = xquery::compile(some_q, &cat).expect("some query compiles");
    let every_expr = xquery::compile(every_q, &cat).expect("every query compiles");

    for ((label, _, some_out), (_, _, every_out)) in both(&some_expr, &cat)
        .into_iter()
        .zip(both(&every_expr, &cat))
    {
        assert!(
            some_out.is_empty(),
            "{label}: `some` over an empty document must select nothing: {some_out}"
        );
        assert_eq!(
            every_out.matches("<hit>").count(),
            10,
            "{label}: `every` over an empty document must select all 10 books"
        );
    }
}

// ---------------------------------------------------------------------
// 2. Short-circuit probing
// ---------------------------------------------------------------------

/// One probe tuple against 1000 matching build tuples: the hash semi
/// join must examine exactly one candidate — strictly fewer tuples
/// probed than the input cardinality.
#[test]
fn hash_semijoin_short_circuits_on_first_match() {
    let cat = Catalog::new();
    let n = 1000usize;
    let left = int_rel("a", &[7]);
    let right = int_rel("b", &vec![7; n]);
    let expr = left.semijoin(right, Scalar::attr_cmp(CmpOp::Eq, "a", "b"));

    let r = engine::run(&expr, &cat).unwrap();
    assert_eq!(r.rows.len(), 1, "the probe tuple matches");
    assert_eq!(
        r.metrics.probe_tuples,
        1,
        "first match decides; the remaining {} bucket entries must not be probed",
        n - 1
    );
    assert!(
        (r.metrics.probe_tuples as usize) < n,
        "strictly fewer tuples probed ({}) than input cardinality ({n})",
        r.metrics.probe_tuples
    );
    // The per-operator tuple counters see one tuple leave the semi join.
    assert_eq!(r.metrics.op_count("HashSemiJoin"), 1);
    // And the reference evaluator agrees on the result.
    let [_, (_, reference, _)] = both(&expr, &cat);
    assert_eq!(reference, r.rows);
}

/// The anti join's deciding event is also the *first* match (which
/// condemns the probe tuple) — same single-probe bound.
#[test]
fn hash_antijoin_short_circuits_on_first_match() {
    let cat = Catalog::new();
    let n = 1000usize;
    let left = int_rel("a", &[7]);
    let right = int_rel("b", &vec![7; n]);
    let expr = left.antijoin(right, Scalar::attr_cmp(CmpOp::Eq, "a", "b"));

    let r = engine::run(&expr, &cat).unwrap();
    assert!(r.rows.is_empty(), "the probe tuple is matched away");
    assert_eq!(
        r.metrics.probe_tuples, 1,
        "first match decides the anti join too"
    );
    assert_eq!(r.metrics.op_count("HashAntiJoin"), 0, "no tuple survives");
}

/// Non-equi predicates take the loop-join path; its semi/anti cursors
/// short-circuit the same way.
#[test]
fn loop_semijoin_short_circuits_on_first_match() {
    let cat = Catalog::new();
    let n = 500usize;
    let left = int_rel("a", &[7]);
    let right = int_rel("b", &vec![9; n]);
    // `a < b` is non-hashable, so this compiles to LoopSemiJoin.
    let expr = left.semijoin(right, Scalar::attr_cmp(CmpOp::Lt, "a", "b"));
    let plan = engine::compile(&expr);
    assert!(
        plan.explain().starts_with("LoopSemiJoin"),
        "{}",
        plan.explain()
    );

    let r = engine::run_compiled(&plan, &cat).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.metrics.probe_tuples, 1, "first passing candidate decides");
    assert!((r.metrics.probe_tuples as usize) < n);
}

/// A multi-tuple probe side: every probe stops at its first match, so
/// total probes equal |left| — not |left| × |right|.
#[test]
fn probe_work_is_linear_in_probe_side() {
    let cat = Catalog::new();
    let l: Vec<i64> = (0..100).map(|i| i % 5).collect();
    let r: Vec<i64> = (0..200).map(|i| i % 5).collect();
    let expr = int_rel("a", &l).semijoin(int_rel("b", &r), Scalar::attr_cmp(CmpOp::Eq, "a", "b"));
    let res = engine::run(&expr, &cat).unwrap();
    assert_eq!(res.rows.len(), 100, "every probe tuple has a match");
    assert_eq!(
        res.metrics.probe_tuples, 100,
        "one probe per left tuple; 100 × 40-entry buckets would be 4000"
    );
}

/// The paper's quantifier workload (§5.3, Q3): the unnested semijoin
/// plan probes strictly fewer tuples than the input
/// cardinality — the acceptance criterion for short-circuiting.
#[test]
fn quantifier_workload_probes_fewer_than_input() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 60,
        authors_per_book: 2,
        seed: 42,
        ..BibConfig::default()
    }));
    cat.register(gen_reviews(&ReviewsConfig {
        entries: 60,
        seed: 42,
        ..ReviewsConfig::default()
    }));
    let q3 = r#"
        let $d1 := document("bib.xml")
        for $t1 in $d1//book/title
        where some $t2 in document("reviews.xml")//entry/title
              satisfies $t1 = $t2
        return <book-with-review>{ $t1 }</book-with-review>"#;
    let nested = xquery::compile(q3, &cat).expect("compiles");
    let plans = unnest::enumerate_plans(&nested, &cat);
    let semijoin = plans
        .iter()
        .find(|p| p.label == "semijoin")
        .expect("Eqv. 6 offers the semijoin plan");

    let titles = 60u64; // one title per book
    let reviews = 60u64; // one entry per review

    let r = engine::run(&semijoin.expr, &cat).expect("runs");
    assert!(r.metrics.probe_tuples > 0, "the plan does probe");
    assert!(
        r.metrics.probe_tuples < titles,
        "probes ({}) must stay strictly below the probe-side cardinality ({titles})",
        r.metrics.probe_tuples
    );
    assert!(
        r.metrics.probe_tuples < titles * reviews,
        "and far below the nested-loop bound"
    );
    // Differential: the plan is still byte-identical to the reference.
    let [_, (_, _, reference)] = both(&semijoin.expr, &cat);
    assert_eq!(reference, r.output);
}

/// Q8's indexed `every` (§5.5-style): its range bounds are constants, so
/// the decision does not depend on the probing title. The index-join
/// cursor probes the value index for the first title and answers every
/// later one from that decision — the lookups stay flat however many
/// titles probe.
#[test]
fn a_probe_invariant_index_join_probes_once() {
    let catalog = xmldb::gen::standard_catalog(120, 2, 5);
    let q8 = &ordered_unnesting::workloads::Q8_RANGE_EVERY;
    let nested = xquery::compile(q8.query, &catalog).expect("compiles");
    let anti = unnest::enumerate_plans(&nested, &catalog)
        .into_iter()
        .find(|p| p.label == "anti-semijoin")
        .expect("Eqv. 7 offers the anti-semijoin plan");
    let plan = engine::compile_indexed(&anti.expr, &catalog);
    let mut invariant = 0;
    engine::for_each_access_path(&plan, &mut |path| {
        if let engine::AccessPathRef::Join(recipe) = path {
            invariant += usize::from(recipe.probe_invariant());
        }
    });
    assert_eq!(invariant, 1, "{}", plan.explain());
    let r = engine::run_compiled(&plan, &catalog).expect("runs");
    let titles = r.metrics.op_count("IndexScan");
    assert!(titles > 1, "the probe side has titles to decide: {titles}");
    // One path-index lookup for the titles' scan, one value-index probe.
    assert_eq!(r.metrics.index_lookups, 2, "{}", plan.explain());
    let [_, (_, _, reference)] = both(&anti.expr, &catalog);
    assert_eq!(r.output, reference);
}
