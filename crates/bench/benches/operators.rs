//! Operator micro-benchmarks: the ablations DESIGN.md calls out — hash
//! vs. nested-loop matching, hash vs. definitional grouping — isolating
//! the physical choices behind the §5 speedups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nal::expr::builder::*;
use nal::{CmpOp, Expr, GroupFn, Scalar, Sym, Tuple, Value};
use xmldb::Catalog;

fn int_rel(attr: &str, n: usize, modulo: i64) -> Expr {
    Expr::Literal(
        (0..n)
            .map(|i| Tuple::singleton(Sym::new(attr), Value::Int(i as i64 % modulo)))
            .collect(),
    )
}

fn pair_rel(a: &str, b: &str, n: usize, modulo: i64) -> Expr {
    Expr::Literal(
        (0..n)
            .map(|i| {
                Tuple::from_pairs(vec![
                    (Sym::new(a), Value::Int(i as i64 % modulo)),
                    (Sym::new(b), Value::Int(i as i64)),
                ])
            })
            .collect(),
    )
}

/// Hash semijoin vs. the definitional nested loop on the same inputs.
fn join_ablation(c: &mut Criterion) {
    let cat = Catalog::new();
    let mut group = c.benchmark_group("semijoin_ablation");
    group.sample_size(10);
    for &n in &[200usize, 1000] {
        let l = int_rel("a", n, 64);
        let r = pair_rel("b", "y", n, 64);
        let equi = l
            .clone()
            .semijoin(r.clone(), Scalar::attr_cmp(CmpOp::Eq, "a", "b"));
        let hash_plan = engine::compile(&equi);
        group.bench_with_input(BenchmarkId::new("hash", n), &hash_plan, |bch, plan| {
            bch.iter(|| engine::run_compiled(plan, &cat).expect("runs"))
        });
        // Forcing the loop operator: a non-hashable predicate of equal
        // selectivity (equality spelled as a conjunction of inequalities).
        let loopy = l.clone().semijoin(
            r.clone(),
            Scalar::attr_cmp(CmpOp::Le, "a", "b").and(Scalar::attr_cmp(CmpOp::Ge, "a", "b")),
        );
        let loop_plan = engine::compile(&loopy);
        group.bench_with_input(BenchmarkId::new("loop", n), &loop_plan, |bch, plan| {
            bch.iter(|| engine::run_compiled(plan, &cat).expect("runs"))
        });
    }
    group.finish();
}

/// Hash grouping vs. the θ-grouping fallback (same keys, θ = '=' both
/// semantically).
fn grouping_ablation(c: &mut Criterion) {
    let cat = Catalog::new();
    let mut group = c.benchmark_group("grouping_ablation");
    group.sample_size(10);
    for &n in &[200usize, 1000] {
        let input = pair_rel("b", "y", n, 32);
        let hash = input
            .clone()
            .group_unary("g", &["b"], CmpOp::Eq, GroupFn::count());
        let hash_plan = engine::compile(&hash);
        group.bench_with_input(BenchmarkId::new("hash", n), &hash_plan, |bch, plan| {
            bch.iter(|| engine::run_compiled(plan, &cat).expect("runs"))
        });
        // θ-grouping with Le (superset work of Eq) as the definitional
        // reference point.
        let theta = input
            .clone()
            .group_unary("g", &["b"], CmpOp::Le, GroupFn::count());
        let theta_plan = engine::compile(&theta);
        group.bench_with_input(BenchmarkId::new("theta", n), &theta_plan, |bch, plan| {
            bch.iter(|| engine::run_compiled(plan, &cat).expect("runs"))
        });
    }
    group.finish();
}

/// Ξ with a materialized group attribute vs. the fused group-detecting Ξ
/// (the §5.1 "group Ξ" gain).
fn xi_fusion_ablation(c: &mut Criterion) {
    let cat = Catalog::new();
    let n = 2000usize;
    let input = pair_rel("b", "y", n, 64);
    let grouped = input
        .clone()
        .group_unary("t", &["b"], CmpOp::Eq, GroupFn::project_items("y"))
        .xi(xi_cmds(&["<g>", "$b", ":", "$t", "</g>"]));
    let fused = input.xi_group(
        &["b"],
        xi_cmds(&["<g>", "$b", ":"]),
        xi_cmds(&["$y"]),
        xi_cmds(&["</g>"]),
    );
    let mut group = c.benchmark_group("xi_fusion");
    group.sample_size(10);
    let gp = engine::compile(&grouped);
    let fp = engine::compile(&fused);
    group.bench_function("materialized", |b| {
        b.iter(|| engine::run_compiled(&gp, &cat).expect("runs"))
    });
    group.bench_function("fused", |b| {
        b.iter(|| engine::run_compiled(&fp, &cat).expect("runs"))
    });
    group.finish();
}

/// Scan- vs index-backed quantifier joins on the paper's document
/// workloads: the same semi/anti join plan compiled with `compile` (hash
/// join over a full build-side scan) and with `compile_indexed` (value-
/// index probes, no build side at all).
fn index_ablation(c: &mut Criterion) {
    use ordered_unnesting::workloads::{Q3_EXISTENTIAL, Q5_UNIVERSAL};
    let mut group = c.benchmark_group("index_ablation");
    group.sample_size(10);
    for &n in &[500usize, 2000] {
        let catalog = xmldb::gen::standard_catalog(n, 2, 42);
        for w in [&Q3_EXISTENTIAL, &Q5_UNIVERSAL] {
            let nested = xquery::compile(w.query, &catalog).expect("compiles");
            for p in unnest::enumerate_plans(&nested, &catalog) {
                if !p.label.contains("semijoin") {
                    continue;
                }
                let scan_plan = engine::compile(&p.expr);
                let index_plan = engine::compile_indexed(&p.expr, &catalog);
                group.bench_with_input(
                    BenchmarkId::new(format!("{}-scan", w.id), n),
                    &scan_plan,
                    |bch, plan| bch.iter(|| engine::run_compiled(plan, &catalog).expect("runs")),
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("{}-indexed", w.id), n),
                    &index_plan,
                    |bch, plan| bch.iter(|| engine::run_compiled(plan, &catalog).expect("runs")),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    join_ablation,
    grouping_ablation,
    xi_fusion_ablation,
    index_ablation
);
criterion_main!(benches);
