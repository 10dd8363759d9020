//! Nested blocks on the engine: quantifier ranges and aggregate inputs
//! compiled with the plan and run on the pipeline, every case held to
//! `nal::eval` — rows, Ξ bytes, errors and their text.
//!
//! A range is pulled only as far as the quantifier's decision when
//! nothing the rest of it would do can be observed; the first tests pin
//! the ranges where something can (an error after the witness, Ξ
//! output), which must be drained first exactly as the reference does.

use std::cell::Cell;

use engine::PhysPlan;
use nal::eval::{eval_scalar, Nested, Reference, Scope};
use nal::expr::builder::*;
use nal::expr::visit;
use nal::{
    eval, eval_query, CmpOp, EvalCtx, EvalResult, Expr, Func, GroupFn, Scalar, Seq, Sym, Tuple,
    Value,
};
use xmldb::gen::{gen_bib, BibConfig};
use xmldb::Catalog;

fn s(n: &str) -> Sym {
    Sym::new(n)
}

/// A one-attribute relation.
fn rel(attr: &str, values: &[Value]) -> Expr {
    Expr::Literal(
        values
            .iter()
            .map(|v| Tuple::singleton(s(attr), v.clone()))
            .collect(),
    )
    .project(&[attr])
}

fn ints(values: &[i64]) -> Vec<Value> {
    values.iter().map(|&i| Value::Int(i)).collect()
}

fn exists(var: &str, range: Expr, pred: Scalar) -> Scalar {
    Scalar::Exists {
        var: s(var),
        range: Box::new(range),
        pred: Box::new(pred),
    }
}

fn forall(var: &str, range: Expr, pred: Scalar) -> Scalar {
    Scalar::Forall {
        var: s(var),
        range: Box::new(range),
        pred: Box::new(pred),
    }
}

/// `some` and `every`, as builders.
const QUANTIFIERS: [fn(&str, Expr, Scalar) -> Scalar; 2] = [exists, forall];

/// What a run gives: rows and Ξ bytes, or the error.
type Outcome = EvalResult<(Vec<Tuple>, String)>;

/// The reference's outcome and the engine's.
fn both(expr: &Expr, cat: &Catalog) -> (Outcome, Outcome) {
    let mut ctx = EvalCtx::new(cat);
    let reference = eval_query(expr, &mut ctx).map(|rows| (rows, ctx.take_output()));
    let engine = engine::run(expr, cat).map(|r| (r.rows, r.output));
    (reference, engine)
}

/// Is every nested block of the compiled plan's root selection lazy?
fn root_blocks_lazy(expr: &Expr) -> Vec<bool> {
    match engine::compile(expr) {
        engine::PhysPlan::Select { blocks, .. } => blocks.iter().map(|b| b.lazy).collect(),
        other => panic!("expected a selection at the root:\n{}", other.explain()),
    }
}

/// `x` over 1, then a value `f` cannot take: a witness for `x = t` at
/// `t = 1` comes first, the error after it.
fn erroring_range(f: impl Fn(Scalar) -> Scalar) -> Expr {
    rel("x", &[Value::Int(1), Value::Int(2), Value::str("abc")]).select(Scalar::cmp(
        CmpOp::Ge,
        f(Scalar::attr("x")),
        Scalar::int(0),
    ))
}

#[test]
fn a_range_that_errors_after_its_witness_is_drained_first() {
    let cat = Catalog::new();
    let decimal = |x| Scalar::Call(Func::Decimal, vec![x]);
    let plus_zero = |x| Scalar::Arith(nal::ArithOp::Add, Box::new(x), Box::new(Scalar::int(0)));
    for range in [erroring_range(decimal), erroring_range(plus_zero)] {
        for quantifier in QUANTIFIERS {
            let pred = Scalar::attr_cmp(CmpOp::Eq, "x", "t");
            let expr = rel("t", &ints(&[1])).select(quantifier("x", range.clone(), pred));
            assert_eq!(root_blocks_lazy(&expr), [false], "{expr}");
            let (reference, engine) = both(&expr, &cat);
            let (Err(want), Err(got)) = (&reference, &engine) else {
                panic!("{expr}: reference {reference:?}, engine {engine:?}");
            };
            assert_eq!(got.message, want.message, "{expr}");
        }
    }
}

#[test]
fn a_range_that_writes_xi_gives_identical_bytes() {
    let cat = Catalog::new();
    let range = rel("x", &ints(&[1, 2, 3]))
        .xi(xi_cmds(&["<x>", "$x", "</x>"]))
        .project(&["x"]);
    for quantifier in QUANTIFIERS {
        // ∃ decides at the first row, ∀ at the second, the third or
        // never: the reference writes the whole range every time.
        let pred = Scalar::attr_cmp(CmpOp::Le, "x", "t");
        let expr = rel("t", &ints(&[1, 2, 9]))
            .select(quantifier("x", range.clone(), pred))
            .xi(xi_cmds(&["<t>", "$t", "</t>"]));
        let (reference, engine) = both(&expr, &cat);
        let (reference, engine) = (reference.unwrap(), engine.unwrap());
        assert!(reference.1.matches("<x>").count() >= 9, "{}", reference.1);
        assert_eq!(engine, reference, "{expr}");
    }
}

#[test]
fn empty_ranges_make_some_false_and_every_true() {
    let cat = Catalog::new();
    let pred = Scalar::attr_cmp(CmpOp::Eq, "x", "t");
    // Empty as written, and empty after a filter that forces the drain.
    let filtered = rel("x", &ints(&[1, 2])).select(Scalar::cmp(
        CmpOp::Lt,
        Scalar::Arith(
            nal::ArithOp::Mul,
            Box::new(Scalar::attr("x")),
            Box::new(Scalar::int(0)),
        ),
        Scalar::int(0),
    ));
    for (range, lazy) in [(rel("x", &[]), true), (filtered, false)] {
        for (quantifier, holds) in QUANTIFIERS.into_iter().zip([false, true]) {
            let expr =
                rel("t", &ints(&[1, 2, 3])).select(quantifier("x", range.clone(), pred.clone()));
            assert_eq!(root_blocks_lazy(&expr), [lazy], "{expr}");
            let (reference, engine) = both(&expr, &cat);
            let (reference, engine) = (reference.unwrap(), engine.unwrap());
            assert_eq!(engine, reference, "{expr}");
            assert_eq!(engine.0.len(), if holds { 3 } else { 0 }, "{expr}");
        }
    }
}

#[test]
fn blocks_nest_two_deep() {
    let cat = Catalog::new();
    let t = || rel("t", &ints(&[0, 1, 2, 3, 4]));
    let xs = || rel("x", &ints(&[1, 2, 3, 4]));
    let ys = || rel("y", &ints(&[2, 3, 5]));
    // every x in (x ∈ xs where some y in ys satisfies y = x) satisfies x > t
    let inner_exists = exists("y", ys(), Scalar::attr_cmp(CmpOp::Eq, "y", "x"));
    let every = forall(
        "x",
        xs().select(inner_exists),
        Scalar::attr_cmp(CmpOp::Gt, "x", "t"),
    );
    // some x in (x ∈ xs where count(y ∈ ys where y < x) >= 1) satisfies x > t
    let count_below = Scalar::Agg {
        f: GroupFn::count(),
        input: Box::new(ys().select(Scalar::attr_cmp(CmpOp::Lt, "y", "x"))),
    };
    let some = exists(
        "x",
        xs().select(Scalar::cmp(CmpOp::Ge, count_below, Scalar::int(1))),
        Scalar::attr_cmp(CmpOp::Gt, "x", "t"),
    );
    // Neither range reads `t`: each is one shared subtree, drained once
    // for all five `t`, so its inner block runs once per x (4), not once
    // per (t, x) (20) as in the reference — 5 outer quantifiers + 4.
    for (pred, expected) in [(every, 2), (some, 4)] {
        let expr = t().select(pred);
        // A range with a block inside cannot be cut short.
        assert_eq!(root_blocks_lazy(&expr), [false], "{expr}");
        assert_eq!(engine::compile(&expr).detail(), " shared{σ}", "{expr}");
        let mut ctx = EvalCtx::new(&cat);
        let reference = eval_query(&expr, &mut ctx).unwrap();
        let run = engine::run(&expr, &cat).unwrap();
        assert_eq!(run.rows, reference, "{expr}");
        assert_eq!(run.rows.len(), expected, "{expr}");
        assert_eq!(ctx.metrics.nested_evals, 5 * (1 + 4), "{expr}");
        assert_eq!(run.metrics.nested_evals, 5 + 4, "{expr}");
    }
    // The same `every` with its inner ∃ reading `t`: the range is
    // correlated and runs per t, its inner block per (t, x), exactly as
    // in the reference.
    let correlated = exists(
        "y",
        ys(),
        Scalar::attr_cmp(CmpOp::Eq, "y", "x").and(Scalar::attr_cmp(CmpOp::Ge, "y", "t")),
    );
    let expr = t().select(forall(
        "x",
        xs().select(correlated),
        Scalar::attr_cmp(CmpOp::Gt, "x", "t"),
    ));
    assert_eq!(engine::compile(&expr).detail(), " shared{Π}", "{expr}");
    let mut ctx = EvalCtx::new(&cat);
    let reference = eval_query(&expr, &mut ctx).unwrap();
    let run = engine::run(&expr, &cat).unwrap();
    assert_eq!(run.rows, reference, "{expr}");
    assert_eq!(run.metrics.nested_evals, ctx.metrics.nested_evals, "{expr}");
    assert_eq!(run.metrics.nested_evals, 5 * (1 + 4), "{expr}");
}

/// `x` over `values`, each tuple surviving `(x + 0) >= 0` — arithmetic,
/// so a quantifier drains it — or, `lazy`, the replay-safe `x >= 0`.
fn filtered(values: &[Value], lazy: bool) -> Expr {
    let x = match lazy {
        true => Scalar::attr("x"),
        false => Scalar::Arith(
            nal::ArithOp::Add,
            Box::new(Scalar::attr("x")),
            Box::new(Scalar::int(0)),
        ),
    };
    Expr::Literal(
        values
            .iter()
            .map(|v| Tuple::singleton(s("x"), v.clone()))
            .collect(),
    )
    .select(Scalar::cmp(CmpOp::Ge, x, Scalar::int(0)))
}

/// χ[c: some x in `range` satisfies x = t] over t ∈ `outer`: the only
/// selection is the range's.
fn per_outer_tuple(outer: &[i64], range: Expr) -> Expr {
    let t = Expr::Literal(
        outer
            .iter()
            .map(|&t| Tuple::singleton(s("t"), Value::Int(t)))
            .collect(),
    );
    t.map(
        "c",
        exists("x", range, Scalar::attr_cmp(CmpOp::Eq, "x", "t")),
    )
}

#[test]
fn an_invariant_range_runs_once_for_every_outer_tuple() {
    let cat = Catalog::new();
    for outer in [&[2][..], &[2, 9, 4, 1, 2], &[9; 7]] {
        let expr = per_outer_tuple(outer, filtered(&ints(&[1, -1, 3, 4]), false));
        assert_eq!(engine::compile(&expr).detail(), "[c] shared{σ}", "{expr}");
        let (reference, engine) = both(&expr, &cat);
        assert_eq!(engine, reference, "{expr}");
        // The range's literal and σ count one evaluation's tuples, what
        // the outer tuples number notwithstanding.
        let run = engine::run(&expr, &cat).unwrap();
        let n = outer.len() as u64;
        let counts: Vec<_> = run.metrics.op_tuples.iter().collect();
        assert_eq!(
            counts,
            [("Literal", n + 4), ("Map", n), ("Select", 3)],
            "{expr}"
        );
    }
}

#[test]
fn a_lazy_range_pulls_only_as_far_as_its_furthest_outer_tuple() {
    let cat = Catalog::new();
    // The witness of t = 1 is the range's first row, of t = 3 its third.
    for (outer, pulled) in [(&[1][..], 1), (&[1, 1, 1], 1), (&[1, 3, 1], 3), (&[7], 4)] {
        let expr = per_outer_tuple(outer, filtered(&ints(&[1, 2, 3, 4]), true));
        let plan = engine::compile(&expr);
        assert_eq!(plan.detail(), "[c] shared{σ}", "{expr}");
        let PhysPlan::Map { blocks, .. } = &plan else {
            panic!("{}", plan.explain());
        };
        assert!(blocks.iter().all(|b| b.lazy), "{expr}");
        let (reference, engine) = both(&expr, &cat);
        assert_eq!(engine, reference, "{expr}");
        let run = engine::run_compiled(&plan, &cat).unwrap();
        assert_eq!(run.metrics.op_count("Select"), pulled, "{expr}");
    }
}

#[test]
fn an_xi_writing_range_is_not_shared() {
    let cat = Catalog::new();
    let range = rel("x", &ints(&[1, 2, 3]))
        .xi(xi_cmds(&["<x>", "$x", "</x>"]))
        .project(&["x"]);
    let expr = per_outer_tuple(&[1, 2, 9, 4], range);
    // Only the projection below the Ξ is shared; the Ξ runs per outer
    // tuple, writing its bytes each time, as the reference does.
    assert_eq!(engine::compile(&expr).detail(), "[c] shared{Π}", "{expr}");
    let (reference, engine) = both(&expr, &cat);
    let (reference, engine) = (reference.unwrap(), engine.unwrap());
    assert_eq!(reference.1.matches("<x>").count(), 4 * 3, "{}", reference.1);
    assert_eq!(engine, reference, "{expr}");
}

/// A selection on `t` over a relation whose `t` was dropped below it
/// reads the outer `t`: it is correlated, and only what is under the
/// drop is shared — whether the drop is folded into the χ that binds
/// `t` or is a Π of its own.
#[test]
fn a_dropped_attribute_the_outer_scope_binds_is_an_outer_read() {
    let cat = Catalog::new();
    let with_t = Expr::Literal(
        (1..=3)
            .map(|x| Tuple::from_pairs(vec![(s("x"), Value::Int(x)), (s("t"), Value::Int(2))]))
            .collect(),
    );
    let folded = rel("x", &ints(&[1, 2, 3])).map("t", Scalar::int(2));
    for (below, shared) in [(folded, " shared{χ[t]}"), (with_t, " shared{Π}")] {
        let range = below
            .drop_attrs(&["t"])
            .select(Scalar::attr_cmp(CmpOp::Eq, "x", "t"))
            .project(&["x"]);
        let expr = rel("t", &ints(&[1, 2, 5])).select(exists("x", range, Scalar::attr("x")));
        assert_eq!(engine::compile(&expr).detail(), shared, "{expr}");
        let (reference, engine) = both(&expr, &cat);
        let reference = reference.unwrap();
        assert_eq!(reference.0.len(), 2, "t = 1 and t = 2 have a witness");
        assert_eq!(engine.unwrap(), reference, "{expr}");
    }
}

#[test]
fn an_erroring_invariant_range_fails_as_in_the_reference_and_only_when_reached() {
    let cat = Catalog::new();
    let decimal = |x| Scalar::Call(Func::Decimal, vec![x]);
    let range = || erroring_range(decimal);
    for quantifier in QUANTIFIERS {
        let pred = Scalar::attr_cmp(CmpOp::Eq, "x", "t");
        let expr = rel("t", &ints(&[1, 2])).select(quantifier("x", range(), pred.clone()));
        assert_eq!(engine::compile(&expr).detail(), " shared{σ}", "{expr}");
        let (reference, engine) = both(&expr, &cat);
        let (Err(want), Err(got)) = (&reference, &engine) else {
            panic!("{expr}: reference {reference:?}, engine {engine:?}");
        };
        assert_eq!(got.message, want.message, "{expr}");
        // No outer tuple: the range is never started.
        let expr = Expr::Literal(vec![]).select(quantifier("x", range(), pred));
        let (reference, engine) = both(&expr, &cat);
        assert_eq!(engine, reference, "{expr}");
        let run = engine::run(&expr, &cat).unwrap();
        assert_eq!(run.metrics.tuples_produced, 0, "{expr}");
    }
}

/// A spool lives for one execution: a cached plan run again after an
/// update sees the new rows.
#[test]
fn a_cached_plan_sees_an_update_between_runs() {
    let mut cat = Catalog::new();
    let doc = cat.register(xmldb::parse_document("r.xml", "<r><x>1</x><x>2</x></r>").unwrap());
    let range = doc_scan("d", "r.xml")
        .unnest_map(
            "x",
            Scalar::attr("d").path(xpath::parse_path("//x").unwrap()),
        )
        .project(&["x"]);
    let expr = rel("t", &ints(&[1, 2, 3])).select(exists(
        "x",
        range,
        Scalar::attr_cmp(CmpOp::Eq, "x", "t"),
    ));
    let plan = engine::compile(&expr);
    assert_eq!(plan.detail(), " shared{Υ[x]}");
    let run = |cat: &Catalog| {
        let (reference, _) = both(&expr, cat);
        let run = engine::run_compiled(&plan, cat).unwrap();
        assert_eq!((run.rows.clone(), run.output), reference.unwrap());
        run.rows.len()
    };
    assert_eq!(run(&cat), 2);
    let frag = xmldb::parse_document("frag", "<x>3</x>").unwrap();
    let root = cat.doc(doc).root_element().unwrap();
    cat.insert_subtree(doc, root, None, &frag, frag.root_element().unwrap())
        .unwrap();
    assert_eq!(run(&cat), 3);
}

/// [`Reference`], counting the rows it materializes.
struct Counting(Cell<usize>);

impl Nested for Counting {
    fn rows(&self, block: &Expr, scope: &Scope<'_>, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
        let rows = Reference.rows(block, scope, ctx)?;
        self.0.set(self.0.get() + rows.len());
        Ok(rows)
    }
}

/// The paper's q4 (§5.4): the nested plan's range is decided at its
/// first witness, so the engine pulls strictly fewer range tuples than
/// the reference evaluator materializes.
#[test]
fn q4_pulls_fewer_range_tuples_than_the_reference_materializes() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 30,
        authors_per_book: 3,
        seed: 4,
        ..BibConfig::default()
    }));
    let nested = xquery::compile(Q4, &cat).expect("q4 compiles");
    // The selection deciding the quantifier, and its input.
    let mut found = None;
    visit::walk(&nested, &mut |e| {
        if let Expr::Select { input, pred } = e {
            if matches!(pred, Scalar::Exists { .. }) {
                found = Some((input.as_ref().clone(), pred.clone()));
            }
        }
    });
    let (outer, pred) = found.expect("q4's nested plan has an ∃ selection");

    let mut ctx = EvalCtx::new(&cat);
    let counting = Counting(Cell::new(0));
    let mut selected = 0;
    for t in eval(&outer, &Tuple::empty(), &mut ctx).unwrap() {
        let holds = eval_scalar(&pred, &Scope::of(&t), &counting, &mut ctx).unwrap();
        selected += usize::from(holds == Value::Bool(true));
    }
    let materialized = counting.0.get();

    let plan = engine::compile(&nested);
    assert!(!plan.explain().contains("Project"), "{}", plan.explain());
    let run = engine::run_compiled(&plan, &cat).unwrap();
    assert_eq!(run.rows.len(), selected);
    let mut ctx = EvalCtx::new(&cat);
    eval_query(&nested, &mut ctx).unwrap();
    assert_eq!(run.output, ctx.take_output());
    // The range's root is its Π: every range tuple the quantifiers pulled.
    let pulled = run.metrics.op_count("Project") as usize;
    assert!(
        0 < pulled && pulled < materialized,
        "pulled {pulled} range tuples, the reference materialized {materialized}"
    );
}

/// The paper's §5.4 query, as `ordered_unnesting::workloads` states it.
const Q4: &str = r#"
        let $d1 := doc("bib.xml")
        for $b1 in $d1//book,
            $a1 in $b1/author
        where exists(
            let $d2 := doc("bib.xml")
            for $b2 in $d2//book,
                $a2 in $b2/author
            where contains($a2, "an") and $b1 = $b2
            return $b2)
        return
          <book>{ $a1 }</book>"#;

/// The unbound-attribute message shows the flattened scope — byte for
/// byte what the reference's concatenated environment printed.
#[test]
fn an_unbound_attribute_inside_a_block_errs_as_in_the_reference() {
    let cat = Catalog::new();
    let range = rel("x", &ints(&[1, 2])).select(Scalar::attr_cmp(CmpOp::Eq, "x", "missing"));
    let expr = rel("t", &ints(&[7])).select(exists("x", range, Scalar::attr("t")));
    let (reference, engine) = both(&expr, &cat);
    let want = reference.unwrap_err();
    assert_eq!(engine.unwrap_err().message, want.message);
    assert!(
        want.message.contains("(env [t: 7, x: 1])"),
        "{}",
        want.message
    );
}
