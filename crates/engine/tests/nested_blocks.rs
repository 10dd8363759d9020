//! Nested blocks on the engine: quantifier ranges and aggregate inputs
//! compiled with the plan and run on the pipeline, every case held to
//! `nal::eval` — rows, Ξ bytes, errors and their text.
//!
//! A range is pulled only as far as the quantifier's decision when
//! nothing the rest of it would do can be observed; the first tests pin
//! the ranges where something can (an error after the witness, Ξ
//! output), which must be drained first exactly as the reference does.

// The reference evaluator is this file's oracle.
#![allow(clippy::disallowed_methods)]

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

/// A quantifier's builder.
type Quantifier = fn(&str, Expr, Scalar) -> Scalar;

/// `some` and `every`, as builders.
const QUANTIFIERS: [Quantifier; 2] = [exists, forall];

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
    // The ∃'s range is indexed on `x > t`, the ∀'s is not.
    let marks = [" shared{σ}", " shared{σ ∃ indexed(x >)}"];
    for ((pred, expected), mark) in [(every, 2), (some, 4)].into_iter().zip(marks) {
        let expr = t().select(pred);
        // A range with a block inside cannot be cut short.
        assert_eq!(root_blocks_lazy(&expr), [false], "{expr}");
        assert_eq!(engine::compile(&expr).detail(), mark, "{expr}");
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

/// χ[c: `quantifier` x in `range` satisfies x `op` t] over t ∈ `outer`:
/// the only selection is the range's.
fn per_outer_tuple(outer: &[i64], quantifier: Quantifier, op: CmpOp, range: Expr) -> Expr {
    let t = Expr::Literal(
        outer
            .iter()
            .map(|&t| Tuple::singleton(s("t"), Value::Int(t)))
            .collect(),
    );
    t.map("c", quantifier("x", range, Scalar::attr_cmp(op, "x", "t")))
}

#[test]
fn an_invariant_range_runs_once_for_every_outer_tuple() {
    let cat = Catalog::new();
    for outer in [&[2][..], &[2, 9, 4, 1, 2], &[9; 7]] {
        let range = filtered(&ints(&[1, -1, 3, 4]), false);
        let expr = per_outer_tuple(outer, exists, CmpOp::Eq, range);
        assert_eq!(
            engine::compile(&expr).detail(),
            "[c] shared{σ ∃ indexed(x =)}",
            "{expr}"
        );
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

/// A lazy range that every outer tuple replays — a ∀'s, whose range is
/// never probed — is pulled only as far as its furthest outer tuple's
/// decision. An ∃ over an indexed spool pulls as far on its first pass,
/// and fills the spool on its second, to probe it.
#[test]
fn a_lazy_range_pulls_only_as_far_as_its_furthest_outer_tuple() {
    let cat = Catalog::new();
    // The counterexample of t = 1 to x ≠ t, and the witness of x = t, is
    // the range's first row; of t = 3 its third.
    let cases = [
        (&[1][..], 1, 1, 0),
        (&[1, 1, 1], 1, 4, 2),
        (&[1, 3, 1], 3, 4, 2),
        (&[7], 4, 4, 0),
    ];
    let forms: [(Quantifier, _, _); 2] = [
        (forall, CmpOp::Ne, "[c] shared{σ}"),
        (exists, CmpOp::Eq, "[c] shared{σ ∃ indexed(x =)}"),
    ];
    for (outer, replayed, indexed, probes) in cases {
        for ((quantifier, op, mark), (pulled, probes)) in
            forms.into_iter().zip([(replayed, 0), (indexed, probes)])
        {
            let range = filtered(&ints(&[1, 2, 3, 4]), true);
            let expr = per_outer_tuple(outer, quantifier, op, range);
            let plan = engine::compile(&expr);
            assert_eq!(plan.detail(), mark, "{expr}");
            let PhysPlan::Map { blocks, .. } = &plan else {
                panic!("{}", plan.explain());
            };
            assert!(blocks.iter().all(|b| b.lazy), "{expr}");
            let (reference, engine) = both(&expr, &cat);
            assert_eq!(engine, reference, "{expr}");
            let run = engine::run_compiled(&plan, &cat).unwrap();
            assert_eq!(run.metrics.op_count("Select"), pulled, "{expr}");
            assert_eq!(run.metrics.spool_probes, probes, "{expr}");
        }
    }
}

#[test]
fn an_xi_writing_range_is_not_shared() {
    let cat = Catalog::new();
    let range = rel("x", &ints(&[1, 2, 3]))
        .xi(xi_cmds(&["<x>", "$x", "</x>"]))
        .project(&["x"]);
    let expr = per_outer_tuple(&[1, 2, 9, 4], exists, CmpOp::Eq, range);
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
    for (below, shared) in [
        (folded, " shared{χ[t] indexed(x =)}"),
        (with_t, " shared{Π indexed(x =)}"),
    ] {
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
    let marks = [" shared{σ ∃ indexed(x =)}", " shared{σ}"];
    for (quantifier, mark) in QUANTIFIERS.into_iter().zip(marks) {
        let pred = Scalar::attr_cmp(CmpOp::Eq, "x", "t");
        let expr = rel("t", &ints(&[1, 2])).select(quantifier("x", range(), pred.clone()));
        assert_eq!(engine::compile(&expr).detail(), mark, "{expr}");
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
    assert_eq!(plan.detail(), " shared{Υ[x] ∃ indexed(x =)}");
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

/// The compiled blocks of the first selection in `plan` that has any.
fn select_blocks(plan: &PhysPlan) -> Option<(&PhysPlan, Vec<&engine::nested::Block>)> {
    if let PhysPlan::Select { blocks, .. } = plan {
        if blocks.iter().next().is_some() {
            return Some((plan, blocks.iter().collect()));
        }
    }
    plan.children().into_iter().find_map(select_blocks)
}

/// q4's block is `σ[contains(a2, "an") ∧ b1 = b2]` over the invariant
/// `Υ[a2](Υ[b2](…))`: the closed conjunct moves into a σ below the
/// correlated one, and that σ is the spooled subtree — so the conjunct
/// runs once per execution, and `b1 = b2` only ever sees authors
/// containing "an".
#[test]
fn q4_filters_its_invariant_conjunct_once_in_the_spool() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 30,
        authors_per_book: 3,
        seed: 4,
        ..BibConfig::default()
    }));
    let nested = xquery::compile(Q4, &cat).expect("q4 compiles");
    let plan = engine::compile(&nested);
    let (holder, blocks) = select_blocks(&plan).expect("q4 has a block");
    assert_eq!(
        holder.detail(),
        " shared{σ indexed(b2 =)}",
        "{}",
        plan.explain()
    );
    let [block] = blocks[..] else {
        panic!("one block: {}", plan.explain());
    };
    let [spooled] = block.shared()[..] else {
        panic!("one shared subtree");
    };
    let PhysPlan::Select { pred, input, .. } = spooled else {
        panic!("the spooled subtree is a σ: {}", spooled.explain());
    };
    assert_eq!(pred.to_string(), r#"contains(a2, "an")"#);
    assert!(!input.explain().contains("Select"), "{}", input.explain());
    // The correlated σ keeps `b1 = b2` alone, over the spool.
    let mut correlated = None;
    visit_plan(&block.plan, &mut |node| {
        if let PhysPlan::Select { pred, input, .. } = node {
            if std::ptr::eq(&**input, spooled) {
                correlated = Some(pred.to_string());
            }
        }
    });
    assert_eq!(correlated.as_deref(), Some("b1 = b2"));
    // Every row the spool replays holds the conjunct.
    let rows = engine::run_compiled(spooled, &cat).unwrap().rows;
    assert!(!rows.is_empty());
    for row in &rows {
        let author = row.get(s("a2")).expect("a2 bound").atomize(&cat);
        assert!(author.as_str_lossy().contains("an"), "{author}");
    }
    let (reference, engine) = both(&nested, &cat);
    assert_eq!(engine.unwrap(), reference.unwrap());
}

/// Visit `plan`'s nodes in pre-order.
fn visit_plan<'p>(plan: &'p PhysPlan, f: &mut impl FnMut(&'p PhysPlan)) {
    f(plan);
    for child in plan.children() {
        visit_plan(child, f);
    }
}

/// `(x, y)` rows: `y` is a number where `x` is 1 or 2, and "abc" —
/// which `decimal` fails on — where `x` is 3.
fn xy_rows() -> Expr {
    let rows = [
        (1, Value::Int(5)),
        (2, Value::Int(-7)),
        (3, Value::str("abc")),
    ];
    Expr::Literal(
        rows.into_iter()
            .map(|(x, y)| Tuple::from_pairs(vec![(s("x"), Value::Int(x)), (s("y"), y)]))
            .collect(),
    )
}

/// `some x in σ[pred](xy_rows) satisfies x >= 0` over t ∈ `outer`.
fn xy_block(outer: &[i64], pred: Scalar) -> Expr {
    let range = xy_rows().select(pred).project(&["x"]);
    rel("t", &ints(outer)).select(exists("x", range, Scalar::attr("x")))
}

fn decimal_y_positive() -> Scalar {
    Scalar::cmp(
        CmpOp::Gt,
        Scalar::Call(Func::Decimal, vec![Scalar::attr("y")]),
        Scalar::int(0),
    )
}

/// A closed conjunct that can fail stays behind a correlated one it
/// follows: `decimal(y)` fails only on the row where `x ≠ t` for every
/// `t` but 3, so hoisting it would raise an error the reference never
/// does.
#[test]
fn a_failing_closed_conjunct_stays_behind_a_correlated_one() {
    let cat = Catalog::new();
    let pred = Scalar::attr_cmp(CmpOp::Eq, "x", "t").and(decimal_y_positive());
    for (outer, fails) in [(&[1, 2][..], false), (&[1, 3], true)] {
        let expr = xy_block(outer, pred.clone());
        // The σ stays whole and correlated; a bare literal is not shared.
        assert_eq!(engine::compile(&expr).detail(), "", "{expr}");
        let (reference, engine) = both(&expr, &cat);
        match (&reference, &engine) {
            (Err(want), Err(got)) if fails => assert_eq!(got.message, want.message, "{expr}"),
            (Ok(want), Ok(got)) if !fails => {
                assert_eq!(got, want, "{expr}");
                assert_eq!(got.0.len(), 1, "only t = 1 has a positive y");
            }
            _ => panic!("{expr}: reference {reference:?}, engine {engine:?}"),
        }
    }
}

/// The converse: a total closed conjunct after a correlated one, and a
/// failing one that leads the conjunction, are both evaluated in the
/// spool, once per row of the range rather than once per outer tuple.
#[test]
fn closed_conjuncts_that_keep_errors_in_place_are_hoisted() {
    let cat = Catalog::new();
    let x_is_t = || Scalar::attr_cmp(CmpOp::Eq, "x", "t");
    let y_positive = Scalar::cmp(CmpOp::Gt, Scalar::attr("y"), Scalar::int(0));
    let total_after = x_is_t().and(y_positive);
    let failing_first = decimal_y_positive().and(x_is_t());
    for pred in [total_after, failing_first] {
        let fails = pred.to_string().contains("decimal");
        let expr = xy_block(&[1, 2, 1, 9], pred);
        assert_eq!(
            engine::compile(&expr).detail(),
            " shared{σ indexed(x =)}",
            "{expr}"
        );
        let (reference, engine) = both(&expr, &cat);
        match (&reference, &engine) {
            (Err(want), Err(got)) if fails => assert_eq!(got.message, want.message, "{expr}"),
            (Ok(want), Ok(got)) if !fails => {
                assert_eq!(got, want, "{expr}");
                // The hoisted σ filtered the three rows once: the
                // correlated σ saw row 1 only, per outer tuple.
                let run = engine::run(&expr, &cat).unwrap();
                assert_eq!(run.rows.len(), 2, "{expr}");
                assert_eq!(run.metrics.op_count("Literal"), 4 + 3, "{expr}");
            }
            _ => panic!("{expr}: reference {reference:?}, engine {engine:?}"),
        }
    }
}

/// The values an indexed spool's keys and probes are drawn from, by
/// name; `None` is a missing attribute. The node's text, "2.0", is
/// stored in two pieces.
fn key_pool(cat: &mut Catalog) -> Vec<(&'static str, Option<Value>)> {
    let doc = cat
        .register(xmldb::parse_document("mixed.xml", "<r><a><l>2</l><f>.0</f></a></r>").unwrap());
    let tree = cat.doc(doc);
    let a = tree
        .descendants(xmldb::NodeId::DOCUMENT)
        .find(|&n| tree.node_name(n) == Some("a"))
        .unwrap();
    vec![
        ("1", Some(Value::Int(1))),
        ("2", Some(Value::Int(2))),
        ("2.0", Some(Value::Dec(nal::Dec(2.0)))),
        ("\"2\"", Some(Value::str("2"))),
        ("\"2.0\"", Some(Value::str("2.0"))),
        ("\"a\"", Some(Value::str("a"))),
        ("NaN", Some(Value::Dec(nal::Dec(f64::NAN)))),
        ("NULL", Some(Value::Null)),
        ("()", Some(Value::items(vec![]))),
        ("(1, 2)", Some(Value::items(ints(&[1, 2])))),
        ("node", Some(Value::Node(nal::NodeRef { doc, node: a }))),
        ("missing", None),
    ]
}

/// `Π[k, n]` over one row per pool value `keep` takes — `k` the value,
/// absent where it is missing, `n` its position: a shared subtree.
fn keyed_spool(pool: &[(&str, Option<Value>)], keep: impl Fn(&Option<Value>) -> bool) -> Expr {
    let rows = pool.iter().enumerate().filter(|(_, (_, k))| keep(k));
    let rows = rows.map(|(n, (_, k))| {
        let n = (s("n"), Value::Int(n as i64));
        match k {
            Some(k) => Tuple::from_pairs(vec![(s("k"), k.clone()), n]),
            None => Tuple::from_pairs(vec![n]),
        }
    });
    Expr::Literal(rows.collect()).project(&["k", "n"])
}

/// Three outer tuples binding `o` to `probe` (or, missing, only `z`).
fn probing(probe: &Option<Value>) -> Expr {
    let t = match probe {
        Some(v) => Tuple::singleton(s("o"), v.clone()),
        None => Tuple::singleton(s("z"), Value::Int(0)),
    };
    Expr::Literal(vec![t; 3])
}

/// A correlated σ over a spool, probed per outer tuple by the value of
/// `o`, against `nal::eval`: its rows, in order (χ of the σ's whole
/// output), its ∃ (a lazy range), and its errors, for `o θ k`, `k θ o`,
/// `o ∈ k` and `k ∈ o` and every pool value as `o`, over three spools:
/// every key, whose typed numbers leave a text probe to replay; the
/// untyped keys (text, the node, NULL, `()`), which a text probe finds
/// in the text view; and every key with one missing, where `k` is not
/// sure to be bound and the σ replays. The first two are indexed and
/// probed from the second outer tuple on. Over the third the ∃ drains
/// its range — its rows may lack `k` — and fails on the row without it
/// as the reference does.
#[test]
fn indexed_spools_answer_every_probe_as_the_reference() {
    let mut cat = Catalog::new();
    let pool = key_pool(&mut cat);
    let (o, k) = (|| Scalar::attr("o"), || Scalar::attr("k"));
    let mut preds = Vec::new();
    for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
        let mark = format!("k {}", op.flip().symbol());
        preds.push((Scalar::cmp(op, o(), k()), mark));
        preds.push((Scalar::cmp(op, k(), o()), format!("k {}", op.symbol())));
    }
    let member = |x: Scalar, y: Scalar| Scalar::In(Box::new(x), Box::new(y));
    preds.push((member(o(), k()), "k ∈".to_string()));
    preds.push((member(k(), o()), "k ∈".to_string()));
    let untyped = |k: &Value| matches!(k, Value::Str(_) | Value::Node(_)) || k.is_empty_seq();
    let spools = [
        (keyed_spool(&pool, Option::is_some), true),
        (
            keyed_spool(&pool, |k| k.as_ref().is_some_and(untyped)),
            true,
        ),
        (keyed_spool(&pool, |_| true), false),
    ];
    let mut probes = [0; 3];
    for (pred, mark) in &preds {
        for ((spool, indexed), probes) in spools.iter().zip(&mut probes) {
            let block = spool.clone().select(pred.clone());
            let shared = match indexed {
                true => format!("shared{{Π indexed({mark})}}"),
                false => "shared{Π}".to_string(),
            };
            for (name, probe) in &pool {
                let outer = probing(probe);
                let rows = Scalar::Agg {
                    f: GroupFn::id(),
                    input: Box::new(block.clone()),
                };
                let some = exists("y", block.clone().project(&["n"]), Scalar::attr("y"));
                for expr in [outer.clone().map("m", rows), outer.select(some)] {
                    let plan = engine::compile(&expr);
                    let detail = plan.detail();
                    assert!(detail.ends_with(&shared), "{expr}: {detail}");
                    let (reference, engine) = both(&expr, &cat);
                    assert_eq!(engine, reference, "{expr} with o = {name}");
                    *probes +=
                        engine::run_compiled(&plan, &cat).map_or(0, |run| run.metrics.spool_probes);
                }
            }
        }
    }
    // Both indexed spools answered most probes (a sequence, a boolean,
    // a text against typed numbers or an unbound `o` has no window);
    // the third never probes.
    assert!(
        probes[0] > 100 && probes[1] > 100 && probes[2] == 0,
        "{probes:?}"
    );
}

/// The ∃ form of the matrix: `some q in Π[k](spool) satisfies side θ q`,
/// alone and followed by `decimal(q) >= 0` (which fails on text and
/// sequences, so an error surfaces only from a row the ∃ reaches), for
/// `o θ q`, `q θ o`, `o ∈ q` and `q ∈ o` and every pool value as `o`,
/// over the same three spools, against `nal::eval`: rows and Ξ bytes
/// (χ of the verdict per outer tuple, written out), and errors. The
/// first two spools are indexed for the ∃ and probed from the second
/// outer tuple on. In the third a row lacks `k`: binding `q` fails on it,
/// so the ∃ replays and fails there as the reference does.
#[test]
fn an_exists_over_an_indexed_range_answers_every_probe_as_the_reference() {
    let mut cat = Catalog::new();
    let pool = key_pool(&mut cat);
    let (o, q) = (|| Scalar::attr("o"), || Scalar::attr("q"));
    let mut keys = Vec::new();
    for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
        keys.push((
            Scalar::cmp(op, o(), q()),
            format!("k {}", op.flip().symbol()),
        ));
        keys.push((Scalar::cmp(op, q(), o()), format!("k {}", op.symbol())));
    }
    let member = |x: Scalar, y: Scalar| Scalar::In(Box::new(x), Box::new(y));
    keys.push((member(o(), q()), "k ∈".to_string()));
    keys.push((member(q(), o()), "k ∈".to_string()));
    let decimal = Scalar::cmp(
        CmpOp::Ge,
        Scalar::Call(Func::Decimal, vec![q()]),
        Scalar::int(0),
    );
    let untyped = |k: &Value| matches!(k, Value::Str(_) | Value::Node(_)) || k.is_empty_seq();
    let spools = [
        (keyed_spool(&pool, Option::is_some), true),
        (
            keyed_spool(&pool, |k| k.as_ref().is_some_and(untyped)),
            true,
        ),
        (keyed_spool(&pool, |_| true), false),
    ];
    let (mut probes, mut failed) = ([0; 3], 0);
    for (key, mark) in &keys {
        for pred in [key.clone(), key.clone().and(decimal.clone())] {
            for ((spool, indexed), probes) in spools.iter().zip(&mut probes) {
                let shared = match indexed {
                    true => format!(" shared{{Π ∃ indexed({mark})}}"),
                    false => " shared{Π}".to_string(),
                };
                let some = exists("q", spool.clone().project(&["k"]), pred.clone());
                for (name, probe) in &pool {
                    let expr = probing(probe)
                        .map("m", some.clone())
                        .xi(xi_cmds(&["<m>", "$m", "</m>"]));
                    let plan = engine::compile(&expr);
                    let detail = plan.children()[0].detail();
                    assert_eq!(detail, format!("[m]{shared}"), "{expr}");
                    let (reference, engine) = both(&expr, &cat);
                    assert_eq!(engine, reference, "{expr} with o = {name}");
                    failed += usize::from(reference.is_err());
                    *probes +=
                        engine::run_compiled(&plan, &cat).map_or(0, |run| run.metrics.spool_probes);
                }
            }
        }
    }
    // Both indexed spools answered most probes (a sequence, a boolean,
    // a text against typed numbers or an unbound `o` has no window);
    // the third never probes. Some runs fail, in `decimal` or binding
    // `q`, as the reference does.
    assert!(
        probes[0] > 100 && probes[1] > 100 && probes[2] == 0 && failed > 100,
        "{probes:?}, {failed} failed"
    );
}

/// Regression: a conjunct before the ∃'s key is evaluated on every row
/// the window would skip, and a replay-safe one can still fail there —
/// `not(q/b)` over the string "s" does. With it leading, the ∃ is not
/// indexed and fails on "s" as the reference does; after the key, it
/// is evaluated only on the window's rows, as the reference evaluates
/// it only where the key holds, so it fails only for `o = "s"`.
#[test]
fn only_a_leading_key_conjunct_indexes_an_exists() {
    let mut cat = Catalog::new();
    let doc = cat.register(xmldb::parse_document("w.xml", "<r><a/></r>").unwrap());
    let tree = cat.doc(doc);
    let a = tree
        .descendants(xmldb::NodeId::DOCUMENT)
        .find(|&n| tree.node_name(n) == Some("a"))
        .unwrap();
    let a = Value::Node(nal::NodeRef { doc, node: a });
    let range = rel("k", &[a.clone(), Value::str("s")]);
    let no_b = Scalar::Not(Box::new(
        Scalar::attr("q").path(xpath::parse_path("b").unwrap()),
    ));
    let key = Scalar::attr_cmp(CmpOp::Eq, "o", "q");
    let outer = |os: &[Value]| {
        let rows = os.iter().map(|o| Tuple::singleton(s("o"), o.clone()));
        Expr::Literal(rows.collect())
    };
    let (zz, s_) = (Value::str("zz"), Value::str("s"));
    for (pred, mark, fails) in [
        (no_b.clone().and(key.clone()), " shared{Π}", [true, true]),
        (key.and(no_b), " shared{Π ∃ indexed(k =)}", [false, true]),
    ] {
        let some = exists("q", range.clone(), pred);
        for (os, fails) in [
            vec![a.clone(), zz.clone()],
            vec![a.clone(), zz.clone(), s_.clone()],
        ]
        .into_iter()
        .zip(fails)
        {
            let expr = outer(&os).select(some.clone());
            assert_eq!(engine::compile(&expr).detail(), mark, "{expr}");
            let (reference, engine) = both(&expr, &cat);
            assert_eq!(reference.is_err(), fails, "{expr}: {reference:?}");
            assert_eq!(engine, reference, "{expr}");
        }
    }
}

/// `every q in Π[x](rel) satisfies q = t` over a spooled range, which an
/// index of the range would answer wrongly: the rows it would skip are
/// the ∀'s counterexamples. The ∀ replays its spool every time.
#[test]
fn a_forall_never_probes_its_range() {
    let cat = Catalog::new();
    let range = rel("x", &ints(&[1, 1, 2, 1]));
    for (op, holds) in [(CmpOp::Eq, 0), (CmpOp::Le, 2), (CmpOp::Gt, 1)] {
        let pred = Scalar::cmp(op, Scalar::attr("q"), Scalar::attr("t"));
        let every = forall("q", range.clone(), pred.clone());
        let expr = rel("t", &ints(&[1, 1, 2, 2, 0])).select(every);
        let (reference, engine) = both(&expr, &cat);
        assert_eq!(engine, reference, "{expr}");
        let plan = engine::compile(&expr);
        assert_eq!(plan.detail(), " shared{Π}", "{expr}");
        let run = engine::run_compiled(&plan, &cat).unwrap();
        assert_eq!(run.rows.len(), holds, "{expr}");
        assert_eq!(run.metrics.spool_probes, 0, "{expr}");
        // The ∃ over the same range and predicate is indexed.
        let some = rel("t", &ints(&[1, 1, 2, 2, 0])).select(exists("q", range.clone(), pred));
        let run = engine::run(&some, &cat).unwrap();
        assert_eq!(run.metrics.spool_probes, 4, "{some}");
    }
}

/// The paper's q3 (§5.3) at scale 40: its ∃'s range is one spooled
/// `Υ[q]` indexed on `$t1 = q`. The first of its 40 outer tuples
/// replays the spool as far as its witness, the second fills it and
/// builds the index, and each of the 39 passes from the second on
/// probes: the range's Υ emits every review title once, as when each
/// outer tuple replayed it.
#[test]
fn q3_probes_its_exists_range_from_the_second_outer_tuple_on() {
    let cat = xmldb::gen::standard_catalog(40, 2, 1);
    let w = ordered_unnesting::workloads::Q3_EXISTENTIAL;
    let expr = xquery::compile(w.query, &cat).expect("q3 compiles");
    let nested = unnest::enumerate_plans(&expr, &cat)
        .into_iter()
        .find(|p| p.label == "nested")
        .expect("q3 has a nested plan");
    let plan = engine::compile(&nested.expr);
    let (select, blocks) = select_blocks(&plan).expect("q3's σ holds its ∃");
    assert_eq!(select.detail(), " shared{Υ[q] ∃ indexed(q =)}");
    assert!(blocks.iter().all(|b| b.lazy));
    let run = engine::run_compiled(&plan, &cat).unwrap();
    let mut ctx = EvalCtx::new(&cat);
    let reference = eval_query(&nested.expr, &mut ctx).unwrap();
    assert_eq!((&run.rows, &run.output), (&reference, &ctx.take_output()));
    let m = &run.metrics;
    assert_eq!((m.nested_evals, m.spool_probes), (40, 39));
    assert_eq!(run.rows.len(), 20);
    // 40 titles of the outer Υ[t1], 40 of the range's Υ[q].
    assert_eq!(m.op_count("UnnestMap"), 40 + 40);
    assert_eq!(m.tuples_produced, 123);
}

/// `o = k` over rows whose `k` are the ints 1 to 4 and a two-item
/// sequence, probed by 2 three times: the first outer tuple replays the
/// spool, the second fills it and builds the index, both probes find
/// `k = 2` and `(2, 3)` without examining the other rows, and a
/// sequence key's two entries give its row once.
#[test]
fn a_probe_examines_only_its_window() {
    let cat = Catalog::new();
    let mut keys = ints(&[1, 2, 3, 4]);
    keys.push(Value::items(ints(&[2, 2])));
    let spool = rel("k", &keys);
    let block = spool.select(Scalar::attr_cmp(CmpOp::Eq, "o", "k"));
    let outer = Expr::Literal(vec![Tuple::singleton(s("o"), Value::Int(2)); 3]);
    let expr = outer.map(
        "m",
        Scalar::Agg {
            f: GroupFn::count(),
            input: Box::new(block),
        },
    );
    assert_eq!(
        engine::compile(&expr).detail(),
        "[m] shared{Π indexed(k =)}"
    );
    let (reference, engine) = both(&expr, &cat);
    assert_eq!(engine, reference, "{expr}");
    let run = engine::run(&expr, &cat).unwrap();
    assert!(run
        .rows
        .iter()
        .all(|t| t.get(s("m")) == Some(&Value::Int(2))));
    assert_eq!(run.metrics.spool_probes, 2);
    // Each pass emits its two rows; the spool's Π ran once.
    assert_eq!(run.metrics.op_count("Select"), 3 * 2);
    assert_eq!(run.metrics.op_count("Project"), 5);
}

/// Regression: a probe must not evaluate `side` over an empty spool,
/// where the reference never does: an index that evaluated it anyway
/// failed with "unbound attribute" where the scope leaves `o` unbound,
/// and a path over the number `o` would fail too — for a σ over the
/// spool and for an ∃ over it alike.
#[test]
fn an_empty_spool_never_reads_its_side() {
    let cat = Catalog::new();
    let empty =
        rel("k", &ints(&[1, 2])).select(Scalar::cmp(CmpOp::Gt, Scalar::attr("k"), Scalar::int(10)));
    let unbound = Tuple::singleton(s("z"), Value::Int(0));
    let path = Scalar::attr("o").path(xpath::parse_path("t").unwrap());
    let number = Tuple::singleton(s("o"), Value::Int(1));
    for (side, outer) in [(Scalar::attr("o"), unbound), (path, number)] {
        let decided = exists(
            "q",
            empty.clone(),
            Scalar::cmp(CmpOp::Eq, side.clone(), Scalar::attr("q")),
        );
        let block = empty
            .clone()
            .select(Scalar::cmp(CmpOp::Eq, side, Scalar::attr("k")));
        let outer = Expr::Literal(vec![outer; 2]);
        let some = exists("y", block.clone(), Scalar::attr("y"));
        let count = Scalar::Agg {
            f: GroupFn::count(),
            input: Box::new(block),
        };
        let (probed, decided_mark) = ("shared{σ indexed(k =)}", "shared{σ ∃ indexed(k =)}");
        for (expr, mark) in [
            (outer.clone().select(decided), decided_mark),
            (outer.clone().select(some), probed),
            (outer.map("m", count), probed),
        ] {
            assert!(engine::compile(&expr).detail().ends_with(mark), "{expr}");
            let (reference, engine) = both(&expr, &cat);
            assert!(reference.is_ok(), "{expr}: {reference:?}");
            assert_eq!(engine, reference, "{expr}");
        }
    }
}

/// Regression: `σ[x > 1 ∧ k = o]` over rows one of which, outside the
/// window `o = 2` selects, lacks `x`. The σ evaluates `x > 1` on every
/// row a probe would skip, so an outer tuple that does not bind `x`
/// replays, and the error surfaces as in the reference; one that does
/// probes, and `x > 1` still rejects the window's last row.
#[test]
fn a_row_without_an_attribute_an_earlier_conjunct_reads_is_not_skipped() {
    let cat = Catalog::new();
    let row = |pairs: &[(&str, i64)]| {
        Tuple::from_pairs(pairs.iter().map(|(a, v)| (s(a), Value::Int(*v))).collect())
    };
    let spool = Expr::Literal(vec![
        row(&[("k", 2), ("x", 5)]),
        row(&[("k", 1)]),
        row(&[("k", 2), ("x", 0)]),
    ])
    .project(&["k", "x"]);
    let pred = Scalar::cmp(CmpOp::Gt, Scalar::attr("x"), Scalar::int(1)).and(Scalar::attr_cmp(
        CmpOp::Eq,
        "k",
        "o",
    ));
    let block = spool.select(pred);
    let (bound, unbound) = (row(&[("o", 2), ("x", 7)]), row(&[("o", 2)]));
    for (outer, fails) in [
        (vec![unbound.clone(); 2], true),
        (vec![bound.clone(); 2], false),
        (vec![bound, unbound], true),
    ] {
        let expr = Expr::Literal(outer).map(
            "m",
            Scalar::Agg {
                f: GroupFn::count(),
                input: Box::new(block.clone()),
            },
        );
        assert_eq!(
            engine::compile(&expr).detail(),
            "[m] shared{Π indexed(k =)}"
        );
        let (reference, engine) = both(&expr, &cat);
        assert_eq!(engine, reference, "{expr}");
        if fails {
            let message = reference.unwrap_err().message;
            assert!(message.contains("unbound attribute `x`"), "{message}");
        } else {
            let run = engine::run(&expr, &cat).unwrap();
            assert!(run
                .rows
                .iter()
                .all(|t| t.get(s("m")) == Some(&Value::Int(1))));
            assert_eq!(run.metrics.spool_probes, 1, "{expr}");
        }
    }
}

/// Regression: a spooled row that carries the attribute `side` reads
/// compares its own value, not the outer tuple's, so the index would
/// skip a row the σ selects: the σ replays.
#[test]
fn spool_rows_carrying_the_outer_attribute_are_replayed() {
    let cat = Catalog::new();
    let spool = Expr::Literal(vec![
        Tuple::singleton(s("k"), Value::Int(1)),
        Tuple::from_pairs(vec![(s("k"), Value::Int(2)), (s("o"), Value::Int(2))]),
        Tuple::singleton(s("k"), Value::Int(3)),
    ])
    .project(&["k", "o"]);
    let block = spool.select(Scalar::attr_cmp(CmpOp::Eq, "o", "k"));
    let expr = rel("o", &ints(&[1, 3, 1])).map(
        "m",
        Scalar::Agg {
            f: GroupFn::count(),
            input: Box::new(block),
        },
    );
    assert_eq!(
        engine::compile(&expr).detail(),
        "[m] shared{Π indexed(k =)}"
    );
    let (reference, engine) = both(&expr, &cat);
    // The second row selects itself for every outer tuple.
    let counts: Vec<_> = reference
        .as_ref()
        .unwrap()
        .0
        .iter()
        .map(|t| t.get(s("m")).cloned())
        .collect();
    assert_eq!(counts, vec![Some(Value::Int(2)); 3]);
    assert_eq!(engine, reference, "{expr}");
    let run = engine::run(&expr, &cat).unwrap();
    assert_eq!(run.metrics.spool_probes, 0);
}

/// A lazy ∃ over an indexed spool: one outer tuple replays it and pulls
/// only as far as its witness, as before the index; a second one fills
/// the spool, builds the index and probes it.
#[test]
fn a_lazy_range_over_one_outer_tuple_pulls_no_further_than_its_witness() {
    let cat = Catalog::new();
    let range = rel("x", &ints(&[1, 2, 3, 4])).select(Scalar::attr_cmp(CmpOp::Eq, "x", "t"));
    for (outer, pulled, probes) in [(&[1][..], 1, 0), (&[3], 3, 0), (&[1, 1], 4, 1)] {
        let outer = outer
            .iter()
            .map(|t| Tuple::singleton(s("t"), Value::Int(*t)));
        let expr =
            Expr::Literal(outer.collect()).select(exists("x", range.clone(), Scalar::attr("x")));
        let plan = engine::compile(&expr);
        assert_eq!(plan.detail(), " shared{Π indexed(x =)}");
        let (reference, engine) = both(&expr, &cat);
        assert_eq!(engine, reference, "{expr}");
        let run = engine::run_compiled(&plan, &cat).unwrap();
        assert_eq!(run.metrics.op_count("Project"), pulled, "{expr}");
        assert_eq!(run.metrics.spool_probes, probes, "{expr}");
    }
}
