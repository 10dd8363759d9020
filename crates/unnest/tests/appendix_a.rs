//! Appendix A, executable: randomized equivalence checks for Eqv. 1–9.
//!
//! For each equivalence we generate random relations satisfying the side
//! conditions, build the left-hand side, let the rewrite rule produce the
//! right-hand side, and evaluate both with the reference evaluator —
//! asserting *sequence* equality (order included; these are
//! order-preserving equivalences).
//!
//! The generators deliberately produce skewed key distributions (small
//! key domains) so that empty groups, singleton groups, and large groups
//! all occur — the count-bug corner cases Appendix A's case analyses care
//! about.

use proptest::prelude::*;

use nal::expr::builder::*;
use nal::{eval_query, AggKind, CmpOp, EvalCtx, Expr, GroupFn, Scalar, Sym, Tuple, Value};
use unnest::driver::Rule;
use xmldb::Catalog;

fn s(n: &str) -> Sym {
    Sym::new(n)
}

fn int_rel(attr: &str, keys: &[i64]) -> Expr {
    // The explicit Π declares the schema even for empty relations (a bare
    // empty Literal has no inferable attributes).
    Expr::Literal(
        keys.iter()
            .map(|&k| Tuple::singleton(s(attr), Value::Int(k)))
            .collect(),
    )
    .project_syms(vec![s(attr)])
}

fn pair_rel(a: &str, b: &str, rows: &[(i64, i64)]) -> Expr {
    Expr::Literal(
        rows.iter()
            .map(|&(x, y)| Tuple::from_pairs(vec![(s(a), Value::Int(x)), (s(b), Value::Int(y))]))
            .collect(),
    )
    .project_syms(vec![s(a), s(b)])
}

fn eval_both(lhs: &Expr, rhs: &Expr) -> (Vec<Tuple>, Vec<Tuple>, String, String) {
    let cat = Catalog::new();
    let mut c1 = EvalCtx::new(&cat);
    let l = eval_query(lhs, &mut c1).expect("lhs evaluates");
    let mut c2 = EvalCtx::new(&cat);
    let r = eval_query(rhs, &mut c2).expect("rhs evaluates");
    // Differential on the engine as well: for each side, `engine::run`
    // must produce the reference rows and Ξ output — so the whole
    // appendix-A query set exercises the executor too.
    for (label, expr, rows, out) in [("lhs", lhs, &l, &c1.out), ("rhs", rhs, &r, &c2.out)] {
        let m = engine::run(expr, &cat).expect("engine evaluates");
        assert_eq!(
            &m.rows, rows,
            "engine::run rows diverge from spec on {label}: {expr}"
        );
        assert_eq!(
            &m.output, out,
            "engine::run Ξ output diverges on {label}: {expr}"
        );
    }
    (l, r, c1.out, c2.out)
}

fn assert_equiv(lhs: &Expr, rule: Rule) {
    let cat = Catalog::new();
    let rhs = rule
        .apply_at(lhs, &cat)
        .unwrap_or_else(|| panic!("{} did not fire on {lhs}", rule.name()));
    let (l, r, lo, ro) = eval_both(lhs, &rhs);
    assert_eq!(
        l,
        r,
        "sequences differ for {}\nlhs: {lhs}\nrhs: {rhs}",
        rule.name()
    );
    assert_eq!(lo, ro, "Ξ output differs for {}", rule.name());
}

/// Strategy: keys from a small domain so joins hit often and miss often.
fn keys() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0i64..6, 0..12)
}

fn pairs() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..6, 0i64..50), 0..16)
}

fn theta() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(vec![
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

fn group_fn() -> impl Strategy<Value = GroupFn> {
    prop::sample::select(vec![
        GroupFn::count(),
        GroupFn::id(),
        GroupFn::project_items("B"),
        GroupFn::agg_of(AggKind::Min, "B"),
        GroupFn::agg_of(AggKind::Max, "B"),
        GroupFn::agg_of(AggKind::Sum, "B"),
        GroupFn::agg_of(AggKind::Avg, "B"),
    ])
}

/// `χ_{g:f(σ_{A1θA2}(e2))}(e1)` — the Eqv. 1/2/3 left-hand side.
fn map_agg_lhs(e1: Expr, e2: Expr, th: CmpOp, f: GroupFn) -> Expr {
    e1.map(
        "g",
        Scalar::Agg {
            f,
            input: Box::new(e2.select(Scalar::attr_cmp(th, "A1", "A2"))),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- Eqv. 1: binary grouping, arbitrary θ --------------------------
    #[test]
    fn eqv1_holds(k1 in keys(), rows in pairs(), th in theta(), f in group_fn()) {
        let lhs = map_agg_lhs(int_rel("A1", &k1), pair_rel("A2", "B", &rows), th, f);
        assert_equiv(&lhs, Rule::Eqv1);
    }

    // ---- Eqv. 2: outer join + unary Γ, θ = '=' -------------------------
    #[test]
    fn eqv2_holds(k1 in keys(), rows in pairs(), f in group_fn()) {
        let lhs = map_agg_lhs(int_rel("A1", &k1), pair_rel("A2", "B", &rows), CmpOp::Eq, f);
        assert_equiv(&lhs, Rule::Eqv2);
    }

    // ---- Eqv. 3: unary Γ under the distinctness condition --------------
    // e1 := Π^D_{A1:A2}(Π_{A2}(e2)) by construction, so the condition
    // holds; the structural check must recognize it and the rewrite must
    // preserve the result for every θ.
    #[test]
    fn eqv3_holds(rows in pairs(), th in theta(), f in group_fn()) {
        let e2 = pair_rel("A2", "B", &rows);
        let e1 = e2.clone().project(&["A2"]).distinct_rename(&[("A1", "A2")]);
        let lhs = map_agg_lhs(e1, e2, th, f);
        let cat = Catalog::new();
        if let Some(rhs) = Rule::Eqv3.apply_at(&lhs, &cat) {
            let (l, r, _, _) = eval_both(&lhs, &rhs);
            prop_assert_eq!(l, r);
        } else {
            // Structural check failed only because the projection shape
            // differs — that would be a rule bug.
            prop_assert!(false, "Eqv.3 must fire on the constructed condition");
        }
    }

    // ---- Eqv. 4: membership, outer join + Γ ∘ μD ------------------------
    #[test]
    fn eqv4_holds(
        k1 in keys(),
        // ≥1 row so the nested schema is inferable from the literal; the
        // runtime-empty case is covered by `empty_all` below.
        nested in prop::collection::vec((prop::collection::vec(0i64..6, 0..4), 0i64..50), 1..8),
        empty_all in prop::bool::ANY,
        f in prop::sample::select(vec![
            GroupFn::count(),
            GroupFn::project_items("t2"),
            GroupFn::agg_of(AggKind::Min, "t2"),
            GroupFn::agg_of(AggKind::Sum, "t2"),
        ]),
    ) {
        // At least one row must have a non-empty nested relation for the
        // literal to carry a nested schema at all.
        prop_assume!(nested.iter().any(|(items, _)| !items.is_empty()));
        // e2 rows: nested attr a2 = lifted items, payload t2.
        let e2 = Expr::Literal(
            nested
                .iter()
                .map(|(items, payload)| {
                    Tuple::from_pairs(vec![
                        (
                            s("a2"),
                            Value::tuples(
                                items
                                    .iter()
                                    .map(|&v| Tuple::singleton(s("a2x"), Value::Int(v)))
                                    .collect(),
                            ),
                        ),
                        (s("t2"), Value::Int(*payload)),
                    ])
                })
                .collect(),
        )
        .project_syms(vec![s("a2"), s("t2")]);
        // Optionally make e2 empty at runtime while keeping its schema
        // statically known (empty groups are count-bug territory).
        let e2 = if empty_all {
            e2.select(Scalar::Const(Value::Bool(false)))
        } else {
            e2
        };
        let lhs = int_rel("A1", &k1).map(
            "g",
            Scalar::Agg {
                f,
                input: Box::new(
                    e2.select(Scalar::is_in(Scalar::attr("A1"), Scalar::attr("a2"))),
                ),
            },
        );
        assert_equiv(&lhs, Rule::Eqv4);
    }

    // ---- Eqv. 6: existential quantifier → semijoin ----------------------
    #[test]
    fn eqv6_holds(k1 in keys(), rows in pairs(), bound in 0i64..50) {
        let e1 = int_rel("t1", &k1);
        let e2 = pair_rel("t3", "y3", &rows);
        let lhs = e1.select(Scalar::Exists {
            var: s("x"),
            range: Box::new(
                e2.select(Scalar::attr_cmp(CmpOp::Eq, "t1", "t3")).project(&["y3"]),
            ),
            pred: Box::new(Scalar::cmp(CmpOp::Gt, Scalar::attr("x"), Scalar::int(bound))),
        });
        assert_equiv(&lhs, Rule::Eqv6);
    }

    // ---- Eqv. 7: universal quantifier → anti-join -----------------------
    #[test]
    fn eqv7_holds(k1 in keys(), rows in pairs(), bound in 0i64..50) {
        let e1 = int_rel("t1", &k1);
        let e2 = pair_rel("t3", "y3", &rows);
        let lhs = e1.select(Scalar::Forall {
            var: s("x"),
            range: Box::new(
                e2.select(Scalar::attr_cmp(CmpOp::Eq, "t1", "t3")).project(&["y3"]),
            ),
            pred: Box::new(Scalar::cmp(CmpOp::Gt, Scalar::attr("x"), Scalar::int(bound))),
        });
        assert_equiv(&lhs, Rule::Eqv7);
    }

    // ---- Eqv. 6/7 duality: ∃¬p == ¬∀p on the same data ------------------
    #[test]
    fn exists_forall_duality(k1 in keys(), rows in pairs(), bound in 0i64..50) {
        let e1 = int_rel("t1", &k1);
        let e2 = pair_rel("t3", "y3", &rows);
        let range = e2.select(Scalar::attr_cmp(CmpOp::Eq, "t1", "t3")).project(&["y3"]);
        let exists_not = e1.clone().select(Scalar::Exists {
            var: s("x"),
            range: Box::new(range.clone()),
            pred: Box::new(Scalar::cmp(CmpOp::Le, Scalar::attr("x"), Scalar::int(bound))),
        });
        let forall = e1.select(Scalar::Forall {
            var: s("x"),
            range: Box::new(range),
            pred: Box::new(Scalar::cmp(CmpOp::Gt, Scalar::attr("x"), Scalar::int(bound))),
        });
        // σ_{∃¬p}(e1) ⊎ σ_{∀p}(e1) partitions e1.
        let cat = Catalog::new();
        let mut c = EvalCtx::new(&cat);
        let a = eval_query(&exists_not, &mut c).unwrap();
        let b = eval_query(&forall, &mut c).unwrap();
        let all = eval_query(&int_rel("t1", &k1), &mut c).unwrap();
        prop_assert_eq!(a.len() + b.len(), all.len());
    }
}

/// Eqv. 5 needs document-backed provenance; a deterministic (but
/// seed-varied) test over generated bib documents exercises it, together
/// with Eqv. 8/9 — see `tests/paper_queries.rs` in the umbrella crate for
/// the full end-to-end versions.
#[test]
fn eqv5_8_9_on_generated_documents() {
    use xmldb::gen::{gen_bib, BibConfig};
    use xpath::parse_path;

    for seed in [1u64, 7, 23] {
        let mut cat = Catalog::new();
        cat.register(gen_bib(&BibConfig {
            books: 30,
            authors_per_book: 3,
            seed,
            ..BibConfig::default()
        }));
        let p = |x: &str| parse_path(x).unwrap();

        // ---- Eqv. 5 (the §5.1 grouping plan) ----
        let e1 = doc_scan("d1", "bib.xml")
            .unnest_map("a1", Scalar::attr("d1").path(p("//author")).distinct())
            .project(&["a1"]);
        let e2 = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .map("a2", Scalar::attr("b2").path(p("/author")).lift("a2x"))
            .map("t2", Scalar::attr("b2").path(p("/title")))
            .project(&["a2", "t2"]);
        let lhs = e1.map(
            "t1",
            Scalar::Agg {
                f: GroupFn::project_items("t2"),
                input: Box::new(e2.select(Scalar::is_in(Scalar::attr("a1"), Scalar::attr("a2")))),
            },
        );
        let rhs5 = Rule::Eqv5
            .apply_at(&lhs, &cat)
            .expect("Eqv.5 fires under the bib DTD");
        let rhs4 = Rule::Eqv4
            .apply_at(&lhs, &cat)
            .expect("Eqv.4 always fires here");
        let mut c = EvalCtx::new(&cat);
        let l = eval_query(&lhs, &mut c).unwrap();
        let r5 = eval_query(&rhs5, &mut c).unwrap();
        let r4 = eval_query(&rhs4, &mut c).unwrap();
        assert_eq!(l, r5, "Eqv.5 mismatch (seed {seed})");
        assert_eq!(l, r4, "Eqv.4 mismatch (seed {seed})");

        // ---- Eqv. 8/9 (the §5.5-style counting plans) ----
        let authors = doc_scan("da", "bib.xml")
            .unnest_map("a1", Scalar::attr("da").path(p("//author")).distinct())
            .project(&["a1"]);
        let e3 = doc_scan("d3", "bib.xml")
            .unnest_map("b3", Scalar::attr("d3").path(p("//book")))
            .map("y3", Scalar::attr("b3").path(p("@year")))
            .unnest_map("a3", Scalar::attr("b3").path(p("/author")));
        let old_books = Scalar::attr_cmp(CmpOp::Eq, "a1", "a3").and(Scalar::cmp(
            CmpOp::Le,
            Scalar::attr("y3"),
            Scalar::int(1993),
        ));
        let semi = authors.clone().semijoin(e3.clone(), old_books.clone());
        let anti = authors.antijoin(e3, old_books);
        let rhs8 = Rule::Eqv8.apply_at(&semi, &cat).expect("Eqv.8 fires");
        let rhs9 = Rule::Eqv9.apply_at(&anti, &cat).expect("Eqv.9 fires");
        let mut c = EvalCtx::new(&cat);
        assert_eq!(
            eval_query(&semi, &mut c).unwrap(),
            eval_query(&rhs8, &mut c).unwrap(),
            "Eqv.8 mismatch (seed {seed})"
        );
        assert_eq!(
            eval_query(&anti, &mut c).unwrap(),
            eval_query(&rhs9, &mut c).unwrap(),
            "Eqv.9 mismatch (seed {seed})"
        );
    }
}

/// The §5.4 self-semijoin rewrite on generated documents.
#[test]
fn eqv8_self_on_generated_documents() {
    use xmldb::gen::{gen_bib, BibConfig};
    use xpath::parse_path;

    for seed in [3u64, 11] {
        let mut cat = Catalog::new();
        cat.register(gen_bib(&BibConfig {
            books: 25,
            authors_per_book: 4,
            seed,
            ..BibConfig::default()
        }));
        let p = |x: &str| parse_path(x).unwrap();
        let l = doc_scan("d1", "bib.xml")
            .unnest_map("b1", Scalar::attr("d1").path(p("//book")))
            .unnest_map("a1", Scalar::attr("b1").path(p("/author")));
        let r = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("a2", Scalar::attr("b2").path(p("/author")));
        // Books having an author whose name contains "a" — selective but
        // non-empty for the generated name pools.
        let pred = Scalar::attr_cmp(CmpOp::Eq, "b1", "b2").and(Scalar::Call(
            nal::Func::Contains,
            vec![Scalar::attr("a2"), Scalar::string("an")],
        ));
        let semi = l.semijoin(r, pred);
        let grouped = Rule::Eqv8Self
            .apply_at(&semi, &cat)
            .expect("self rule fires");
        let mut c = EvalCtx::new(&cat);
        let a = eval_query(&semi, &mut c).unwrap();
        let b = eval_query(&grouped, &mut c).unwrap();
        assert_eq!(a, b, "self-semijoin mismatch (seed {seed})");
        assert!(
            !a.is_empty(),
            "predicate should select something (seed {seed})"
        );
        assert!(
            a.len() < 25 * 4,
            "predicate should be selective (seed {seed})"
        );
    }
}
