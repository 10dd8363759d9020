//! Differential testing of index-backed plans: `compile_indexed` must
//! produce byte-identical rows and Ξ output to the scan-based `compile`,
//! across every plan alternative of every §5 workload — and the
//! index-backed quantifier joins must do strictly less work (fewer
//! examined tuples) while doing it. (Hash keys do not coerce a string
//! against a number the way `nal::eval`'s `=` does — see `engine::key` —
//! so the crafted mixed-type joins below are held to the scan plan, not
//! to the reference evaluator.)

use proptest::prelude::*;

use nal::expr::builder::*;
use nal::{CmpOp, Expr, Metrics, Scalar, Sym, Tuple, Value};
use xmldb::gen::{gen_bib, standard_catalog, BibConfig};
use xmldb::{Catalog, NodeId};
use xpath::parse_path;

fn s(n: &str) -> Sym {
    Sym::new(n)
}

fn p(path: &str) -> xpath::Path {
    parse_path(path).unwrap()
}

/// Tuples a semi/anti join examines: probed bucket/posting candidates
/// plus every tuple produced along the way (the build side of a scan
/// join produces its whole scan; an index join never runs it).
fn tuples_examined(m: &Metrics) -> u64 {
    m.probe_tuples + m.tuples_produced
}

/// Run `expr` scan-based and index-backed and assert identical rows and
/// Ξ output. Returns the metrics (scan, indexed) for work comparisons.
fn assert_scan_and_index_agree(expr: &Expr, cat: &Catalog) -> (Metrics, Metrics) {
    let scan = engine::run_compiled(&engine::compile(expr), cat).expect("scan");
    let index_plan = engine::compile_indexed(expr, cat);
    let indexed = engine::run_compiled(&index_plan, cat).expect("indexed");
    assert_eq!(indexed.rows, scan.rows, "row mismatch for {expr}");
    assert_eq!(indexed.output, scan.output, "Ξ output mismatch for {expr}");
    (scan.metrics, indexed.metrics)
}

// ---------------------------------------------------------------------
// Paper workloads: every plan alternative, bytes equal
// ---------------------------------------------------------------------

#[test]
fn all_workload_plans_are_byte_identical_with_indexes() {
    let catalog = standard_catalog(40, 2, 7);
    for w in &ordered_unnesting::workloads::ALL {
        let nested = xquery::compile(w.query, &catalog)
            .unwrap_or_else(|e| panic!("[{}] compile failed: {e}", w.id));
        for plan in unnest::enumerate_plans(&nested, &catalog) {
            assert_scan_and_index_agree(&plan.expr, &catalog);
        }
    }
}

#[test]
fn quantifier_workloads_use_indexes_and_examine_fewer_tuples() {
    let catalog = standard_catalog(60, 2, 11);
    // Q3/Q4 (some/exists → semijoin) and Q5 (every → anti-semijoin) are
    // the paper's quantifier experiments; their rewritten plans carry
    // the doc-rooted build sides the index join replaces — including
    // the pushed-down filters (Q4's contains(), Q5's year predicate),
    // which the index join replays per candidate.
    for (w, label) in [
        (&ordered_unnesting::workloads::Q3_EXISTENTIAL, "semijoin"),
        (&ordered_unnesting::workloads::Q4_EXISTS, "semijoin"),
        (&ordered_unnesting::workloads::Q5_UNIVERSAL, "anti-semijoin"),
    ] {
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        let plans = unnest::enumerate_plans(&nested, &catalog);
        let plan = plans
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("[{}] missing `{label}` plan", w.id));
        let (scan, indexed) = assert_scan_and_index_agree(&plan.expr, &catalog);
        assert!(
            indexed.index_lookups > 0,
            "[{}] the indexed plan must actually probe the index",
            w.id
        );
        assert!(
            tuples_examined(&indexed) < tuples_examined(&scan),
            "[{}] indexed plan must examine strictly fewer tuples: {} vs {}",
            w.id,
            tuples_examined(&indexed),
            tuples_examined(&scan)
        );
        assert_eq!(
            indexed.doc_scans, 0,
            "[{}] index-backed plan must not scan the document",
            w.id
        );
    }
}

#[test]
fn range_workloads_are_byte_identical_and_examine_fewer_tuples() {
    let catalog = standard_catalog(50, 2, 13);
    // Q7 (string-regime `some … < …`) and Q8 (numeric-regime vacuous
    // `every`): the scan plans run these as nested loops; the indexed
    // plans must range-probe instead, byte-identically.
    for (w, label) in [
        (&ordered_unnesting::workloads::Q7_RANGE_SOME, "semijoin"),
        (
            &ordered_unnesting::workloads::Q8_RANGE_EVERY,
            "anti-semijoin",
        ),
    ] {
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        let plans = unnest::enumerate_plans(&nested, &catalog);
        let plan = plans
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("[{}] missing `{label}` plan", w.id));
        let explained = engine::compile_indexed(&plan.expr, &catalog).explain();
        assert!(
            explained.contains("IndexRange"),
            "[{}] expected a range join: {explained}",
            w.id
        );
        let (scan, indexed) = assert_scan_and_index_agree(&plan.expr, &catalog);
        assert!(indexed.index_lookups > 0, "[{}] no index probes", w.id);
        assert!(
            tuples_examined(&indexed) < tuples_examined(&scan),
            "[{}] range probe must examine strictly fewer tuples: {} vs {}",
            w.id,
            tuples_examined(&indexed),
            tuples_examined(&scan)
        );
        // The scan plan's θ-join probes at most |left| + |right| build
        // candidates, not |left| × |right|: each join side is one Υ, so
        // the Υ tuple count is exactly |left| + |right|.
        let sides = scan.op_count("UnnestMap");
        assert!(
            scan.probe_tuples <= sides,
            "[{}] the scan loop join examined {} candidates for {sides} input tuples",
            w.id,
            scan.probe_tuples
        );
    }
    // Every plan alternative of the range workloads (including nested)
    // stays byte-identical on both access paths.
    for w in &ordered_unnesting::workloads::RANGE {
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        for plan in unnest::enumerate_plans(&nested, &catalog) {
            assert_scan_and_index_agree(&plan.expr, &catalog);
        }
    }
}

#[test]
fn composite_workloads_are_byte_identical_and_examine_fewer_tuples() {
    let catalog = standard_catalog(50, 2, 19);
    // Q9 (two-key composite probe) and Q10 (variable-depth ancestor
    // binding referenced by the residual): both former decline cases
    // must now produce index plans, byte-identical to the scan plans,
    // examining strictly fewer tuples.
    for (w, op_name) in [
        (
            &ordered_unnesting::workloads::Q9_COMPOSITE,
            "IndexCompositeSemiJoin",
        ),
        (&ordered_unnesting::workloads::Q10_DEEP, "IndexSemiJoin"),
    ] {
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        let plans = unnest::enumerate_plans(&nested, &catalog);
        let plan = plans
            .iter()
            .find(|p| p.label == "semijoin")
            .unwrap_or_else(|| panic!("[{}] missing `semijoin` plan", w.id));
        let explained = engine::compile_indexed(&plan.expr, &catalog).explain();
        assert!(
            explained.contains(op_name),
            "[{}] expected {op_name}: {explained}",
            w.id
        );
        let (scan, indexed) = assert_scan_and_index_agree(&plan.expr, &catalog);
        assert!(indexed.index_lookups > 0, "[{}] no index probes", w.id);
        assert!(
            tuples_examined(&indexed) < tuples_examined(&scan),
            "[{}] index plan must examine strictly fewer tuples: {} vs {}",
            w.id,
            tuples_examined(&indexed),
            tuples_examined(&scan)
        );
        assert_eq!(
            indexed.doc_scans, 0,
            "[{}] index-backed plan must not scan the document",
            w.id
        );
        // Every plan alternative (including nested) stays byte-identical.
        for plan in &plans {
            assert_scan_and_index_agree(&plan.expr, &catalog);
        }
    }
}

// ---------------------------------------------------------------------
// Index scans agree with path evaluation on every supported path shape
// ---------------------------------------------------------------------

#[test]
fn index_scans_match_path_evaluation() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 25,
        authors_per_book: 3,
        seed: 3,
        ..BibConfig::default()
    }));
    for path in [
        "//book",
        "//author",
        "//book/author",
        "//book/title",
        "//author/last",
        "//book/@year",
        "/bib/book/title",
        "//bib//author",
        "//*",
        "//book/*",
        "//missing",
    ] {
        let e = doc_scan("d", "bib.xml").unnest_map("x", Scalar::attr("d").path(p(path)));
        let (scan, indexed) = assert_scan_and_index_agree(&e, &cat);
        // Sanity: the conversion actually happened (index lookups > 0)
        // and skipped the document walk.
        assert!(indexed.index_lookups > 0, "{path}: not converted");
        assert!(
            indexed.nodes_visited < scan.nodes_visited.max(1),
            "{path}: indexed plan must visit fewer nodes ({} vs {})",
            indexed.nodes_visited,
            scan.nodes_visited
        );
        // Distinct variant too.
        let e =
            doc_scan("d", "bib.xml").unnest_map("x", Scalar::attr("d").path(p(path)).distinct());
        assert_scan_and_index_agree(&e, &cat);
    }
}

#[test]
fn index_scan_rows_are_document_ordered_nodes() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 10,
        authors_per_book: 2,
        seed: 9,
        ..BibConfig::default()
    }));
    let e = doc_scan("d", "bib.xml").unnest_map("a", Scalar::attr("d").path(p("//author")));
    let plan = engine::compile_indexed(&e, &cat);
    assert!(
        plan.explain().starts_with("IndexScan"),
        "{}",
        plan.explain()
    );
    let result = engine::run_compiled(&plan, &cat).expect("runs");
    let ids: Vec<NodeId> = result
        .rows
        .iter()
        .map(|t| match t.get(s("a")) {
            Some(Value::Node(n)) => n.node,
            other => panic!("expected node, got {other:?}"),
        })
        .collect();
    let mut sorted = ids.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(ids, sorted, "index scan must emit document order, no dups");
    assert_eq!(ids.len(), 20);
}

// ---------------------------------------------------------------------
// Crafted quantifier joins: hit/miss mixes, residuals, Ξ in probes
// ---------------------------------------------------------------------

fn title_probe_rel(keys: &[&str]) -> Expr {
    Expr::Literal(
        keys.iter()
            .map(|k| Tuple::singleton(s("t1"), Value::str(*k)))
            .collect(),
    )
    .project_syms(vec![s("t1")])
}

fn title_build(uri: &str) -> Expr {
    doc_scan("d2", uri)
        .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
        .project(&["t2"])
}

#[test]
fn crafted_semi_and_anti_joins_differential() {
    let mut cat = Catalog::new();
    let doc = gen_bib(&BibConfig {
        books: 30,
        authors_per_book: 2,
        seed: 4,
        ..BibConfig::default()
    });
    // Fish some real title values out of the document for guaranteed hits.
    let titles: Vec<String> = {
        let d = &doc;
        let mut c = xpath::EvalCounters::default();
        xpath::eval_path(d, &[NodeId::DOCUMENT], &p("//title"), &mut c)
            .into_iter()
            .map(|n| d.string_value(n).into_owned())
            .collect()
    };
    cat.register(doc);
    let probe_keys: Vec<&str> = titles
        .iter()
        .map(String::as_str)
        .chain(["no-such-title", "another-miss"])
        .collect();
    for anti in [false, true] {
        let l = title_probe_rel(&probe_keys);
        let r = title_build("bib.xml");
        let pred = Scalar::attr_cmp(CmpOp::Eq, "t1", "t2");
        let e = if anti {
            l.antijoin(r, pred)
        } else {
            l.semijoin(r, pred)
        };
        let plan = engine::compile_indexed(&e, &cat);
        assert!(
            plan.explain().starts_with(if anti {
                "IndexAntiJoin"
            } else {
                "IndexSemiJoin"
            }),
            "{}",
            plan.explain()
        );
        let (scan, indexed) = assert_scan_and_index_agree(&e, &cat);
        assert_eq!(indexed.index_lookups, probe_keys.len() as u64);
        assert_eq!(indexed.index_hits, titles.len() as u64);
        assert!(tuples_examined(&indexed) < tuples_examined(&scan));
    }
}

#[test]
fn crafted_range_joins_differential() {
    let mut cat = Catalog::new();
    let doc = gen_bib(&BibConfig {
        books: 30,
        authors_per_book: 2,
        seed: 5,
        ..BibConfig::default()
    });
    let titles: Vec<String> = {
        let mut c = xpath::EvalCounters::default();
        xpath::eval_path(&doc, &[NodeId::DOCUMENT], &p("//title"), &mut c)
            .into_iter()
            .map(|n| doc.string_value(n).into_owned())
            .collect()
    };
    cat.register(doc);
    // String regime: every inequality against the title column, with
    // probe keys straddling the stored key range.
    let probe_keys: Vec<&str> = titles
        .iter()
        .map(String::as_str)
        .chain(["", "zzzz-past-everything", "M"])
        .collect();
    for anti in [false, true] {
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let l = title_probe_rel(&probe_keys);
            let r = title_build("bib.xml");
            let e = if anti {
                l.antijoin(r, Scalar::attr_cmp(op, "t1", "t2"))
            } else {
                l.semijoin(r, Scalar::attr_cmp(op, "t1", "t2"))
            };
            let plan = engine::compile_indexed(&e, &cat);
            assert!(
                plan.explain().starts_with(if anti {
                    "IndexRangeAntiJoin"
                } else {
                    "IndexRangeSemiJoin"
                }),
                "{}",
                plan.explain()
            );
            let (scan, indexed) = assert_scan_and_index_agree(&e, &cat);
            assert_eq!(indexed.index_lookups, probe_keys.len() as u64);
            assert!(tuples_examined(&indexed) < tuples_examined(&scan));
        }
    }
    // Numeric regime: integer probes against the @year attribute column
    // (string-valued in the document, numerically coerced by `<`).
    let year_build = doc_scan("d2", "bib.xml")
        .unnest_map("y2", Scalar::attr("d2").path(p("//book/@year")))
        .project(&["y2"]);
    for anti in [false, true] {
        for (op, year) in [
            (CmpOp::Lt, 1994),
            (CmpOp::Le, 1990),
            (CmpOp::Gt, 2100),
            (CmpOp::Ge, 1800),
        ] {
            let l = Expr::Literal(vec![Tuple::singleton(s("y1"), Value::Int(year))])
                .project_syms(vec![s("y1")]);
            let pred = Scalar::attr_cmp(op, "y1", "y2");
            let e = if anti {
                l.antijoin(year_build.clone(), pred)
            } else {
                l.semijoin(year_build.clone(), pred)
            };
            let plan = engine::compile_indexed(&e, &cat);
            assert!(plan.explain().contains("IndexRange"), "{}", plan.explain());
            assert_scan_and_index_agree(&e, &cat);
        }
    }
    // Two-sided band over one column (string regime) with both bounds
    // tuple-dependent.
    let l = title_probe_rel(&probe_keys);
    let band = l.semijoin(
        title_build("bib.xml"),
        Scalar::attr_cmp(CmpOp::Le, "t1", "t2").and(Scalar::cmp(
            CmpOp::Lt,
            Scalar::attr("t2"),
            Scalar::string("zz"),
        )),
    );
    let plan = engine::compile_indexed(&band, &cat);
    assert!(plan.explain().contains("IndexRange"), "{}", plan.explain());
    assert_scan_and_index_agree(&band, &cat);
}

#[test]
fn nan_probes_match_nothing_on_scan_and_index_paths() {
    // Regression for the NaN key-semantics decision: NaN behaves like
    // NULL — an equality or inequality probe carrying NaN matches no
    // build row on either access path.
    let mut cat = Catalog::new();
    cat.register(
        xmldb::parse_document(
            "nums.xml",
            "<r><v>1</v><v>2</v><v>NaN</v><v>30</v><v>abc</v></r>",
        )
        .expect("well-formed"),
    );
    let build = doc_scan("d2", "nums.xml")
        .unnest_map("v2", Scalar::attr("d2").path(p("//v")))
        .project(&["v2"]);
    let rows = vec![
        Tuple::singleton(s("v1"), Value::Dec(nal::Dec(f64::NAN))),
        Tuple::singleton(s("v1"), Value::Dec(nal::Dec(2.0))),
        Tuple::singleton(s("v1"), Value::Null),
    ];
    for anti in [false, true] {
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let l = Expr::Literal(rows.clone()).project_syms(vec![s("v1")]);
            let pred = Scalar::attr_cmp(op, "v1", "v2");
            let e = if anti {
                l.antijoin(build.clone(), pred)
            } else {
                l.semijoin(build.clone(), pred)
            };
            let m = engine::run_compiled(&engine::compile(&e), &cat).expect("scan");
            assert_scan_and_index_agree(&e, &cat);
            // Semantic pin, not just differential: the NaN and NULL rows
            // match nothing — semi drops them, anti keeps them.
            let nan_kept = m
                .rows
                .iter()
                .any(|t| matches!(t.get(s("v1")), Some(Value::Dec(d)) if d.0.is_nan()));
            assert_eq!(nan_kept, anti, "NaN row must match nothing ({op:?})");
        }
    }
    // And a NaN *in the document* is unmatchable from the probe side:
    // even `v1 = NaN-valued-node` finds nothing.
    let l = Expr::Literal(vec![Tuple::singleton(
        s("v1"),
        Value::Dec(nal::Dec(f64::NAN)),
    )])
    .project_syms(vec![s("v1")]);
    let e = l.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "v1", "v2"));
    let m = engine::run_compiled(&engine::compile(&e), &cat).expect("scan");
    assert!(m.rows.is_empty(), "NaN = NaN must not match");
    assert_scan_and_index_agree(&e, &cat);
}

#[test]
fn negative_zero_probes_hit_positive_zero_keys() {
    // Regression for the -0.0 canonicalization: -0.0 and 0.0 are one key
    // point on every access path.
    let mut cat = Catalog::new();
    cat.register(
        xmldb::parse_document("z.xml", "<r><v>0</v><v>-0</v><v>0.0</v><v>7</v></r>")
            .expect("well-formed"),
    );
    let build = doc_scan("d2", "z.xml")
        .unnest_map("v2", Scalar::attr("d2").path(p("//v")))
        .project(&["v2"]);
    for probe in [-0.0f64, 0.0] {
        for op in [CmpOp::Eq, CmpOp::Le, CmpOp::Ge, CmpOp::Lt, CmpOp::Gt] {
            // Constant-bound predicate: compiles to a loop join on the
            // scan side (numeric coercion semantics) and to a range
            // probe — an `=` bound is a point seek at the canonical
            // zero — on the indexed side.
            let l = Expr::Literal(vec![Tuple::singleton(s("x"), Value::Int(1))])
                .project_syms(vec![s("x")]);
            let pred = Scalar::cmp(
                op,
                Scalar::Const(Value::Dec(nal::Dec(probe))),
                Scalar::attr("v2"),
            );
            let e = l.semijoin(build.clone(), pred);
            let plan = engine::compile_indexed(&e, &cat);
            assert!(plan.explain().contains("IndexRange"), "{}", plan.explain());
            let m = engine::run_compiled(&engine::compile(&e), &cat).expect("scan");
            assert_scan_and_index_agree(&e, &cat);
            if op == CmpOp::Eq {
                assert_eq!(m.rows.len(), 1, "{probe} = zero keys must match");
            }
        }
    }
}

#[test]
fn range_joins_with_residuals_and_reconstructed_ancestors() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 40,
        authors_per_book: 2,
        seed: 8,
        ..BibConfig::default()
    }));
    // Inequality on the title key PLUS a residual over the book node one
    // fixed child step above it (rebuilt by parent navigation).
    let probe = doc_scan("d1", "bib.xml")
        .unnest_map("t1", Scalar::attr("d1").path(p("//book/title")))
        .project(&["t1"]);
    let build = doc_scan("d2", "bib.xml")
        .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
        .unnest_map("t2", Scalar::attr("b2").path(p("/title")));
    for (anti, year) in [(false, 1993), (true, 1993), (false, 2100), (true, 1800)] {
        let pred = Scalar::attr_cmp(CmpOp::Lt, "t1", "t2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("b2").path(p("/@year")),
            Scalar::int(year),
        ));
        let e = if anti {
            probe.clone().antijoin(build.clone(), pred)
        } else {
            probe.clone().semijoin(build.clone(), pred)
        };
        let plan = engine::compile_indexed(&e, &cat);
        assert!(plan.explain().contains("IndexRange"), "{}", plan.explain());
        assert_scan_and_index_agree(&e, &cat);
    }
}

#[test]
fn vacuous_range_quantifiers_on_empty_documents() {
    let mut cat = Catalog::new();
    cat.register(xmldb::parse_document("bib.xml", "<bib></bib>").expect("well-formed empty doc"));
    // Empty build: `some` is false for every probe (semi emits nothing),
    // `every` is vacuously true (anti emits everything) — on all paths.
    for op in [CmpOp::Lt, CmpOp::Ge] {
        let semi = title_probe_rel(&["a", "b"])
            .semijoin(title_build("bib.xml"), Scalar::attr_cmp(op, "t1", "t2"));
        let anti = title_probe_rel(&["a", "b"])
            .antijoin(title_build("bib.xml"), Scalar::attr_cmp(op, "t1", "t2"));
        let (_, semi_m) = assert_scan_and_index_agree(&semi, &cat);
        assert_scan_and_index_agree(&anti, &cat);
        assert_eq!(semi_m.index_hits, 0);
        let anti_rows = engine::run_compiled(&engine::compile_indexed(&anti, &cat), &cat)
            .expect("runs")
            .rows;
        assert_eq!(anti_rows.len(), 2, "vacuous `every` keeps every tuple");
    }
}

#[test]
fn residual_joins_differential() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 40,
        authors_per_book: 2,
        seed: 6,
        ..BibConfig::default()
    }));
    // Build side: whole book nodes; residual filters on @year through
    // the build attribute (reconstructed by the index join).
    let probe = doc_scan("d1", "bib.xml")
        .unnest_map("b1", Scalar::attr("d1").path(p("//book")))
        .map("t1", Scalar::attr("b1").path(p("/title")))
        .project(&["t1"]);
    let build = doc_scan("d2", "bib.xml")
        .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
        .project(&["b2"]);
    for (anti, year) in [(false, 1993), (true, 1993), (false, 2100), (true, 1800)] {
        let pred = Scalar::attr_cmp(CmpOp::Eq, "t1", "b2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("b2").path(p("/@year")),
            Scalar::int(year),
        ));
        let e = if anti {
            probe.clone().antijoin(build.clone(), pred)
        } else {
            probe.clone().semijoin(build.clone(), pred)
        };
        let plan = engine::compile_indexed(&e, &cat);
        assert!(
            plan.explain().contains("IndexSemiJoin") || plan.explain().contains("IndexAntiJoin"),
            "{}",
            plan.explain()
        );
        assert_scan_and_index_agree(&e, &cat);
    }
}

#[test]
fn xi_output_order_is_preserved_through_index_joins() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 15,
        authors_per_book: 2,
        seed: 12,
        ..BibConfig::default()
    }));
    // Ξ on the probe side AND the join result: byte order must match
    // across both access paths.
    let probe = doc_scan("d1", "bib.xml")
        .unnest_map("t1", Scalar::attr("d1").path(p("//book/title")))
        .xi(xi_cmds(&["<probe>", "$t1", "</probe>"]));
    let e = probe
        .semijoin(
            title_build("bib.xml"),
            Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"),
        )
        .xi(xi_cmds(&["<hit>", "$t1", "</hit>"]));
    let (_, indexed) = assert_scan_and_index_agree(&e, &cat);
    assert!(indexed.index_lookups > 0, "join must be index-backed");
}

#[test]
fn vacuous_and_empty_probes() {
    let mut cat = Catalog::new();
    cat.register(xmldb::parse_document("bib.xml", "<bib></bib>").expect("well-formed empty doc"));
    // Empty document: semi join emits nothing, anti join emits all.
    let l = title_probe_rel(&["a", "b"]);
    let semi = l.clone().semijoin(
        title_build("bib.xml"),
        Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"),
    );
    let anti = l.antijoin(
        title_build("bib.xml"),
        Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"),
    );
    let (_, semi_m) = assert_scan_and_index_agree(&semi, &cat);
    assert_scan_and_index_agree(&anti, &cat);
    assert_eq!(semi_m.index_hits, 0);
    // NULL probe keys match nothing (semi) / everything (anti).
    let nullish = Expr::Literal(vec![
        Tuple::singleton(s("t1"), Value::Null),
        Tuple::singleton(s("t1"), Value::str("x")),
    ])
    .project_syms(vec![s("t1")]);
    let e = nullish.semijoin(
        title_build("bib.xml"),
        Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"),
    );
    assert_scan_and_index_agree(&e, &cat);
}

// ---------------------------------------------------------------------
// Crafted composite-key joins: hit/miss mixes, NaN/-0.0 components,
// residuals over fixed anchors
// ---------------------------------------------------------------------

/// Two-column probe relation `(t1, y1)`.
fn pair_probe_rel(pairs: &[(Value, Value)]) -> Expr {
    Expr::Literal(
        pairs
            .iter()
            .map(|(t, y)| Tuple::from_pairs(vec![(s("t1"), t.clone()), (s("y1"), y.clone())]))
            .collect(),
    )
    .project_syms(vec![s("t1"), s("y1")])
}

/// Build side binding book → title → @year (the composite shape).
fn title_year_build(uri: &str) -> Expr {
    doc_scan("d2", uri)
        .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
        .unnest_map("t2", Scalar::attr("b2").path(p("/title")))
        .unnest_map("y2", Scalar::attr("b2").path(p("/@year")))
}

#[test]
fn crafted_composite_joins_differential() {
    let mut cat = Catalog::new();
    let doc = gen_bib(&BibConfig {
        books: 30,
        authors_per_book: 2,
        seed: 14,
        ..BibConfig::default()
    });
    // Real (title, year) pairs for hits, plus crafted misses: wrong
    // pairing, unknown strings, numeric/NaN/-0.0/NULL components.
    let mut c = xpath::EvalCounters::default();
    let books = xpath::eval_path(&doc, &[NodeId::DOCUMENT], &p("//book"), &mut c);
    let mut pairs: Vec<(Value, Value)> = books
        .iter()
        .map(|&b| {
            let title = xpath::eval_path(&doc, &[b], &p("/title"), &mut c)[0];
            let year = xpath::eval_path(&doc, &[b], &p("/@year"), &mut c)[0];
            (
                Value::str(doc.string_value(title)),
                Value::str(doc.string_value(year)),
            )
        })
        .collect();
    let (t0, _) = pairs[0].clone();
    let (_, y1) = pairs[1].clone();
    pairs.push((t0.clone(), y1)); // cross-pairing: likely miss
    pairs.push((Value::str("no-such-title"), Value::str("1994")));
    pairs.push((t0.clone(), Value::Int(1994))); // numeric vs string key
    pairs.push((t0.clone(), Value::Dec(nal::Dec(f64::NAN)))); // unmatchable
    pairs.push((t0.clone(), Value::Dec(nal::Dec(-0.0)))); // numeric, misses string keys
    pairs.push((t0, Value::Null)); // NULL component matches nothing
    cat.register(doc);
    let pred = Scalar::attr_cmp(CmpOp::Eq, "t1", "t2").and(Scalar::attr_cmp(CmpOp::Eq, "y1", "y2"));
    for anti in [false, true] {
        let l = pair_probe_rel(&pairs);
        let e = if anti {
            l.antijoin(title_year_build("bib.xml"), pred.clone())
        } else {
            l.semijoin(title_year_build("bib.xml"), pred.clone())
        };
        let plan = engine::compile_indexed(&e, &cat);
        assert!(
            plan.explain().starts_with(if anti {
                "IndexCompositeAntiJoin"
            } else {
                "IndexCompositeSemiJoin"
            }),
            "{}",
            plan.explain()
        );
        let (scan, indexed) = assert_scan_and_index_agree(&e, &cat);
        // NaN and NULL components never reach the index (unmatchable by
        // canonicalization), mirroring the hash key's None.
        assert_eq!(indexed.index_lookups, (pairs.len() - 2) as u64);
        assert!(tuples_examined(&indexed) < tuples_examined(&scan));
    }
    // With a residual over the shared anchor (the book node, one fixed
    // hop above the primary), rows reconstruct before the residual runs.
    let l = pair_probe_rel(&pairs);
    let banded = pred.clone().and(Scalar::cmp(
        CmpOp::Gt,
        Scalar::attr("b2").path(p("/@year")),
        Scalar::int(1993),
    ));
    let e = l.semijoin(title_year_build("bib.xml"), banded);
    let plan = engine::compile_indexed(&e, &cat);
    assert!(
        plan.explain().starts_with("IndexCompositeSemiJoin"),
        "{}",
        plan.explain()
    );
    assert_scan_and_index_agree(&e, &cat);
    // Doc-rooted member columns (independent fan-out) convert too.
    let l = pair_probe_rel(&pairs);
    let cross_build = doc_scan("d2", "bib.xml")
        .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
        .unnest_map("y2", Scalar::attr("d2").path(p("//book/@year")));
    let e = l.semijoin(cross_build, pred);
    let plan = engine::compile_indexed(&e, &cat);
    assert!(
        plan.explain().starts_with("IndexCompositeSemiJoin"),
        "{}",
        plan.explain()
    );
    assert_scan_and_index_agree(&e, &cat);
}

#[test]
fn variable_depth_ancestor_joins_differential() {
    let mut cat = Catalog::new();
    cat.register(gen_bib(&BibConfig {
        books: 30,
        authors_per_book: 2,
        seed: 15,
        ..BibConfig::default()
    }));
    // l2 sits a descendant step below b2; the residual reads b2 — the
    // formerly-declining shape, now a point index join with matched
    // ancestor reconstruction.
    let probe = doc_scan("d1", "bib.xml")
        .unnest_map("l1", Scalar::attr("d1").path(p("//last")))
        .project(&["l1"]);
    let build = doc_scan("d2", "bib.xml")
        .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
        .unnest_map("l2", Scalar::attr("b2").path(p("//last")));
    for (anti, year) in [(false, 1993), (true, 1993), (false, 2100), (true, 1800)] {
        let pred = Scalar::attr_cmp(CmpOp::Eq, "l1", "l2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("b2").path(p("/@year")),
            Scalar::int(year),
        ));
        let e = if anti {
            probe.clone().antijoin(build.clone(), pred)
        } else {
            probe.clone().semijoin(build.clone(), pred)
        };
        let plan = engine::compile_indexed(&e, &cat);
        assert!(
            plan.explain().contains("IndexSemiJoin") || plan.explain().contains("IndexAntiJoin"),
            "{}",
            plan.explain()
        );
        let (scan, indexed) = assert_scan_and_index_agree(&e, &cat);
        assert!(indexed.index_lookups > 0);
        assert!(tuples_examined(&indexed) < tuples_examined(&scan));
    }
    // Two-level chain: b2 ← //book, a2 ← b2//author (variable), key ←
    // a2/last, residual over BOTH bindings.
    let probe2 = doc_scan("d1", "bib.xml")
        .unnest_map("l1", Scalar::attr("d1").path(p("//last")))
        .project(&["l1"]);
    let build2 = doc_scan("d2", "bib.xml")
        .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
        .unnest_map("a2", Scalar::attr("b2").path(p("//author")))
        .unnest_map("l2", Scalar::attr("a2").path(p("/last")));
    let pred = Scalar::attr_cmp(CmpOp::Eq, "l1", "l2")
        .and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("b2").path(p("/@year")),
            Scalar::int(1990),
        ))
        .and(Scalar::Call(
            nal::Func::Contains,
            vec![Scalar::attr("a2").path(p("/last")), Scalar::string("a")],
        ));
    let e = probe2.semijoin(build2, pred);
    let plan = engine::compile_indexed(&e, &cat);
    assert!(
        plan.explain().starts_with("IndexSemiJoin"),
        "{}",
        plan.explain()
    );
    assert_scan_and_index_agree(&e, &cat);
}

#[test]
fn variable_depth_reconstruction_with_nested_anchors() {
    // Nested same-name anchors: a <s> inside an <s>. Every (anchor, key)
    // pair is a build row, so the matched reconstruction must enumerate
    // multiple assignments per candidate — and the year-like filter on
    // the anchor decides existence.
    let mut cat = Catalog::new();
    cat.register(
        xmldb::parse_document(
            "nest.xml",
            r#"<r>
                 <s tag="outer"><s tag="inner"><k>v</k></s></s>
                 <s tag="solo"><k>w</k></s>
               </r>"#,
        )
        .expect("well-formed"),
    );
    let probe = Expr::Literal(vec![
        Tuple::singleton(s("k1"), Value::str("v")),
        Tuple::singleton(s("k1"), Value::str("w")),
        Tuple::singleton(s("k1"), Value::str("miss")),
    ])
    .project_syms(vec![s("k1")]);
    let build = doc_scan("d2", "nest.xml")
        .unnest_map("s2", Scalar::attr("d2").path(p("//s")))
        .unnest_map("k2", Scalar::attr("s2").path(p("//k")));
    for tag in ["outer", "inner", "solo", "none"] {
        let pred = Scalar::attr_cmp(CmpOp::Eq, "k1", "k2").and(Scalar::cmp(
            CmpOp::Eq,
            Scalar::attr("s2").path(p("/@tag")),
            Scalar::string(tag),
        ));
        for anti in [false, true] {
            let e = if anti {
                probe.clone().antijoin(build.clone(), pred.clone())
            } else {
                probe.clone().semijoin(build.clone(), pred.clone())
            };
            let plan = engine::compile_indexed(&e, &cat);
            assert!(
                plan.explain().contains("IndexSemiJoin")
                    || plan.explain().contains("IndexAntiJoin"),
                "{}",
                plan.explain()
            );
            assert_scan_and_index_agree(&e, &cat);
        }
    }
}

// ---------------------------------------------------------------------
// Randomized differential: probe keys with hit/miss/typed mixes
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_probes_stream_identically(
        picks in prop::collection::vec((0usize..40, prop::bool::ANY), 0..24),
        anti in prop::bool::ANY,
        books in 5usize..25,
    ) {
        let mut cat = Catalog::new();
        let doc = gen_bib(&BibConfig {
            books,
            authors_per_book: 2,
            seed: 21,
            ..BibConfig::default()
        });
        let titles: Vec<String> = {
            let mut c = xpath::EvalCounters::default();
            xpath::eval_path(&doc, &[NodeId::DOCUMENT], &p("//title"), &mut c)
                .into_iter()
                .map(|n| doc.string_value(n).into_owned())
                .collect()
        };
        cat.register(doc);
        // Mix of real titles (hits), synthetic strings (misses), and
        // out-of-range picks folded into misses.
        let rows: Vec<Tuple> = picks
            .iter()
            .map(|&(i, hit)| {
                let v = if hit && i < titles.len() {
                    Value::str(&titles[i])
                } else {
                    Value::str(format!("miss-{i}"))
                };
                Tuple::singleton(s("t1"), v)
            })
            .collect();
        let l = Expr::Literal(rows).project_syms(vec![s("t1")]);
        let pred = Scalar::attr_cmp(CmpOp::Eq, "t1", "t2");
        let e = if anti {
            l.antijoin(title_build("bib.xml"), pred)
        } else {
            l.semijoin(title_build("bib.xml"), pred)
        };
        assert_scan_and_index_agree(&e, &cat);
    }

    #[test]
    fn random_composite_probes_stream_identically(
        picks in prop::collection::vec((0usize..40, 0usize..6), 0..20),
        anti in prop::bool::ANY,
        books in 5usize..25,
    ) {
        let mut cat = Catalog::new();
        let doc = gen_bib(&BibConfig {
            books,
            authors_per_book: 2,
            seed: 27,
            ..BibConfig::default()
        });
        let mut c = xpath::EvalCounters::default();
        let pairs: Vec<(String, String)> = xpath::eval_path(&doc, &[NodeId::DOCUMENT], &p("//book"), &mut c)
            .into_iter()
            .map(|b| {
                let t = xpath::eval_path(&doc, &[b], &p("/title"), &mut c)[0];
                let y = xpath::eval_path(&doc, &[b], &p("/@year"), &mut c)[0];
                (
                    doc.string_value(t).into_owned(),
                    doc.string_value(y).into_owned(),
                )
            })
            .collect();
        cat.register(doc);
        // Mix of aligned pairs (hits), shuffled pairs (mostly misses),
        // and typed edge components (numeric, NaN, -0.0, NULL).
        let rows: Vec<Tuple> = picks
            .iter()
            .map(|&(i, mode)| {
                let (t, y): (Value, Value) = match mode {
                    0 if i < pairs.len() => {
                        (Value::str(&pairs[i].0), Value::str(&pairs[i].1))
                    }
                    1 if i < pairs.len() => {
                        let j = (i + 1) % pairs.len();
                        (Value::str(&pairs[i].0), Value::str(&pairs[j].1))
                    }
                    2 => (Value::str(format!("miss-{i}")), Value::str("1994")),
                    3 if i < pairs.len() => {
                        let parsed = pairs[i].1.parse::<f64>().unwrap_or(0.0);
                        (Value::str(&pairs[i].0), Value::Dec(nal::Dec(parsed)))
                    }
                    4 => (Value::str("x"), Value::Dec(nal::Dec(f64::NAN))),
                    5 => (Value::Dec(nal::Dec(-0.0)), Value::Null),
                    _ => (Value::str("y"), Value::str("z")),
                };
                Tuple::from_pairs(vec![(s("t1"), t), (s("y1"), y)])
            })
            .collect();
        let l = Expr::Literal(rows).project_syms(vec![s("t1"), s("y1")]);
        let pred = Scalar::attr_cmp(CmpOp::Eq, "t1", "t2")
            .and(Scalar::attr_cmp(CmpOp::Eq, "y1", "y2"));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("t2", Scalar::attr("b2").path(p("/title")))
            .unnest_map("y2", Scalar::attr("b2").path(p("/@year")));
        let e = if anti {
            l.antijoin(build, pred)
        } else {
            l.semijoin(build, pred)
        };
        let plan = engine::compile_indexed(&e, &cat);
        prop_assert!(plan.explain().contains("IndexComposite"), "{}", plan.explain());
        assert_scan_and_index_agree(&e, &cat);
    }

    #[test]
    fn random_deep_ancestor_probes_stream_identically(
        picks in prop::collection::vec((0usize..60, prop::bool::ANY), 0..20),
        year in 1980i64..2010,
        anti in prop::bool::ANY,
        books in 5usize..25,
    ) {
        let mut cat = Catalog::new();
        let doc = gen_bib(&BibConfig {
            books,
            authors_per_book: 2,
            seed: 29,
            ..BibConfig::default()
        });
        let lasts: Vec<String> = {
            let mut c = xpath::EvalCounters::default();
            xpath::eval_path(&doc, &[NodeId::DOCUMENT], &p("//last"), &mut c)
                .into_iter()
                .map(|n| doc.string_value(n).into_owned())
                .collect()
        };
        cat.register(doc);
        let rows: Vec<Tuple> = picks
            .iter()
            .map(|&(i, hit)| {
                let v = if hit && i < lasts.len() {
                    Value::str(&lasts[i])
                } else {
                    Value::str(format!("miss-{i}"))
                };
                Tuple::singleton(s("l1"), v)
            })
            .collect();
        let l = Expr::Literal(rows).project_syms(vec![s("l1")]);
        // The key sits a descendant step below b2; the residual needs b2.
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("l2", Scalar::attr("b2").path(p("//last")));
        let pred = Scalar::attr_cmp(CmpOp::Eq, "l1", "l2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("b2").path(p("/@year")),
            Scalar::int(year),
        ));
        let e = if anti {
            l.antijoin(build, pred)
        } else {
            l.semijoin(build, pred)
        };
        let plan = engine::compile_indexed(&e, &cat);
        prop_assert!(
            plan.explain().contains("IndexSemiJoin") || plan.explain().contains("IndexAntiJoin"),
            "{}", plan.explain()
        );
        assert_scan_and_index_agree(&e, &cat);
    }

    #[test]
    fn random_range_probes_stream_identically(
        picks in prop::collection::vec((0usize..40, prop::bool::ANY), 0..16),
        op_pick in 0usize..4,
        anti in prop::bool::ANY,
        books in 5usize..25,
    ) {
        let mut cat = Catalog::new();
        let doc = gen_bib(&BibConfig {
            books,
            authors_per_book: 2,
            seed: 23,
            ..BibConfig::default()
        });
        let titles: Vec<String> = {
            let mut c = xpath::EvalCounters::default();
            xpath::eval_path(&doc, &[NodeId::DOCUMENT], &p("//title"), &mut c)
                .into_iter()
                .map(|n| doc.string_value(n).into_owned())
                .collect()
        };
        cat.register(doc);
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op_pick];
        let rows: Vec<Tuple> = picks
            .iter()
            .map(|&(i, hit)| {
                let v = if hit && i < titles.len() {
                    Value::str(&titles[i])
                } else {
                    Value::str(format!("probe-{i}"))
                };
                Tuple::singleton(s("t1"), v)
            })
            .collect();
        let l = Expr::Literal(rows).project_syms(vec![s("t1")]);
        let pred = Scalar::attr_cmp(op, "t1", "t2");
        let e = if anti {
            l.antijoin(title_build("bib.xml"), pred)
        } else {
            l.semijoin(title_build("bib.xml"), pred)
        };
        let plan = engine::compile_indexed(&e, &cat);
        prop_assert!(plan.explain().contains("IndexRange"), "{}", plan.explain());
        assert_scan_and_index_agree(&e, &cat);
    }
}

// ---------------------------------------------------------------------
// Incremental index maintenance: updated documents, same guarantees
// ---------------------------------------------------------------------

/// A scripted batch of catalog-level updates against the standard
/// corpus: duplicate one record (before another), delete one, and
/// rewrite one text leaf — on each of the three documents the paper's
/// workloads read. Handles are re-snapshotted between steps so the
/// batch survives an ordering-key rebalance.
fn mutate_corpus(cat: &mut Catalog, seed: usize) {
    for uri in ["bib.xml", "reviews.xml", "prices.xml"] {
        let id = cat.by_uri(uri).unwrap();
        // Duplicate entry `seed % n` in front of entry `(seed + 2) % n`.
        {
            let doc = cat.doc(id).as_ref().clone();
            let root = doc.root_element().unwrap();
            let entries: Vec<NodeId> = doc.children(root).collect();
            let n = entries.len();
            assert!(n >= 3, "{uri}: corpus too small to mutate");
            let (src, before) = (entries[seed % n], entries[(seed + 2) % n]);
            cat.insert_subtree(id, root, Some(before), &doc, src)
                .unwrap();
        }
        // Delete entry `(seed + 1) % n`.
        {
            let doc = cat.doc(id).as_ref().clone();
            let root = doc.root_element().unwrap();
            let entries: Vec<NodeId> = doc.children(root).collect();
            let victim = entries[(seed + 1) % entries.len()];
            cat.delete_subtree(id, victim).unwrap();
        }
        // Rewrite the first text leaf of the first entry.
        {
            let doc = cat.doc(id).as_ref().clone();
            let root = doc.root_element().unwrap();
            let first = doc.children(root).next().unwrap();
            if let Some(text) = doc
                .descendants(first)
                .find(|&t| matches!(doc.kind(t), xmldb::NodeKind::Text))
            {
                cat.replace_text(id, text, "Updated Leaf").unwrap();
            }
        }
    }
}

/// Run every plan alternative of every workload (equality, range, and
/// composite) scan-based and index-backed on an *updated* corpus whose
/// indexes were warmed pre-update — so the indexed runs exercise
/// delta-maintained postings, and the scan runs are the ground truth.
#[test]
fn updated_corpus_stays_byte_identical_across_all_workloads() {
    let mut catalog = standard_catalog(30, 2, 7);
    let workloads: Vec<&ordered_unnesting::workloads::Workload> = ordered_unnesting::workloads::ALL
        .iter()
        .chain(ordered_unnesting::workloads::RANGE.iter())
        .chain(ordered_unnesting::workloads::COMPOSITE.iter())
        .collect();
    // Warm: run each workload's plans indexed once so every index the
    // plans probe is built and cached.
    let mut plans: Vec<Expr> = Vec::new();
    for w in &workloads {
        let nested = xquery::compile(w.query, &catalog)
            .unwrap_or_else(|e| panic!("[{}] compile failed: {e}", w.id));
        for plan in unnest::enumerate_plans(&nested, &catalog) {
            engine::run_indexed(&plan.expr, &catalog).expect("warm indexed run");
            plans.push(plan.expr);
        }
    }
    let warmed = catalog.index_maintenance_stats();
    mutate_corpus(&mut catalog, 5);
    for expr in &plans {
        assert_scan_and_index_agree(expr, &catalog);
    }
    let after = catalog.index_maintenance_stats();
    assert!(
        after.delta_updates >= 9,
        "three updates on three documents must apply as deltas (got {})",
        after.delta_updates
    );
    assert_eq!(
        after.full_builds, warmed.full_builds,
        "post-update indexed runs must reuse the delta-maintained indexes"
    );
}

/// Plans (and their embedded access recipes) compiled *before* an
/// update keep producing scan-identical results when executed after it:
/// the recipe is declarative and the probe runtime resolves the
/// delta-maintained indexes freshly per execution.
#[test]
fn pre_update_compiled_plans_survive_deltas() {
    let mut catalog = standard_catalog(30, 2, 11);
    let workloads = [
        &ordered_unnesting::workloads::Q3_EXISTENTIAL,
        &ordered_unnesting::workloads::Q5_UNIVERSAL,
        &ordered_unnesting::workloads::Q7_RANGE_SOME,
        &ordered_unnesting::workloads::Q9_COMPOSITE,
    ];
    let mut compiled: Vec<(engine::PhysPlan, engine::PhysPlan)> = Vec::new();
    for w in workloads {
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        for plan in unnest::enumerate_plans(&nested, &catalog) {
            let scan = engine::compile(&plan.expr);
            let indexed = engine::compile_indexed(&plan.expr, &catalog);
            // Pre-update sanity.
            let a = engine::run_compiled(&scan, &catalog).unwrap();
            let b = engine::run_compiled(&indexed, &catalog).unwrap();
            assert_eq!(a.output, b.output);
            compiled.push((scan, indexed));
        }
    }
    mutate_corpus(&mut catalog, 2);
    for (scan, indexed) in &compiled {
        let a = engine::run_compiled(scan, &catalog).expect("scan plan");
        let b = engine::run_compiled(indexed, &catalog).expect("stale-epoch indexed plan");
        assert_eq!(a.rows, b.rows, "pre-update recipe diverged after deltas");
        assert_eq!(a.output, b.output);
    }
}

/// A stale recipe whose document was re-registered (not delta-updated)
/// still executes correctly: the rebuilt indexes resolve freshly.
#[test]
fn reregistration_rebuilds_and_recipes_recover() {
    let mut catalog = standard_catalog(20, 2, 3);
    let w = &ordered_unnesting::workloads::Q3_EXISTENTIAL;
    let nested = xquery::compile(w.query, &catalog).expect("compiles");
    let plan = unnest::enumerate_plans(&nested, &catalog)
        .into_iter()
        .find(|p| p.label == "semijoin")
        .expect("semijoin plan");
    let indexed = engine::compile_indexed(&plan.expr, &catalog);
    engine::run_compiled(&indexed, &catalog).expect("pre-update run");
    // Replace bib.xml wholesale (twice the books).
    catalog.register(gen_bib(&BibConfig {
        books: 40,
        authors_per_book: 2,
        seed: 3,
        ..BibConfig::default()
    }));
    let scan = engine::run_compiled(&engine::compile(&plan.expr), &catalog).unwrap();
    let idx = engine::run_compiled(&indexed, &catalog).expect("recipe recovers");
    assert_eq!(scan.output, idx.output);
}
