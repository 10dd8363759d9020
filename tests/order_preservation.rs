//! Order-preservation invariants — the property that distinguishes NAL
//! from the unordered algebras of the earlier unnesting literature.
//!
//! For every workload and every plan: the result elements appear in
//! document order of the driving sequence, and titles within each group
//! appear in document order (§5.1: "both expressions produce the titles
//! of each author in document order, as is required by the XQuery
//! semantics").

use nal::{eval_query, EvalCtx};
use ordered_unnesting::workloads::{Q1_GROUPING, Q3_EXISTENTIAL};
use xmldb::gen::{gen_bib, standard_catalog, BibConfig};
use xmldb::{Catalog, NodeId};

/// Extract the text of every `<title>…</title>` in the output, in order.
fn titles_in(output: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = output;
    while let Some(i) = rest.find("<title>") {
        let after = &rest[i + "<title>".len()..];
        let j = after.find("</title>").expect("well-formed output");
        out.push(after[..j].to_string());
        rest = &after[j..];
    }
    out
}

/// Document-order titles of books, one list per author value.
fn titles_per_author(catalog: &Catalog) -> std::collections::HashMap<String, Vec<String>> {
    let doc = catalog.doc_by_uri("bib.xml").unwrap();
    let mut map: std::collections::HashMap<String, Vec<String>> = Default::default();
    let mut counters = xpath::EvalCounters::default();
    let books = xpath::eval_path(
        doc,
        &[NodeId::DOCUMENT],
        &xpath::parse_path("//book").unwrap(),
        &mut counters,
    );
    for b in books {
        let title = xpath::eval_path(
            doc,
            &[b],
            &xpath::parse_path("/title").unwrap(),
            &mut counters,
        )
        .first()
        .map(|&t| doc.string_value(t).into_owned())
        .unwrap();
        for a in xpath::eval_path(
            doc,
            &[b],
            &xpath::parse_path("/author").unwrap(),
            &mut counters,
        ) {
            map.entry(doc.string_value(a).into_owned())
                .or_default()
                .push(title.clone());
        }
    }
    map
}

#[test]
fn grouping_plans_list_titles_in_document_order() {
    let mut catalog = Catalog::new();
    catalog.register(gen_bib(&BibConfig {
        books: 40,
        authors_per_book: 4,
        seed: 99,
        ..BibConfig::default()
    }));
    let expected = titles_per_author(&catalog);
    let nested = xquery::compile(Q1_GROUPING.query, &catalog).unwrap();
    for plan in unnest::enumerate_plans(&nested, &catalog) {
        let mut ctx = EvalCtx::new(&catalog);
        eval_query(&plan.expr, &mut ctx).unwrap();
        let output = ctx.take_output();
        // Per-author title lists must equal the document-order lists.
        for chunk in output.split("<author>").skip(1) {
            let name_start = chunk.find("<name>").unwrap() + "<name>".len();
            let name_end = chunk.find("</name>").unwrap();
            let name = &chunk[name_start..name_end];
            let got = titles_in(chunk);
            assert_eq!(
                Some(&got),
                expected.get(name),
                "plan `{}`: titles for {name} out of document order",
                plan.label
            );
        }
    }
}

#[test]
fn existential_plans_preserve_driving_document_order() {
    let catalog = standard_catalog(60, 2, 3);
    let doc = catalog.doc_by_uri("bib.xml").unwrap();
    let mut counters = xpath::EvalCounters::default();
    let all_titles: Vec<String> = xpath::eval_path(
        doc,
        &[NodeId::DOCUMENT],
        &xpath::parse_path("//book/title").unwrap(),
        &mut counters,
    )
    .into_iter()
    .map(|t| doc.string_value(t).into_owned())
    .collect();

    let nested = xquery::compile(Q3_EXISTENTIAL.query, &catalog).unwrap();
    for plan in unnest::enumerate_plans(&nested, &catalog) {
        let mut ctx = EvalCtx::new(&catalog);
        eval_query(&plan.expr, &mut ctx).unwrap();
        let got = titles_in(&ctx.take_output());
        // The result must be a subsequence of the document-order titles.
        let mut iter = all_titles.iter();
        for t in &got {
            assert!(
                iter.any(|x| x == t),
                "plan `{}`: `{t}` out of document order (or duplicated)",
                plan.label
            );
        }
    }
}

/// Operator-level invariant: every unary operator output preserves the
/// relative order of surviving input tuples (checked via node ids).
#[test]
fn engine_operators_preserve_relative_order() {
    use nal::expr::builder::*;
    use nal::{CmpOp, Scalar, Value};

    let catalog = standard_catalog(80, 3, 17);
    let scan = doc_scan("d", "bib.xml").unnest_map(
        "b",
        Scalar::attr("d").path(xpath::parse_path("//book").unwrap()),
    );
    let plans: Vec<nal::Expr> = vec![
        scan.clone().select(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("b").path(xpath::parse_path("@year").unwrap()),
            Scalar::int(1995),
        )),
        scan.clone().map("extra", Scalar::Const(Value::Int(1))),
        scan.clone().project(&["b"]),
        scan.unnest_map(
            "a",
            Scalar::attr("b").path(xpath::parse_path("/author").unwrap()),
        ),
    ];
    for plan in &plans {
        let r = engine::run(plan, &catalog).unwrap();
        let ids: Vec<u32> = r
            .rows
            .iter()
            .map(|t| {
                let Some(Value::Node(n)) = t.get(nal::Sym::new("b")) else {
                    panic!()
                };
                n.node.index() as u32
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "operator broke document order: {plan}");
    }
}
