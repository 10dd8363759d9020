//! The pipeline against the reference evaluator: run the §5.3
//! quantifier workload's unnested plan on the engine and the nested query
//! on `nal::eval_query`, check the Ξ output is byte-identical, and show
//! the engine's short-circuit counters.
//!
//! ```sh
//! cargo run --release --example streaming
//! ```

use xmldb::gen::{gen_bib, gen_reviews, BibConfig, ReviewsConfig};
use xmldb::Catalog;

fn main() {
    let mut catalog = Catalog::new();
    catalog.register(gen_bib(&BibConfig {
        books: 400,
        authors_per_book: 3,
        ..BibConfig::default()
    }));
    catalog.register(gen_reviews(&ReviewsConfig {
        entries: 400,
        ..ReviewsConfig::default()
    }));

    // "Books with a review" — existential quantification (§5.3).
    let query = r#"
        let $d1 := document("bib.xml")
        for $t1 in $d1//book/title
        where some $t2 in document("reviews.xml")//entry/title
              satisfies $t1 = $t2
        return <book-with-review>{ $t1 }</book-with-review>"#;

    let nested = xquery::compile(query, &catalog).expect("query compiles");
    let (plan, _) = unnest::unnest_best(&nested, &catalog);

    let start = std::time::Instant::now();
    let mut ctx = nal::EvalCtx::new(&catalog);
    nal::eval_query(&nested, &mut ctx).expect("reference evaluation");
    let reference = (ctx.take_output(), start.elapsed());
    let stream = engine::run(&plan, &catalog).expect("engine run");
    assert_eq!(
        reference.0, stream.output,
        "engine and reference must agree byte-for-byte"
    );

    println!("== §5.3 existential workload ==");
    println!("output bytes        : {}", stream.output.len());
    println!("nested, reference   : {:>10.3?}", reference.1);
    println!("unnested, engine    : {:>10.3?}", stream.elapsed);
    println!(
        "probe tuples        : {} (nested-loop bound would be {})",
        stream.metrics.probe_tuples,
        400 * 400
    );
    println!("tuples per operator :");
    for (op, n) in stream.metrics.op_tuples.iter() {
        println!("  {op:<14} {n}");
    }
}
