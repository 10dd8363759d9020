//! The two executors side by side: run the §5.3 quantifier workload on
//! the materializing and the streaming engine, check the Ξ output is
//! byte-identical, and show the streaming executor's short-circuit
//! counters.
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

    let mat = engine::run(&plan, &catalog).expect("materializing run");
    let stream = engine::run_streaming(&plan, &catalog).expect("streaming run");
    assert_eq!(
        mat.output, stream.output,
        "executors must agree byte-for-byte"
    );

    println!("== §5.3 existential workload, unnested plan ==");
    println!("output bytes        : {}", stream.output.len());
    println!("materialized        : {:>10.3?}", mat.elapsed);
    println!("streaming           : {:>10.3?}", stream.elapsed);
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
