//! The six queries of the paper's evaluation (§5), as compiled-ready
//! query strings plus metadata. Shared by the integration tests, the
//! examples, and the benchmark harness so every consumer runs the exact
//! same workloads.
//!
//! The queries are the paper's, lightly adapted:
//! * `$d2/book` is written `$d2//book` (the paper's `/book` from the
//!   document node would select nothing under a strict XPath reading),
//! * the `Suciu` author filter of §5.4 is generalized to a configurable
//!   needle so it selects a realistic fraction of our generated author
//!   pool.

/// One experiment workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Short identifier (table key in EXPERIMENTS.md).
    pub id: &'static str,
    /// Paper reference.
    pub paper_ref: &'static str,
    /// The XQuery text.
    pub query: &'static str,
    /// Documents it reads.
    pub documents: &'static [&'static str],
    /// The plan labels the paper's experiment compares (must all be
    /// produced by `unnest::enumerate_plans`).
    pub expected_plans: &'static [&'static str],
}

/// Query 1.1.9.4 — grouping (§5.1): restructure books by author.
pub const Q1_GROUPING: Workload = Workload {
    id: "q1-grouping",
    paper_ref: "§5.1, XMP query 1.1.9.4",
    query: r#"
        let $d1 := doc("bib.xml")
        for $a1 in distinct-values($d1//author)
        return
          <author>
            <name>{ $a1 }</name>
            {
              let $d2 := doc("bib.xml")
              for $b2 in $d2//book[$a1 = author]
              return $b2/title
            }
          </author>"#,
    documents: &["bib.xml"],
    expected_plans: &["nested", "outer join", "grouping", "group Ξ"],
};

/// Query 1.1.9.10 — aggregation (§5.2): minimum price per title.
pub const Q2_AGGREGATION: Workload = Workload {
    id: "q2-aggregation",
    paper_ref: "§5.2, XMP query 1.1.9.10",
    query: r#"
        let $d1 := doc("prices.xml")
        for $t1 in distinct-values($d1//book/title)
        let $m1 := min(let $d2 := doc("prices.xml")
                       for $p2 in $d2//book[title = $t1]/price
                       return decimal($p2))
        return
          <minprice title="{ $t1 }"><price>{ $m1 }</price></minprice>"#,
    documents: &["prices.xml"],
    expected_plans: &["nested", "grouping"],
};

/// Query 1.1.9.5 — existential quantification I (§5.3): books with reviews.
pub const Q3_EXISTENTIAL: Workload = Workload {
    id: "q3-existential",
    paper_ref: "§5.3, XMP query 1.1.9.5",
    query: r#"
        let $d1 := document("bib.xml")
        for $t1 in $d1//book/title
        where some $t2 in document("reviews.xml")//entry/title
              satisfies $t1 = $t2
        return
          <book-with-review>{ $t1 }</book-with-review>"#,
    documents: &["bib.xml", "reviews.xml"],
    expected_plans: &["nested", "semijoin"],
};

/// Existential quantification II (§5.4): authors of books that have an
/// author whose name contains the needle, phrased with `exists()`.
pub const Q4_EXISTS: Workload = Workload {
    id: "q4-exists",
    paper_ref: "§5.4 (existential via exists())",
    query: r#"
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
          <book>{ $a1 }</book>"#,
    documents: &["bib.xml"],
    expected_plans: &["nested", "semijoin", "grouping"],
};

/// Universal quantification (§5.5): authors whose books all appeared
/// after 1993.
pub const Q5_UNIVERSAL: Workload = Workload {
    id: "q5-universal",
    paper_ref: "§5.5 (universal quantification)",
    query: r#"
        let $d1 := doc("bib.xml")
        for $a1 in distinct-values($d1//author)
        where every $b2 in doc("bib.xml")//book[author = $a1]
              satisfies $b2/@year > 1993
        return
          <new-author>{ $a1 }</new-author>"#,
    documents: &["bib.xml"],
    expected_plans: &["nested", "anti-semijoin", "grouping"],
};

/// Query 1.4.4.14 — aggregation in the where clause (§5.6): items with at
/// least three bids.
pub const Q6_HAVING: Workload = Workload {
    id: "q6-having",
    paper_ref: "§5.6, R query 1.4.4.14",
    query: r#"
        let $d1 := document("bids.xml")
        for $i1 in distinct-values($d1//itemno)
        where count($d1//bidtuple[itemno = $i1]) >= 3
        return
          <popular-item>{ $i1 }</popular-item>"#,
    documents: &["bids.xml"],
    expected_plans: &["nested", "grouping"],
};

/// All six §5 workloads in paper order.
pub const ALL: [Workload; 6] = [
    Q1_GROUPING,
    Q2_AGGREGATION,
    Q3_EXISTENTIAL,
    Q4_EXISTS,
    Q5_UNIVERSAL,
    Q6_HAVING,
];

/// Inequality quantification I (§5.3-style, string regime): titles for
/// which some review title sorts strictly after them. The `some … < …`
/// predicate has no equality conjunct, so the scan plans run it as a
/// loop semi join — whose θ-probe orders the review titles once and
/// seeks each title's key window, verifying one candidate per probe;
/// the index plans probe the title index's ordered key space instead
/// (`IndexRangeJoin`), never scanning the reviews at all.
pub const Q7_RANGE_SOME: Workload = Workload {
    id: "q7-range-some",
    paper_ref: "§5.3-style (existential quantification, inequality)",
    query: r#"
        let $d1 := document("bib.xml")
        for $t1 in $d1//book/title
        where some $t2 in document("reviews.xml")//entry/title
              satisfies $t1 < $t2
        return
          <has-later-review>{ $t1 }</has-later-review>"#,
    documents: &["bib.xml", "reviews.xml"],
    expected_plans: &["nested", "semijoin"],
};

/// Inequality quantification II (§5.5-style, numeric regime): `every`
/// over a numeric floor that holds for the whole price population, i.e.
/// the vacuous-counterexample case. The predicate never mentions the
/// title, so the scan anti join tests each price against the floor
/// once, while it builds, and then answers every title from "no
/// counterexample kept" without examining a price; the range probe
/// skips the price scan too and answers with one empty seek (memoized:
/// the bounds are constants).
pub const Q8_RANGE_EVERY: Workload = Workload {
    id: "q8-range-every",
    paper_ref: "§5.5-style (universal quantification, inequality)",
    query: r#"
        let $d1 := document("bib.xml")
        for $t1 in $d1//book/title
        where every $p2 in document("prices.xml")//book/price
              satisfies $p2 > 5
        return
          <above-floor>{ $t1 }</above-floor>"#,
    documents: &["bib.xml", "prices.xml"],
    expected_plans: &["nested", "anti-semijoin"],
};

/// The inequality-quantifier workloads (the index differential suite
/// runs these in addition to [`ALL`]).
pub const RANGE: [Workload; 2] = [Q7_RANGE_SOME, Q8_RANGE_EVERY];

/// Composite-key quantification (§5.4-style, two keys): books sharing
/// *both* title and year with some book of the (same) catalog. The
/// existential correlates on two columns, so the rewritten plan is a
/// **multi-key** hash semi join — which the scan engine must build and
/// bucket — while the indexed engine probes the lexicographic
/// composite value index (`IndexCompositeSemiJoin`), never executing
/// the build side.
pub const Q9_COMPOSITE: Workload = Workload {
    id: "q9-composite",
    paper_ref: "§5.4-style (existential quantification, two keys)",
    query: r#"
        let $d1 := doc("bib.xml")
        for $b1 in $d1//book,
            $t1 in $b1/title,
            $y1 in $b1/@year
        where exists(
            let $d2 := doc("bib.xml")
            for $b2 in $d2//book,
                $t2 in $b2/title,
                $y2 in $b2/@year
            where $t1 = $t2 and $y1 = $y2
            return $b2)
        return
          <same-title-year>{ $t1 }</same-title-year>"#,
    documents: &["bib.xml"],
    expected_plans: &["nested", "semijoin"],
};

/// Deep-ancestor quantification (§5.3-style): last names that appear in
/// some sufficiently recent book, where the name binding sits a
/// *descendant* step below the book binding (`$l2 in $b2//last`) and
/// the year filter references the book. The residual needs `$b2`, whose
/// depth above the key node is variable — the index join reconstructs
/// it by matching the candidate's ancestor trail against `//book`
/// (formerly a decline case; the scan plan stays a hash semi join over
/// the full build).
pub const Q10_DEEP: Workload = Workload {
    id: "q10-deep",
    paper_ref: "§5.3-style (existential quantification, variable-depth ancestor)",
    query: r#"
        let $d1 := doc("bib.xml")
        for $l1 in $d1//last
        where exists(
            let $d2 := doc("bib.xml")
            for $b2 in $d2//book,
                $l2 in $b2//last
            where $l1 = $l2 and $b2/@year > 1993
            return $b2)
        return
          <recent-author>{ $l1 }</recent-author>"#,
    documents: &["bib.xml"],
    expected_plans: &["nested", "semijoin"],
};

/// The composite/deep access-path workloads (the index differential
/// suite runs these in addition to [`ALL`] and [`RANGE`]).
pub const COMPOSITE: [Workload; 2] = [Q9_COMPOSITE, Q10_DEEP];

/// The §5.1 DBLP-style variant of Q1: same query against `dblp.xml`,
/// where the Eqv. 5 precondition fails and only the outer-join plan is
/// sound.
pub const Q1_DBLP: Workload = Workload {
    id: "q1-dblp",
    paper_ref: "§5.1 (DBLP anecdote)",
    query: r#"
        let $d1 := doc("dblp.xml")
        for $a1 in distinct-values($d1//author)
        return
          <author>
            <name>{ $a1 }</name>
            {
              let $d2 := doc("dblp.xml")
              for $b2 in $d2//book[$a1 = author]
              return $b2/title
            }
          </author>"#,
    documents: &["dblp.xml"],
    expected_plans: &["nested", "outer join"],
};
