//! Index-backed access paths: the recipe IR, its tracer, and the
//! runtime that executes it.
//!
//! [`apply_indexes`] is a physical rewrite pass over a compiled
//! [`PhysPlan`]: it recognizes document-rooted path scans and semi/anti
//! quantifier joins whose build side is such a scan, and replaces them
//! with [`PhysPlan::IndexScan`] operators and [`PhysPlan::IndexJoin`]
//! operators carrying a declarative [`AccessRecipe`] — backed by the
//! catalog's [`xmldb::PathIndex`] / [`xmldb::ValueIndex`] /
//! [`xmldb::CompositeValueIndex`].
//!
//! The module is split by role:
//!
//! * [`recipe`] — the IR: [`AccessRecipe`], [`Driver`] (point /
//!   composite / range), ancestor reconstruction ([`AncestorMode`]),
//!   replay pipeline, residual;
//! * [`trace`] — the **single convertibility predicate**
//!   ([`join_recipe`]): everything that proves a conversion
//!   output-preserving lives there, and the cost model consumes the same
//!   function, so pricing can never claim an access path the engine
//!   declines;
//! * [`probe`] — recipe execution ([`probe::IndexJoinAccess`]): the one
//!   place probe semantics and `index_lookups`/`index_hits` accounting
//!   are defined.
//!
//! The pass stays *conservative by construction*: a conversion happens
//! only when the replaced subtree provably produces the same tuple
//! sequence — same nodes, same document order, same duplicate structure,
//! same residual-evaluation order — so every converted plan stays
//! byte-identical in rows and Ξ output to its scan-based original (the
//! differential suite `tests/index_vs_scan.rs` enforces this across the
//! paper's workloads). Anything the tracer cannot
//! prove is left untouched and keeps scanning.

pub mod probe;
pub mod recipe;
pub mod trace;

pub use probe::IndexJoinAccess;
pub use recipe::{AccessRecipe, AncestorMode, BuildOp, Driver, RangeProbe};
pub use trace::join_recipe;

use std::sync::Arc;

use nal::eval::{EvalCtx, EvalError, EvalResult};
use nal::{NodeRef, Value};
use xmldb::{Catalog, PathPattern, PatternStep};
use xpath::{Axis, NameTest, Path};

use crate::plan::PhysPlan;

/// Convert a structural path into its index-side pattern form. Total:
/// every axis/test combination is representable (resolvability is
/// checked by the index at lookup time).
pub fn pattern_of(path: &Path) -> PathPattern {
    let steps = path
        .steps
        .iter()
        .map(|s| {
            let name = match &s.test {
                NameTest::Any => None,
                NameTest::Name(n) => Some(n.clone()),
            };
            match s.axis {
                Axis::Child => PatternStep::Child(name),
                Axis::Descendant => PatternStep::Descendant(name),
                Axis::Attribute => PatternStep::Attribute(name),
            }
        })
        .collect();
    PathPattern::new(steps)
}

// ---------------------------------------------------------------------
// Plan revalidation (the plan-cache re-resolution surface)
// ---------------------------------------------------------------------

/// One access path embedded in a compiled plan: a doc-rooted index scan
/// or an index-backed quantifier join's recipe.
pub enum AccessPathRef<'p> {
    /// A [`PhysPlan::IndexScan`]'s document and pattern.
    Scan {
        /// Document URI the scan resolves through the catalog.
        uri: &'p str,
        /// The scanned pattern.
        pattern: &'p PathPattern,
    },
    /// A [`PhysPlan::IndexJoin`]'s recipe.
    Join(&'p AccessRecipe),
}

/// Visit every access path embedded anywhere in `plan`, in plan order.
pub fn for_each_access_path<'p>(plan: &'p PhysPlan, f: &mut impl FnMut(AccessPathRef<'p>)) {
    plan.walk(&mut |node| match node {
        PhysPlan::IndexScan { uri, pattern, .. } => f(AccessPathRef::Scan { uri, pattern }),
        PhysPlan::IndexJoin { recipe, .. } => f(AccessPathRef::Join(recipe)),
        _ => {}
    });
}

/// Re-validate every access path of a compiled plan against the
/// catalog's *current* state — the plan-cache counterpart of the
/// stale-recipe check in [`IndexJoinAccess::resolve`].
///
/// Recipes are declarative: execution resolves their backing indexes
/// freshly every run, so a plan compiled before a document update stays
/// *correct* as long as each referenced pattern still resolves. This
/// walk performs exactly the resolutions execution would (path-index
/// lookup for scans, value/composite index for join recipes, building
/// lazily as needed) and reports the first one that no longer does —
/// e.g. after a URI was re-registered with structurally different
/// content. On `Ok(n)`, the plan's `n` access paths are all serviceable
/// at the current epochs and the cached plan can be re-used without
/// re-planning; on `Err`, the caller should recompile.
pub fn revalidate_plan(plan: &PhysPlan, catalog: &Catalog) -> Result<usize, String> {
    let mut checked = 0usize;
    let mut failure: Option<String> = None;
    for_each_access_path(plan, &mut |ap| {
        if failure.is_some() {
            return;
        }
        checked += 1;
        let (uri, outcome) = match ap {
            AccessPathRef::Scan { uri, pattern } => {
                let ok = catalog
                    .by_uri(uri)
                    .map(|id| catalog.path_index(id).lookup(pattern).is_some())
                    .unwrap_or(false);
                (uri, ok.then_some(()).ok_or(pattern.to_string()))
            }
            AccessPathRef::Join(recipe) => {
                let ok = catalog
                    .by_uri(&recipe.uri)
                    .is_some_and(|id| match &recipe.driver {
                        Driver::Composite { spec, .. } => {
                            catalog.composite_index(id, spec).is_some()
                        }
                        _ => catalog.value_index(id, &recipe.pattern).is_some(),
                    });
                (
                    recipe.uri.as_str(),
                    ok.then_some(()).ok_or(recipe.pattern.to_string()),
                )
            }
        };
        if let Err(pattern) = outcome {
            failure = Some(format!(
                "access path `{pattern}` over `{uri}` no longer resolves"
            ));
        }
    });
    match failure {
        Some(msg) => Err(msg),
        None => Ok(checked),
    }
}

// ---------------------------------------------------------------------
// Runtime access
// ---------------------------------------------------------------------

/// Resolve `uri` to its catalog id, or a standard evaluation error.
pub(crate) fn doc_id_of(uri: &str, ctx: &EvalCtx<'_>) -> EvalResult<xmldb::DocId> {
    ctx.catalog
        .by_uri(uri)
        .ok_or_else(|| EvalError::new(format!("unknown document `{uri}`")))
}

/// The item sequence an [`PhysPlan::IndexScan`] fans out: the pattern's
/// nodes in document order, or (with `distinct`) their first-occurrence
/// distinct atomized values — exactly what the replaced Υ subscript
/// produced, without touching the document tree.
pub(crate) fn scan_items(
    uri: &str,
    pattern: &PathPattern,
    distinct: bool,
    ctx: &mut EvalCtx<'_>,
) -> EvalResult<Vec<Value>> {
    let id = doc_id_of(uri, ctx)?;
    let pidx = ctx.catalog.path_index(id);
    ctx.metrics.index_lookups += 1;
    let nodes = pidx.lookup(pattern).ok_or_else(|| {
        EvalError::new(format!(
            "pattern `{pattern}` is not resolvable by the path index"
        ))
    })?;
    if !nodes.is_empty() {
        ctx.metrics.index_hits += 1;
    }
    if distinct {
        let doc = ctx.catalog.doc(id).clone();
        let values: Vec<Value> = nodes
            .into_iter()
            .map(|n| Value::str(doc.string_value(n)))
            .collect();
        Ok(nal::sequence::dedup_first_occurrence(&values))
    } else {
        Ok(nodes
            .into_iter()
            .map(|node| Value::Node(NodeRef { doc: id, node }))
            .collect())
    }
}

// ---------------------------------------------------------------------
// The rewrite pass
// ---------------------------------------------------------------------

/// Rewrite a compiled plan to use index-backed access paths wherever the
/// conversion is provably output-preserving. `catalog` gates conversions
/// on the referenced document actually being registered.
pub fn apply_indexes(plan: PhysPlan, catalog: &Catalog) -> PhysPlan {
    // Try a conversion at this node first (the tracers inspect the
    // *unconverted* children), then recurse.
    let plan = try_convert(plan, catalog);
    map_children(plan, &mut |child| apply_indexes(child, catalog))
}

fn try_convert(plan: PhysPlan, catalog: &Catalog) -> PhysPlan {
    match plan {
        PhysPlan::UnnestMap {
            input,
            attr,
            value,
            blocks,
            fused,
            keep,
        } => match trace::doc_rooted_path(&value, &input, false) {
            Some((uri, path, distinct)) if trace::scan_convertible(&uri, &path, catalog) => {
                PhysPlan::IndexScan {
                    input,
                    attr,
                    uri,
                    pattern: pattern_of(&path),
                    distinct,
                    // The scan binds what the Υ bound: what is read of
                    // it above has not changed.
                    keep,
                }
            }
            _ => PhysPlan::UnnestMap {
                input,
                attr,
                value,
                blocks,
                fused,
                keep,
            },
        },
        PhysPlan::Join { .. } => match (join_recipe(&plan, catalog), plan) {
            (Some(recipe), PhysPlan::Join { left, .. }) => PhysPlan::IndexJoin {
                left,
                recipe: Arc::new(recipe),
            },
            (_, plan) => plan,
        },
        other => other,
    }
}

/// The plan with every direct child mapped through `f`.
fn map_children(mut plan: PhysPlan, f: &mut impl FnMut(PhysPlan) -> PhysPlan) -> PhysPlan {
    for child in plan.children_mut() {
        *child = f(std::mem::replace(child, PhysPlan::Singleton));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinKind;
    use nal::expr::builder::*;
    use nal::{CmpOp, Scalar, Sym};
    use xmldb::gen::{gen_bib, BibConfig};
    use xpath::parse_path;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(gen_bib(&BibConfig {
            books: 10,
            authors_per_book: 2,
            ..BibConfig::default()
        }));
        cat
    }

    fn p(s: &str) -> Path {
        parse_path(s).unwrap()
    }

    /// Destructure the root as an index join and return its recipe.
    fn root_recipe(plan: &PhysPlan) -> &AccessRecipe {
        let PhysPlan::IndexJoin { recipe, .. } = plan else {
            panic!("expected an index join: {}", plan.explain());
        };
        recipe
    }

    #[test]
    fn doc_rooted_scan_converts() {
        let cat = catalog();
        let e = doc_scan("d", "bib.xml").unnest_map("b", Scalar::attr("d").path(p("//book")));
        let plan = apply_indexes(crate::compile(&e), &cat);
        let ex = plan.explain();
        assert!(ex.starts_with("IndexScan"), "{ex}");
    }

    #[test]
    fn distinct_scan_converts_with_flag() {
        let cat = catalog();
        let e = doc_scan("d", "bib.xml")
            .unnest_map("a", Scalar::attr("d").path(p("//author")).distinct());
        let plan = apply_indexes(crate::compile(&e), &cat);
        let PhysPlan::IndexScan { distinct, .. } = &plan else {
            panic!("{}", plan.explain());
        };
        assert!(distinct);
    }

    #[test]
    fn per_tuple_paths_do_not_convert() {
        let cat = catalog();
        // b is bound per tuple: the author step depends on the book.
        let e = doc_scan("d", "bib.xml")
            .unnest_map("b", Scalar::attr("d").path(p("//book")))
            .unnest_map("a", Scalar::attr("b").path(p("/author")));
        let plan = apply_indexes(crate::compile(&e), &cat);
        let PhysPlan::UnnestMap { input, .. } = &plan else {
            panic!("outer Υ must stay scan-based: {}", plan.explain());
        };
        assert!(
            matches!(input.as_ref(), PhysPlan::IndexScan { .. }),
            "inner doc-rooted Υ must convert: {}",
            plan.explain()
        );
    }

    #[test]
    fn unknown_documents_do_not_convert() {
        let cat = Catalog::new();
        let e = doc_scan("d", "bib.xml").unnest_map("b", Scalar::attr("d").path(p("//book")));
        let plan = apply_indexes(crate::compile(&e), &cat);
        assert!(matches!(plan, PhysPlan::UnnestMap { .. }));
    }

    #[test]
    fn semi_join_on_doc_scan_build_converts() {
        let cat = catalog();
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .project(&["t2"]);
        let e = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        let plan = apply_indexes(crate::compile(&e), &cat);
        let recipe = root_recipe(&plan);
        assert_eq!(recipe.kind, JoinKind::Semi);
        assert!(matches!(recipe.driver, Driver::Point { .. }));
        assert_eq!(recipe.pattern.key(), "//book/title");
    }

    #[test]
    fn composed_build_chain_converts() {
        let cat = catalog();
        let probe = doc_scan("d1", "bib.xml")
            .unnest_map("a1", Scalar::attr("d1").path(p("//author")).distinct());
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("a2", Scalar::attr("b2").path(p("/author")))
            .project(&["a2"]);
        let e = probe.antijoin(build, Scalar::attr_cmp(CmpOp::Eq, "a1", "a2"));
        let plan = apply_indexes(crate::compile(&e), &cat);
        let recipe = root_recipe(&plan);
        assert_eq!(recipe.kind, JoinKind::Anti);
        assert_eq!(recipe.pattern.key(), "//book/author");
    }

    #[test]
    fn residual_over_reconstructed_ancestor_converts() {
        let cat = catalog();
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("t2", Scalar::attr("b2").path(p("/title")));
        // The residual touches b2 — one fixed child step above the key,
        // so the index join reconstructs it by parent navigation.
        let pred = Scalar::attr_cmp(CmpOp::Eq, "t1", "t2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("b2").path(p("/@year")),
            Scalar::int(1990),
        ));
        let e = probe.semijoin(build, pred);
        let plan = apply_indexes(crate::compile(&e), &cat);
        let recipe = root_recipe(&plan);
        let AncestorMode::Fixed(seeds) = &recipe.ancestors else {
            panic!("fixed-depth chain expected");
        };
        assert!(
            seeds.iter().any(|(a, d)| *a == Sym::new("b2") && *d == 1),
            "b2 must be seeded as the key's parent"
        );
    }

    #[test]
    fn variable_depth_ancestor_reference_converts_to_matched_chain() {
        let cat = catalog();
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("l1", Scalar::attr("d1").path(p("//last")));
        // l2 sits a *descendant* step below b2: depth is variable, and
        // the residual needs b2 — formerly a decline, now reconstructed
        // by matching the candidate's ancestor trail against //book.
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("l2", Scalar::attr("b2").path(p("//last")));
        let pred = Scalar::attr_cmp(CmpOp::Eq, "l1", "l2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("b2").path(p("/@year")),
            Scalar::int(1990),
        ));
        let e = probe.semijoin(build, pred);
        let plan = apply_indexes(crate::compile(&e), &cat);
        let recipe = root_recipe(&plan);
        assert_eq!(recipe.pattern.key(), "//book//last");
        let AncestorMode::Matched { attrs, spec } = &recipe.ancestors else {
            panic!("matched chain expected: {:?}", recipe.ancestors);
        };
        assert_eq!(attrs, &[Sym::new("b2")]);
        assert_eq!(spec.base.key(), "//book");
        assert_eq!(spec.rels.len(), 1);
        assert_eq!(spec.rels[0].key(), "//last");
        // Without the reference the binding is simply dropped, as before.
        let probe2 =
            doc_scan("d1", "bib.xml").unnest_map("l1", Scalar::attr("d1").path(p("//last")));
        let build2 = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("l2", Scalar::attr("b2").path(p("//last")));
        let e = probe2.semijoin(build2, Scalar::attr_cmp(CmpOp::Eq, "l1", "l2"));
        let plan = apply_indexes(crate::compile(&e), &cat);
        let recipe = root_recipe(&plan);
        assert!(matches!(&recipe.ancestors, AncestorMode::Fixed(v) if v.is_empty()));
    }

    #[test]
    fn matched_chains_decline_non_replay_safe_residuals() {
        // Matched reconstruction iterates (candidate, assignment) while
        // the scan bucket iterates (ancestor, candidate) — with nested
        // same-name anchors those interleave differently, so a residual
        // that can error (arithmetic) must keep the hash join scanning.
        let cat = catalog();
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("l1", Scalar::attr("d1").path(p("//last")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("l2", Scalar::attr("b2").path(p("//last")));
        let pred = Scalar::attr_cmp(CmpOp::Eq, "l1", "l2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::Arith(
                nal::ArithOp::Mul,
                Box::new(Scalar::attr("b2").path(p("/@year"))),
                Box::new(Scalar::int(1)),
            ),
            Scalar::int(0),
        ));
        let e = probe.semijoin(build, pred);
        let plan = apply_indexes(crate::compile(&e), &cat);
        assert!(plan.op_name() == "HashSemiJoin", "{}", plan.explain());
    }

    #[test]
    fn multi_key_semi_join_converts_to_composite() {
        let cat = catalog();
        let probe = doc_scan("d1", "bib.xml")
            .unnest_map("b1", Scalar::attr("d1").path(p("//book")))
            .unnest_map("t1", Scalar::attr("b1").path(p("/title")))
            .unnest_map("y1", Scalar::attr("b1").path(p("/@year")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .unnest_map("t2", Scalar::attr("b2").path(p("/title")))
            .unnest_map("y2", Scalar::attr("b2").path(p("/@year")));
        let pred =
            Scalar::attr_cmp(CmpOp::Eq, "t1", "t2").and(Scalar::attr_cmp(CmpOp::Eq, "y1", "y2"));
        let e = probe.semijoin(build, pred);
        let plan = apply_indexes(crate::compile(&e), &cat);
        let recipe = root_recipe(&plan);
        assert_eq!(plan.op_name(), "IndexCompositeSemiJoin");
        let Driver::Composite {
            probes,
            member_attrs,
            spec,
        } = &recipe.driver
        else {
            panic!("composite driver expected: {:?}", recipe.driver);
        };
        assert_eq!(probes, &[Sym::new("t1"), Sym::new("y1")]);
        assert_eq!(member_attrs, &[Sym::new("y2")]);
        assert_eq!(spec.primary.key(), "//book/title");
        assert_eq!(spec.members.len(), 1);
        assert_eq!(spec.members[0].levels, Some(1), "anchor is the book node");
        assert_eq!(spec.members[0].rel.key(), "/@year");
        assert_eq!(
            spec.key,
            vec![xmldb::KeyComponent::Primary, xmldb::KeyComponent::Member(0)]
        );
    }

    #[test]
    fn composite_declines_non_consecutive_or_unresolvable_members() {
        let cat = catalog();
        let probe = doc_scan("d1", "bib.xml")
            .unnest_map("t1", Scalar::attr("d1").path(p("//book/title")))
            .unnest_map("y1", Scalar::attr("d1").path(p("//book/@year")));
        // A member computed by χ (not a Υ binding) is not derivable from
        // the primary node at index-build time.
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .map("y2", Scalar::int(7));
        let pred =
            Scalar::attr_cmp(CmpOp::Eq, "t1", "t2").and(Scalar::attr_cmp(CmpOp::Eq, "y1", "y2"));
        let e = probe.semijoin(build, pred);
        let plan = apply_indexes(crate::compile(&e), &cat);
        assert!(plan.op_name() == "HashSemiJoin", "{}", plan.explain());
    }

    #[test]
    fn nested_expressions_in_build_filters_decline() {
        let cat = catalog();
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        // A quantifier inside the build-side filter: not replayable.
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .select(Scalar::Exists {
                var: Sym::new("x"),
                range: Box::new(nal::expr::builder::singleton().map("y", Scalar::int(1))),
                pred: Box::new(Scalar::Const(nal::Value::Bool(true))),
            })
            .project(&["t2"]);
        let e = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        let plan = apply_indexes(crate::compile(&e), &cat);
        assert!(plan.op_name() == "HashSemiJoin", "{}", plan.explain());
    }

    #[test]
    fn erroring_scalars_in_build_pipelines_decline() {
        let cat = catalog();
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        // Arithmetic can error on non-numeric rows the index join would
        // never replay — the scan plan's failure must be preserved.
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .select(Scalar::cmp(
                CmpOp::Gt,
                Scalar::Arith(
                    nal::ArithOp::Mul,
                    Box::new(Scalar::attr("t2")),
                    Box::new(Scalar::int(2)),
                ),
                Scalar::int(0),
            ))
            .project(&["t2"]);
        let e = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        let plan = apply_indexes(crate::compile(&e), &cat);
        assert!(plan.op_name() == "HashSemiJoin", "{}", plan.explain());
    }

    #[test]
    fn literal_build_sides_decline() {
        let cat = catalog();
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build =
            nal::Expr::Literal(vec![nal::Tuple::singleton(Sym::new("t2"), Value::str("x"))])
                .project_syms(vec![Sym::new("t2")]);
        let e = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        let plan = apply_indexes(crate::compile(&e), &cat);
        assert!(plan.op_name() == "HashSemiJoin", "{}", plan.explain());
    }

    #[test]
    fn residual_over_build_attr_converts() {
        let cat = catalog();
        let probe = doc_scan("d1", "bib.xml")
            .unnest_map("b1", Scalar::attr("d1").path(p("//book")))
            .map("t1", Scalar::attr("b1").path(p("/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .project(&["b2"]);
        let pred = Scalar::attr_cmp(CmpOp::Eq, "t1", "b2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("b2").path(p("/@year")),
            Scalar::int(1990),
        ));
        let e = probe.semijoin(build, pred);
        let plan = apply_indexes(crate::compile(&e), &cat);
        let recipe = root_recipe(&plan);
        assert!(recipe.residual.is_some());
    }

    #[test]
    fn filtered_build_side_converts_with_replayed_select() {
        let cat = catalog();
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .select(Scalar::Call(
                nal::Func::Contains,
                vec![Scalar::attr("t2"), Scalar::string("a")],
            ))
            .project(&["t2"]);
        let e = probe.semijoin(build, Scalar::attr_cmp(CmpOp::Eq, "t1", "t2"));
        let plan = apply_indexes(crate::compile(&e), &cat);
        let recipe = root_recipe(&plan);
        assert!(
            recipe.ops.iter().any(|o| matches!(o, BuildOp::Select(_))),
            "the pushed filter must be replayed per candidate"
        );
    }

    #[test]
    fn inequality_semi_and_anti_joins_convert_to_range_joins() {
        let cat = catalog();
        for (anti, op) in [
            (false, CmpOp::Lt),
            (false, CmpOp::Le),
            (true, CmpOp::Gt),
            (true, CmpOp::Ge),
        ] {
            let probe = doc_scan("d1", "bib.xml")
                .unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
            let build = doc_scan("d2", "bib.xml")
                .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
                .project(&["t2"]);
            let pred = Scalar::attr_cmp(op, "t1", "t2");
            let e = if anti {
                probe.antijoin(build, pred)
            } else {
                probe.semijoin(build, pred)
            };
            let plan = apply_indexes(crate::compile(&e), &cat);
            let recipe = root_recipe(&plan);
            let Driver::Range { eq_probe, ranges } = &recipe.driver else {
                panic!("{}", plan.explain());
            };
            assert_eq!(eq_probe, &None);
            assert_eq!(ranges.len(), 1);
            assert_eq!(ranges[0].op, op);
            assert_eq!(
                recipe.kind,
                if anti { JoinKind::Anti } else { JoinKind::Semi }
            );
            assert_eq!(recipe.pattern.key(), "//book/title");
        }
    }

    #[test]
    fn constant_bound_quantifier_joins_convert() {
        let cat = catalog();
        // `every $y in doc//book/@year satisfies $y > 1990` → anti join
        // with the negated constant bound, no probe-side attribute.
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("y2", Scalar::attr("d2").path(p("//book/@year")))
            .project(&["y2"]);
        let e = probe.antijoin(
            build,
            Scalar::cmp(CmpOp::Le, Scalar::attr("y2"), Scalar::int(1990)),
        );
        let plan = apply_indexes(crate::compile(&e), &cat);
        let recipe = root_recipe(&plan);
        let Driver::Range { ranges, .. } = &recipe.driver else {
            panic!("{}", plan.explain());
        };
        // `y2 <= 1990` normalizes (flipped) to `1990 >= key`.
        assert_eq!(ranges[0].op, CmpOp::Ge);
        assert!(matches!(ranges[0].side, Scalar::Const(_)));
        assert!(recipe.probe_invariant(), "constant bounds memoize");
    }

    #[test]
    fn band_predicates_on_the_hash_key_convert_to_range_joins() {
        let cat = catalog();
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .project(&["t2"]);
        // Eq on the key plus an inequality on the same column: the hash
        // join's residual band becomes an index-side filter.
        let pred = Scalar::attr_cmp(CmpOp::Eq, "t1", "t2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::attr("t2"),
            Scalar::string("B"),
        ));
        let e = probe.semijoin(build, pred);
        let plan = apply_indexes(crate::compile(&e), &cat);
        let recipe = root_recipe(&plan);
        let Driver::Range { eq_probe, ranges } = &recipe.driver else {
            panic!("{}", plan.explain());
        };
        assert_eq!(*eq_probe, Some(Sym::new("t1")));
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].op, CmpOp::Lt, "t2 > \"B\" flips to \"B\" < key");
        assert!(recipe.residual.is_none(), "the band is the whole residual");
    }

    #[test]
    fn inequality_conversions_decline_unsafe_residuals() {
        let cat = catalog();
        // An arithmetic residual can error on rows a narrower candidate
        // set would skip — the loop join must keep scanning.
        let probe =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .project(&["t2"]);
        let pred = Scalar::attr_cmp(CmpOp::Lt, "t1", "t2").and(Scalar::cmp(
            CmpOp::Gt,
            Scalar::Arith(
                nal::ArithOp::Mul,
                Box::new(Scalar::attr("t2")),
                Box::new(Scalar::int(2)),
            ),
            Scalar::int(0),
        ));
        let e = probe.semijoin(build, pred);
        let plan = apply_indexes(crate::compile(&e), &cat);
        assert!(plan.op_name() == "LoopSemiJoin", "{}", plan.explain());
        // `≠` alone offers no single key range: stays a loop join.
        let probe2 =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let build2 = doc_scan("d2", "bib.xml")
            .unnest_map("t2", Scalar::attr("d2").path(p("//book/title")))
            .project(&["t2"]);
        let e = probe2.semijoin(build2, Scalar::attr_cmp(CmpOp::Ne, "t1", "t2"));
        let plan = apply_indexes(crate::compile(&e), &cat);
        assert!(plan.op_name() == "LoopSemiJoin", "{}", plan.explain());
    }

    #[test]
    fn pattern_conversion_roundtrips_display() {
        for s in ["//book/title", "/bib/book/@year", "//author"] {
            assert_eq!(pattern_of(&p(s)).key(), s);
        }
    }
}
