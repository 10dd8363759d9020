//! Dead-attribute pruning — the paper's "let us again project unneeded
//! attributes away" preparation step (§5.1, §5.2, §5.6).
//!
//! The equivalences with distinctness conditions (3, 5, 8, 9) require
//! `A1 = A(e1)`: the outer expression must carry nothing besides the
//! correlation attribute(s). Direct translations never satisfy that —
//! they drag along document variables (`$d1`) and intermediate bindings.
//! This pass threads a *required attribute set* top-down and
//!
//! * deletes `χ` maps whose attribute is never used (dead computations),
//! * inserts `Π_A` projections in front of nested-expression sites
//!   (`χ` with an embedded aggregate, `σ` with a quantifier), shrinking
//!   the outer operand to exactly the attributes that are still needed.
//!
//! `Π_A` is order-preserving and keeps every tuple, so pruning never
//! changes results. `tests/rewrite_soundness.rs`
//! (`prune_is_semantics_preserving_on_workloads`) checks that on the
//! workloads directly; `tests/live_attrs.rs` checks every plan
//! `enumerate_plans` builds from a pruned query — Q1–Q10 and 1,500
//! generated queries — against `nal::eval_query`.

use std::collections::BTreeSet;

use nal::expr::attrs::attr_set;
use nal::expr::visit;
use nal::{Expr, ProjOp, Scalar, Sym, XiCmd};

/// Prune the whole query. For Ξ-rooted queries the result is the output
/// stream, so only the Ξ commands' variables are required; for a bare
/// expression every attribute it produces is visible to the caller.
pub fn prune(e: &Expr) -> Expr {
    let req = match e {
        Expr::XiSimple { .. } | Expr::XiGroup { .. } => BTreeSet::new(),
        other => attr_set(other),
    };
    prune_req(e, &req)
}

fn prune_req(e: &Expr, required: &BTreeSet<Sym>) -> Expr {
    match e {
        Expr::XiSimple { input, cmds } => {
            let mut req = required.clone();
            req.extend(cmd_vars(cmds));
            Expr::XiSimple {
                input: Box::new(prune_req(input, &req)),
                cmds: cmds.clone(),
            }
        }
        Expr::XiGroup {
            input,
            by,
            head,
            body,
            tail,
        } => {
            let mut req = required.clone();
            req.extend(by.iter().copied());
            req.extend(cmd_vars(head));
            req.extend(cmd_vars(body));
            req.extend(cmd_vars(tail));
            Expr::XiGroup {
                input: Box::new(prune_req(input, &req)),
                by: by.clone(),
                head: head.clone(),
                body: body.clone(),
                tail: tail.clone(),
            }
        }
        Expr::Select { input, pred } => {
            let in_attrs = attr_set(input);
            let mut req = required.clone();
            req.extend(pred.free_attrs().intersection(&in_attrs).copied());
            let pruned = prune_req(input, &req);
            let input = maybe_project(pruned, &req, pred.has_nested_expr());
            Expr::Select {
                input: Box::new(input),
                pred: pred.clone(),
            }
        }
        Expr::Map { input, attr, value } => {
            // Dead computation: the bound attribute is never used above.
            if !required.contains(attr) && !value_is_effectful(value) {
                return prune_req(input, required);
            }
            let in_attrs = attr_set(input);
            let mut req: BTreeSet<Sym> = required.iter().copied().filter(|a| a != attr).collect();
            req.extend(value.free_attrs().intersection(&in_attrs).copied());
            let pruned = prune_req(input, &req);
            let input = maybe_project(pruned, &req, value.has_nested_expr());
            Expr::Map {
                input: Box::new(input),
                attr: *attr,
                value: value.clone(),
            }
        }
        Expr::UnnestMap { input, attr, value } => {
            // Υ changes cardinality — never dropped, even if dead.
            let in_attrs = attr_set(input);
            let mut req: BTreeSet<Sym> = required.iter().copied().filter(|a| a != attr).collect();
            req.extend(value.free_attrs().intersection(&in_attrs).copied());
            Expr::UnnestMap {
                input: Box::new(prune_req(input, &req)),
                attr: *attr,
                value: value.clone(),
            }
        }
        Expr::Project { input, op } => {
            // Translate the requirement through the projection, prune
            // below, and keep the projection itself (it may narrow more
            // than `required` asks for, which is fine).
            let req = match op {
                ProjOp::Cols(cols) | ProjOp::DistinctCols(cols) => cols.iter().copied().collect(),
                ProjOp::Drop(_) => attr_set(input),
                ProjOp::Rename(pairs) | ProjOp::DistinctRename(pairs) => required
                    .iter()
                    .map(|a| {
                        pairs
                            .iter()
                            .find(|(new, _)| new == a)
                            .map(|(_, old)| *old)
                            .unwrap_or(*a)
                    })
                    .collect(),
            };
            Expr::Project {
                input: Box::new(prune_req(input, &req)),
                op: op.clone(),
            }
        }
        // Binary operators and grouping: be conservative — require
        // everything the children produce (no pruning opportunity lost in
        // practice: the nested sites sit above, in Map/Select nodes).
        other => visit::map_children(other.clone(), &mut |c| {
            let all = attr_set(&c);
            prune_req(&c, &all)
        }),
    }
}

/// Insert `Π_req` when the input carries extra attributes and the parent
/// is a nested-expression site (where the equivalences demand a narrow
/// outer operand).
fn maybe_project(input: Expr, req: &BTreeSet<Sym>, nested_site: bool) -> Expr {
    if !nested_site || req.is_empty() {
        return input;
    }
    let produced = attr_set(&input);
    let keep: Vec<Sym> = req
        .iter()
        .copied()
        .filter(|a| produced.contains(a))
        .collect();
    if keep.len() == produced.len() || keep.is_empty() {
        return input;
    }
    // Avoid stacking projections.
    if matches!(&input, Expr::Project { op: ProjOp::Cols(cols), .. } if *cols == keep) {
        return input;
    }
    Expr::Project {
        input: Box::new(input),
        op: ProjOp::Cols(keep),
    }
}

fn cmd_vars(cmds: &[XiCmd]) -> Vec<Sym> {
    cmds.iter()
        .filter_map(|c| match c {
            XiCmd::Var(v) => Some(*v),
            XiCmd::Str(_) => None,
        })
        .collect()
}

/// Values whose evaluation has observable effects and must not be
/// dropped. All current scalars are pure; kept as a chokepoint.
fn value_is_effectful(_v: &Scalar) -> bool {
    false
}

/// Helper for tests: the attributes a pruned expression still carries.
pub fn carried_attrs(e: &Expr) -> BTreeSet<Sym> {
    attr_set(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nal::expr::builder::*;
    use nal::{CmpOp, GroupFn};
    use xpath::parse_path;

    fn p(s: &str) -> xpath::Path {
        parse_path(s).unwrap()
    }

    /// The §5.1 pipeline: the document variable must be projected away in
    /// front of the nested site, leaving exactly Π_{a1}.
    #[test]
    fn inserts_projection_before_nested_map() {
        let e1 = doc_scan("d1", "bib.xml")
            .unnest_map("a1", Scalar::attr("d1").path(p("//author")).distinct());
        let e2 = doc_scan("d2", "bib.xml")
            .unnest_map("b2", Scalar::attr("d2").path(p("//book")))
            .map("t2", Scalar::attr("b2").path(p("/title")));
        let nested = e2.select(Scalar::attr_cmp(CmpOp::Eq, "a1", "t2"));
        let q = e1
            .map(
                "t1",
                Scalar::Agg {
                    f: GroupFn::project_items("t2"),
                    input: Box::new(nested),
                },
            )
            .xi(xi_cmds(&["$a1", "$t1"]));
        let pruned = prune(&q);
        let Expr::XiSimple { input, .. } = &pruned else {
            panic!()
        };
        let Expr::Map { input: e1p, .. } = &**input else {
            panic!("{pruned}")
        };
        let Expr::Project {
            op: ProjOp::Cols(cols),
            ..
        } = &**e1p
        else {
            panic!("expected Π before the nested site, got {e1p}")
        };
        assert_eq!(cols, &vec![Sym::new("a1")]);
    }

    #[test]
    fn drops_dead_maps_but_not_unnest_maps() {
        // A dead χ disappears; a dead Υ must stay (it multiplies rows).
        let q = doc_scan("d1", "bib.xml")
            .map("dead", Scalar::int(42))
            .unnest_map("b1", Scalar::attr("d1").path(p("//book")))
            .xi(xi_cmds(&["$b1"]));
        let pruned = prune(&q);
        let printed = pruned.to_string();
        assert!(!printed.contains("dead"), "{printed}");
        assert!(printed.contains("Υ[b1"), "{printed}");
        // d1 is still needed by the Υ.
        assert!(printed.contains("χ[d1"), "{printed}");
    }

    #[test]
    fn quantifier_select_input_is_narrowed() {
        let e1 =
            doc_scan("d1", "bib.xml").unnest_map("t1", Scalar::attr("d1").path(p("//book/title")));
        let e2 = doc_scan("d3", "reviews.xml")
            .unnest_map("t3", Scalar::attr("d3").path(p("//entry/title")));
        let q = e1
            .select(Scalar::Exists {
                var: Sym::new("t2"),
                range: Box::new(
                    e2.select(Scalar::attr_cmp(CmpOp::Eq, "t1", "t3"))
                        .project(&["t3"]),
                ),
                pred: Box::new(Scalar::Const(nal::Value::Bool(true))),
            })
            .xi(xi_cmds(&["<r>", "$t1", "</r>"]));
        let pruned = prune(&q);
        let Expr::XiSimple { input, .. } = &pruned else {
            panic!()
        };
        let Expr::Select { input: sel_in, .. } = &**input else {
            panic!()
        };
        assert!(
            matches!(&**sel_in, Expr::Project { op: ProjOp::Cols(c), .. } if c == &vec![Sym::new("t1")]),
            "{pruned}"
        );
    }

    #[test]
    fn pruning_preserves_results() {
        use xmldb::gen::{gen_bib, BibConfig};
        let mut cat = xmldb::Catalog::new();
        cat.register(gen_bib(&BibConfig {
            books: 12,
            ..BibConfig::default()
        }));
        let q = doc_scan("d1", "bib.xml")
            .map("dead", Scalar::int(1))
            .unnest_map("t1", Scalar::attr("d1").path(p("//book/title")))
            .xi(xi_cmds(&["<t>", "$t1", "</t>"]));
        let pruned = prune(&q);
        let mut c1 = nal::EvalCtx::new(&cat);
        nal::eval_query(&q, &mut c1).unwrap();
        let mut c2 = nal::EvalCtx::new(&cat);
        nal::eval_query(&pruned, &mut c2).unwrap();
        assert_eq!(c1.out, c2.out);
    }

    #[test]
    fn requirements_pass_through_renames() {
        let q = singleton()
            .map("x", Scalar::int(1))
            .map("y", Scalar::int(2))
            .rename(&[("z", "x")])
            .xi(xi_cmds(&["$z"]));
        let pruned = prune(&q);
        let printed = pruned.to_string();
        // y is dead, x survives under its new name.
        assert!(!printed.contains("χ[y"), "{printed}");
        assert!(printed.contains("χ[x"), "{printed}");
    }
}
