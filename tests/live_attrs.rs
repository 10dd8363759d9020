//! The dead-attribute pass (`engine::live`) against the plans it was
//! given and against the definitional evaluator.
//!
//! Two properties, on every alternative `enumerate_plans` offers for
//! Q1–Q10 and for 1,500 generated queries, scan and indexed:
//!
//! 1. **Same answer.** The pruned plan, the unpruned plan and
//!    `nal::eval_query` agree on rows and Ξ bytes — or all fail — and
//!    the operators both plans share produce the same tuple counts.
//! 2. **Nothing read was pruned.** A pruned attribute that is read does
//!    not raise a type error: a hash key silently stops matching, a
//!    projection silently narrows. So, independently of how the pass
//!    computes its live sets, every operator of the pruned plan must
//!    find in its input exactly those of the attributes it reads
//!    (subscript, keys, Ξ commands, residual, probe sides) that the
//!    same operator finds in the unpruned plan — and the root must emit
//!    the same attributes.

use std::collections::BTreeSet;

use engine::access::Driver;
use engine::{JoinKind, Keep, PhysPlan};
use fuzz::{GenCase, GenConfig, DEFAULT_SEED};
use nal::{AggKind, EvalCtx, Expr, GroupFn, ProjOp, Scalar, Sym, XiCmd};
use ordered_unnesting::plan_sets;
use xmldb::gen::standard_catalog;
use xmldb::{Catalog, MaintenanceMode};

type Attrs = BTreeSet<Sym>;

fn syms(list: &[Sym]) -> Attrs {
    list.iter().copied().collect()
}

fn kept(built: Attrs, keep: &Keep) -> Attrs {
    match keep.attrs() {
        None => built,
        Some(only) => built.into_iter().filter(|a| only.contains(a)).collect(),
    }
}

/// The attributes a node's tuples carry, worked out from the plan's
/// structure and its `keep` annotations alone; `None` when some relation
/// below has no static schema.
fn emits(plan: &PhysPlan) -> Option<Attrs> {
    Some(match plan {
        PhysPlan::Singleton => Attrs::new(),
        PhysPlan::Literal(rows) if rows.is_empty() => return None,
        PhysPlan::Literal(rows) => rows.iter().flat_map(|t| t.attrs()).collect(),
        PhysPlan::AttrRel(_) => return None,
        PhysPlan::Select { input, .. } | PhysPlan::XiSimple { input, .. } => emits(input)?,
        PhysPlan::Project { input, op } => {
            let below = emits(input)?;
            match op {
                ProjOp::Cols(c) | ProjOp::DistinctCols(c) => {
                    below.into_iter().filter(|a| c.contains(a)).collect()
                }
                ProjOp::Drop(c) => below.into_iter().filter(|a| !c.contains(a)).collect(),
                ProjOp::Rename(pairs) => below
                    .into_iter()
                    .map(|a| pairs.iter().find(|(_, old)| *old == a).map_or(a, |p| p.0))
                    .collect(),
                ProjOp::DistinctRename(pairs) => pairs
                    .iter()
                    .filter(|(_, old)| below.contains(old))
                    .map(|(new, _)| *new)
                    .collect(),
            }
        }
        PhysPlan::Map {
            input, attr, keep, ..
        }
        | PhysPlan::UnnestMap {
            input, attr, keep, ..
        }
        | PhysPlan::IndexScan {
            input, attr, keep, ..
        } => {
            let mut built = emits(input)?;
            built.insert(*attr);
            kept(built, keep)
        }
        PhysPlan::Unnest {
            input,
            attr,
            inner_attrs,
            keep,
            ..
        } => {
            if inner_attrs.is_empty() {
                return None;
            }
            let mut built = emits(input)?;
            built.remove(attr);
            built.extend(inner_attrs);
            kept(built, keep)
        }
        PhysPlan::Cross { left, right, keep } => {
            let mut built = emits(left)?;
            built.extend(emits(right)?);
            kept(built, keep)
        }
        PhysPlan::HashJoin {
            left,
            right,
            kind,
            pad,
            keep,
            ..
        }
        | PhysPlan::LoopJoin {
            left,
            right,
            kind,
            pad,
            keep,
            ..
        } => {
            let mut built = emits(left)?;
            let right = emits(right)?;
            match kind {
                JoinKind::Semi | JoinKind::Anti => built,
                JoinKind::Inner => {
                    built.extend(right);
                    kept(built, keep)
                }
                JoinKind::Outer { g, .. } => {
                    built.extend(right);
                    built.extend(pad);
                    built.insert(*g);
                    kept(built, keep)
                }
            }
        }
        PhysPlan::HashGroupUnary { input, g, by, .. }
        | PhysPlan::ThetaGroupUnary { input, g, by, .. } => {
            let below = emits(input)?;
            let mut built: Attrs = by.iter().copied().filter(|a| below.contains(a)).collect();
            built.insert(*g);
            built
        }
        PhysPlan::HashGroupBinary {
            left,
            right,
            g,
            keep,
            ..
        } => {
            emits(right)?;
            let mut built = emits(left)?;
            built.insert(*g);
            kept(built, keep)
        }
        PhysPlan::ThetaGroupBinary { left, right, g, .. } => {
            emits(right)?;
            let mut built = emits(left)?;
            built.insert(*g);
            built
        }
        PhysPlan::XiGroup { input, by, .. } => {
            let below = emits(input)?;
            by.iter().copied().filter(|a| below.contains(a)).collect()
        }
        PhysPlan::IndexJoin { left, .. } => emits(left)?,
    })
}

fn group_reads(f: &GroupFn) -> Option<Attrs> {
    if f.agg == AggKind::Tuples && f.project.is_none() {
        return None; // the whole member tuples
    }
    let mut reads: Attrs = f.project.into_iter().collect();
    if let Some(filter) = &f.filter {
        reads.extend(filter.free_attrs());
    }
    Some(reads)
}

fn cmd_vars(lists: &[&[XiCmd]]) -> Attrs {
    let vars = lists.iter().flat_map(|cmds| cmds.iter());
    vars.filter_map(|c| match c {
        XiCmd::Var(a) => Some(*a),
        XiCmd::Str(_) => None,
    })
    .collect()
}

/// What an operator reads of each of its inputs' tuples (`None`:
/// everything), in `children()` order. `Scalar::free_attrs` resolves
/// nested algebra itself, unlike the pass's own `flat_attrs`.
fn reads(plan: &PhysPlan) -> Vec<Option<Attrs>> {
    let of = |s: &Scalar| Some(s.free_attrs());
    let maybe = |s: &Option<Scalar>| s.as_ref().map_or_else(Attrs::new, Scalar::free_attrs);
    match plan {
        PhysPlan::Singleton | PhysPlan::Literal(_) | PhysPlan::AttrRel(_) => vec![],
        PhysPlan::Select { pred, .. } => vec![of(pred)],
        PhysPlan::Map { value, .. } | PhysPlan::UnnestMap { value, .. } => vec![of(value)],
        PhysPlan::IndexScan { .. } => vec![Some(Attrs::new())],
        PhysPlan::Project { op, .. } => vec![Some(match op {
            ProjOp::Cols(c) | ProjOp::Drop(c) | ProjOp::DistinctCols(c) => syms(c),
            ProjOp::Rename(p) | ProjOp::DistinctRename(p) => {
                p.iter().map(|(_, old)| *old).collect()
            }
        })],
        PhysPlan::Unnest { attr, .. } => vec![Some(syms(&[*attr]))],
        PhysPlan::Cross { .. } => vec![Some(Attrs::new()), Some(Attrs::new())],
        PhysPlan::HashJoin {
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let side = |keys: &[Sym]| {
                let mut r = syms(keys);
                r.extend(maybe(residual));
                Some(r)
            };
            vec![side(left_keys), side(right_keys)]
        }
        PhysPlan::LoopJoin { pred, .. } => vec![of(pred), of(pred)],
        PhysPlan::HashGroupUnary { by, f, .. } | PhysPlan::ThetaGroupUnary { by, f, .. } => {
            vec![group_reads(f).map(|mut r| {
                r.extend(by);
                r
            })]
        }
        PhysPlan::HashGroupBinary {
            left_on,
            right_on,
            f,
            ..
        }
        | PhysPlan::ThetaGroupBinary {
            left_on,
            right_on,
            f,
            ..
        } => vec![
            Some(syms(left_on)),
            group_reads(f).map(|mut r| {
                r.extend(right_on);
                r
            }),
        ],
        PhysPlan::XiSimple { cmds, .. } => vec![Some(cmd_vars(&[cmds]))],
        PhysPlan::XiGroup {
            by,
            head,
            body,
            tail,
            ..
        } => {
            let mut r = cmd_vars(&[head, body, tail]);
            r.extend(by);
            vec![Some(r)]
        }
        PhysPlan::IndexJoin { recipe, .. } => {
            let mut r = maybe(&recipe.residual);
            match &recipe.driver {
                Driver::Point { probe } => {
                    r.insert(*probe);
                }
                Driver::Composite { probes, .. } => r.extend(probes),
                Driver::Range { eq_probe, ranges } => {
                    r.extend(eq_probe);
                    for range in ranges {
                        r.extend(range.side.free_attrs());
                    }
                }
            }
            vec![Some(r)]
        }
    }
}

/// Walk the unpruned and the pruned plan together — the pass removes
/// absorbed `Π` nodes and changes nothing else of the shape — and hold
/// every operator's inputs to property 2. Returns how many attribute
/// occurrences the pass removed from operator outputs.
fn nothing_read_was_pruned(what: &str, unpruned: &PhysPlan, pruned: &PhysPlan) -> usize {
    if unpruned.op_name() != pruned.op_name() {
        let PhysPlan::Project {
            input,
            op: ProjOp::Cols(_) | ProjOp::Drop(_),
        } = unpruned
        else {
            panic!(
                "[{what}] the pass changed the plan's shape:\n{}\nvs\n{}",
                unpruned.explain(),
                pruned.explain()
            );
        };
        return nothing_read_was_pruned(what, input, pruned);
    }
    let (before, after) = (unpruned.children(), pruned.children());
    assert_eq!(before.len(), after.len(), "[{what}] {}", pruned.op_name());
    let mut removed = 0;
    for ((b, a), read) in before.iter().zip(&after).zip(reads(pruned)) {
        let (Some(had), Some(has)) = (emits(b), emits(a)) else {
            assert_eq!(
                format!("{b:?}"),
                format!("{a:?}"),
                "[{what}] a plan without a static schema must be left alone"
            );
            continue;
        };
        assert!(
            has.is_subset(&had),
            "[{what}] {} gained {:?}",
            pruned.op_name(),
            has.difference(&had).collect::<Vec<_>>()
        );
        let lost: Vec<Sym> = had.difference(&has).copied().collect();
        match read {
            None => assert!(
                lost.is_empty(),
                "[{what}] {} reads everything, its input lost {lost:?}\n{}",
                pruned.op_name(),
                pruned.explain()
            ),
            Some(read) => assert!(
                lost.iter().all(|a| !read.contains(a)),
                "[{what}] {} reads {read:?}, its input lost {lost:?}\n{}",
                pruned.op_name(),
                pruned.explain()
            ),
        }
        removed += lost.len() + nothing_read_was_pruned(what, b, a);
    }
    removed
}

/// What the checks saw, so the tests can show they were not vacuous.
#[derive(Default)]
struct Seen {
    plans: usize,
    narrowed_plans: usize,
    removed_attrs: usize,
    failing: usize,
}

fn check(what: &str, expr: &Expr, catalog: &Catalog, seen: &mut Seen) {
    let mut ctx = EvalCtx::new(catalog);
    let reference = nal::eval_query(expr, &mut ctx).map(|rows| (rows, ctx.take_output()));
    seen.failing += usize::from(reference.is_err());
    for indexed in [false, true] {
        let rewrite = |plan: PhysPlan| match indexed {
            true => engine::apply_indexes(plan, catalog),
            false => plan,
        };
        let unpruned = rewrite(engine::compile_unpruned(expr));
        let pruned = rewrite(engine::compile(expr));
        let what = format!("{what}, indexed {indexed}");

        // Property 1. The operators the pass leaves in the plan produce
        // what they produced: it removes Π nodes and changes no
        // cardinality, also where a run of χ/Υ became one cursor.
        let mut counts = Vec::new();
        for (label, plan) in [("unpruned", &unpruned), ("pruned", &pruned)] {
            let got = engine::run_compiled(plan, catalog).map(|r| {
                let ops = r
                    .metrics
                    .op_tuples
                    .iter()
                    .filter(|(op, _)| *op != "Project");
                counts.push(ops.collect::<Vec<_>>());
                (r.rows, r.output)
            });
            match (&reference, got) {
                (Ok(expected), Ok(got)) => {
                    assert_eq!(expected, &got, "[{what}] {label} plan\n{}", plan.explain())
                }
                (Err(_), Err(_)) => {}
                (expected, got) => panic!(
                    "[{what}] {label} plan: reference {:?}, engine {:?}",
                    expected.as_ref().map(|_| "ok"),
                    got.map(|_| "ok")
                ),
            }
        }
        if let [unpruned, pruned] = &counts[..] {
            assert_eq!(pruned, unpruned, "[{what}] op_tuples");
        }

        // Property 2, and the root emits what it emitted.
        let removed = nothing_read_was_pruned(&what, &unpruned, &pruned);
        assert_eq!(emits(&unpruned), emits(&pruned), "[{what}] root schema");
        seen.plans += 1;
        seen.narrowed_plans += usize::from(removed > 0);
        seen.removed_attrs += removed;
    }
    // The pass is idempotent.
    let once = engine::compile(expr);
    let mut twice = once.clone();
    engine::live::prune(&mut twice);
    assert_eq!(format!("{twice:?}"), format!("{once:?}"), "[{what}]");
}

#[test]
fn pruned_plans_answer_like_unpruned_ones_on_the_paper_queries() {
    let catalog = standard_catalog(20, 2, 1);
    let mut seen = Seen::default();
    for w in plan_sets::queries() {
        let nested = xquery::compile(w.query, &catalog).expect("compiles");
        for plan in unnest::enumerate_plans(&nested, &catalog) {
            check(
                &format!("{} / {}", w.id, plan.label),
                &plan.expr,
                &catalog,
                &mut seen,
            );
        }
    }
    // 28 alternatives, scan and indexed. The nested ones read everything
    // (nested algebra); of the unnested ones all but the bare
    // semi/anti-join probes carry something dead.
    assert_eq!((seen.plans, seen.failing), (56, 0));
    assert!(
        seen.narrowed_plans >= 26 && seen.removed_attrs >= 119,
        "{} plans narrowed, {} attributes removed",
        seen.narrowed_plans,
        seen.removed_attrs
    );
}

#[test]
fn pruned_plans_answer_like_unpruned_ones_on_generated_queries() {
    let cfg = GenConfig::default();
    let mut seen = Seen::default();
    for i in 0..1500u64 {
        let case = GenCase::random(DEFAULT_SEED.wrapping_add(i), &cfg);
        let catalog = case.corpus.build_catalog(MaintenanceMode::Delta);
        let text = case.query_text();
        let nested = xquery::compile(&text, &catalog)
            .unwrap_or_else(|e| panic!("case {i} does not compile: {e}\n{text}"));
        for plan in unnest::enumerate_plans(&nested, &catalog) {
            check(
                &format!("case {i} / {}", plan.label),
                &plan.expr,
                &catalog,
                &mut seen,
            );
        }
    }
    assert!(
        seen.plans > 3000 && seen.narrowed_plans > 200 && seen.removed_attrs > 1000,
        "the generator stopped reaching the pass: {} plans, {} narrowed, {} attributes removed",
        seen.plans,
        seen.narrowed_plans,
        seen.removed_attrs
    );
}
