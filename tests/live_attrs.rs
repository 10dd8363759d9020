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
//!
//! And one of the attribute analysis the pass starts from
//! (`PhysPlan::schema`): every row a node of either plan produces, and
//! every row of a block plan that runs under the empty scope, carries
//! the node's `sure` and nothing outside its `may`.

use std::collections::BTreeSet;

use engine::access::Driver;
use engine::{JoinKind, Keep, PhysPlan};
use fuzz::{GenCase, GenConfig, DEFAULT_SEED};
use nal::{AggKind, CmpOp, EvalCtx, Expr, GroupFn, ProjOp, Scalar, Sym, Tuple, Value, XiCmd};
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
        PhysPlan::Join {
            left,
            right,
            kind,
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
                JoinKind::Outer { g, pad, .. } => {
                    built.extend(right);
                    built.extend(pad);
                    built.insert(*g);
                    kept(built, keep)
                }
            }
        }
        PhysPlan::Group { input, g, by, .. } => {
            let below = emits(input)?;
            let mut built: Attrs = by.iter().copied().filter(|a| below.contains(a)).collect();
            built.insert(*g);
            built
        }
        PhysPlan::NestJoin {
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
        PhysPlan::Join { on, .. } => {
            let (left_keys, right_keys) = on.keys();
            let side = |keys: &[Sym]| {
                let mut r = syms(keys);
                r.extend(on.pred().map_or_else(Attrs::new, Scalar::free_attrs));
                Some(r)
            };
            vec![side(left_keys), side(right_keys)]
        }
        PhysPlan::Group { by, f, .. } => {
            vec![group_reads(f).map(|mut r| {
                r.extend(by);
                r
            })]
        }
        PhysPlan::NestJoin {
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

/// Run every node of `plan`, and every node of its subscripts' block
/// plans, on its own under the empty scope, and hold each row it
/// produces to the node's schema. Returns how many rows were checked.
fn schema_holds(what: &str, plan: &PhysPlan, catalog: &Catalog) -> usize {
    let schema = plan.schema();
    // A subtree that reads an outer attribute fails here: nothing to see.
    let rows = engine::run_compiled(plan, catalog).map_or_else(|_| Vec::new(), |r| r.rows);
    for row in &rows {
        let carried: Attrs = row.attrs().into_iter().collect();
        let shown = || format!("[{what}] {} emits {row}: {schema:?}", plan.op_name());
        assert!(
            schema.sure.iter().all(|a| carried.contains(a)),
            "{}",
            shown()
        );
        if let Some(may) = &schema.may {
            assert!(carried.iter().all(|a| may.contains(a)), "{}", shown());
        }
    }
    let blocks = plan.blocks().into_iter().flat_map(|b| b.iter());
    let below = blocks.map(|b| &b.plan).chain(plan.children());
    rows.len() + below.map(|p| schema_holds(what, p, catalog)).sum::<usize>()
}

/// What the checks saw, so the tests can show they were not vacuous.
#[derive(Default)]
struct Seen {
    plans: usize,
    narrowed_plans: usize,
    removed_attrs: usize,
    failing: usize,
    schema_rows: usize,
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
        seen.schema_rows += schema_holds(&what, &unpruned, catalog);
        seen.schema_rows += schema_holds(&what, &pruned, catalog);
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
        seen.narrowed_plans >= 26 && seen.removed_attrs >= 119 && seen.schema_rows > 10_000,
        "{} plans narrowed, {} attributes removed, {} rows held to their schema",
        seen.narrowed_plans,
        seen.removed_attrs,
        seen.schema_rows
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
    assert!(seen.schema_rows > 10_000, "{} rows", seen.schema_rows);
}

fn row(fields: &[(&str, Value)]) -> Tuple {
    Tuple::from_pairs(
        fields
            .iter()
            .map(|(a, v)| (Sym::new(a), v.clone()))
            .collect(),
    )
}

/// The shapes whose schema is least regular: rows of a literal that
/// carry different attributes, μ with and without its padding (over a
/// nested relation, a lifted sequence and Γ's member tuples, and over
/// nested relations whose tuples carry different attributes), outer
/// joins, and the relations without a static schema.
#[test]
fn schemas_hold_on_irregular_shapes() {
    let catalog = Catalog::new();
    let mixed = Expr::Literal(vec![
        row(&[("a", Value::Int(1)), ("b", Value::Int(2))]),
        row(&[("a", Value::Int(3))]),
        row(&[("a", Value::Int(4)), ("c", Value::Int(5))]),
    ]);
    let nested = |vs: &[i64]| {
        let inner = vs
            .iter()
            .map(|v| row(&[("v", Value::Int(*v)), ("w", Value::Int(0))]));
        Value::Tuples(inner.collect::<Vec<_>>().into())
    };
    let grouped = Expr::Literal(vec![
        row(&[("k", Value::Int(1)), ("g", nested(&[1, 2]))]),
        row(&[("k", Value::Int(2)), ("g", nested(&[]))]),
        row(&[("k", Value::Int(3))]),
    ]);
    let lifted = Expr::Literal(vec![
        row(&[("xs", Value::items(vec![Value::Int(1), Value::Int(2)]))]),
        row(&[("xs", Value::items(vec![]))]),
    ])
    .map("g", Scalar::attr("xs").lift("v"));
    let unnest = |input: Expr, attr: &str, preserve_empty| Expr::Unnest {
        input: Box::new(input),
        attr: Sym::new(attr),
        distinct: false,
        preserve_empty,
    };
    let members = mixed
        .clone()
        .group_unary("m", &["a"], CmpOp::Eq, GroupFn::id());
    let counted = mixed
        .clone()
        .group_unary("g", &["a"], CmpOp::Eq, GroupFn::count());
    let eq = |x: &str, y: &str| Scalar::attr_cmp(CmpOp::Eq, x, y);
    let lt = |x: &str, y: &str| Scalar::attr_cmp(CmpOp::Lt, x, y);
    // Only the second row's nested tuple carries `w`: μ's nested schema
    // is every row's, or the dead-attribute pass drops `w`.
    let one = |a: &str, v| Value::Tuples(vec![row(&[(a, Value::Int(v))])].into());
    let disagreeing = unnest(
        Expr::Literal(vec![
            row(&[("k", Value::Int(1)), ("g", one("v", 1))]),
            row(&[("k", Value::Int(2)), ("g", one("w", 2))]),
        ]),
        "g",
        false,
    )
    .project(&["k", "w"]);
    let run = engine::run(&disagreeing, &catalog).unwrap();
    let expected = [
        row(&[("k", Value::Int(1))]),
        row(&[("k", Value::Int(2)), ("w", Value::Int(2))]),
    ];
    assert_eq!(run.rows, expected, "{disagreeing}");
    let shapes = [
        disagreeing,
        mixed
            .clone()
            .map("x", Scalar::int(0))
            .project(&["a", "b", "x"]),
        mixed.clone().drop_attrs(&["c"]),
        unnest(grouped.clone(), "g", false),
        unnest(grouped.clone(), "g", true).project(&["k", "v"]),
        unnest(lifted.clone(), "g", false),
        unnest(lifted, "g", true),
        unnest(members.clone(), "m", false),
        unnest(members, "m", true),
        grouped
            .clone()
            .outerjoin(counted.clone(), eq("k", "a"), "g2", Value::Int(0)),
        grouped.clone().project(&["k"]).outerjoin(
            counted.clone(),
            lt("k", "a"),
            "g",
            Value::Int(0),
        ),
        grouped.clone().project(&["k"]).outerjoin(
            mixed.clone().project(&["a", "b"]),
            eq("k", "a"),
            "b",
            Value::Int(-1),
        ),
        mixed.clone().semijoin(counted, eq("a", "a")),
        Expr::Literal(vec![]).map("x", Scalar::int(1)),
        unnest(mixed, "a", false),
    ];
    let mut seen = Seen::default();
    for (i, e) in shapes.iter().enumerate() {
        check(&format!("shape {i}: {e}"), e, &catalog, &mut seen);
    }
    assert!(seen.schema_rows > 100, "{} rows", seen.schema_rows);
}
