//! Dead-attribute elimination over physical plans.
//!
//! An operator that builds tuples (χ, Υ, `IndexScan`, μ, ×, inner and
//! outer joins, binary Γ) used to emit everything it built, and a `Π`
//! somewhere above copied the survivors into yet another block. This
//! pass works out, top-down, which attributes anything above a node
//! **reads** — subscripts, join and group keys, Ξ commands, residuals,
//! and nested algebra (which reads its free variables from the tuple as
//! its environment) — and writes that set into the node's
//! [`Keep`]: the executor then never places an unread attribute in the
//! output block. A `Π_A`/`Π_{Ā}` directly above such a node is the same
//! restriction and disappears into it.
//!
//! The pass runs once, at the end of [`crate::compile`]; the index
//! rewrite carries the annotations along (it changes which operator
//! produces an attribute, never who reads it). It is
//! idempotent: an existing `Keep` is an implicit `Π` above its node.
//!
//! **What it never does.** An attribute that is pruned but read would
//! come back as *unbound* (an error in a subscript, a silent non-match
//! in a hash key), so every rule errs towards reading more:
//!
//! * the root's rows go to the caller: everything is read there;
//! * a subscript with nested algebra, and a group function that embeds
//!   whole member tuples (`id`), read everything below them;
//! * `Π^D` reads all its columns (it is narrowed below, never removed);
//! * a plan whose [`Schema::may`](crate::plan::Schema) is unknown — a
//!   relation below without a static schema: `rel(a)`, an empty
//!   literal, a μ over an unknown nested schema — is left exactly as it
//!   is;
//! * a dead χ is still *evaluated* (its subscript can raise an error
//!   and counts `nodes_visited`); only its binding is not stored;
//! * an attribute of the *environment* (a nested plan's outer variable)
//!   is none of the plan's to keep or drop: a reference to it holds
//!   nothing alive and the environment's binding shows through exactly
//!   where the plan's own would not have shadowed it.
//!
//! The same walk marks runs of χ over χ/Υ whose subscripts read none of
//! the run's own bindings ([`PhysPlan::Map`]'s `fused`): the executor
//! evaluates such a run against its input tuple and builds the
//! output block once.

use nal::{AggKind, GroupFn, ProjOp, Scalar, Sym, XiCmd};

use crate::access::Driver;
use crate::plan::{JoinKind, Keep, PhysPlan};

/// A set of the plan's attributes: bit `i` stands for `Pass::bound[i]`.
/// Only attributes some operator of the plan binds can be kept or
/// dropped, so a reference to anything else (an outer variable) needs no
/// bit — and "everything" is all of them ([`Pass::all`]).
type Attrs = u32;

/// One run of the pass: the attributes the plan binds. The pass runs on
/// every plan-cache miss; its sets are words and it allocates only for
/// the `keep` lists it writes.
struct Pass {
    bound: [Option<Sym>; Attrs::BITS as usize],
    len: usize,
}

/// What [`Pass::narrow`] learned about a node, bottom-up.
struct Out {
    /// An upper bound of the attributes the node emits.
    schema: Attrs,
    /// The attributes bound by the run of fusable χ/Υ that ends at this
    /// node (empty: none does).
    run: Attrs,
    /// Whether that run already has its one Υ.
    fans_out: bool,
}

impl Out {
    fn of(schema: Attrs) -> Out {
        Out {
            schema,
            run: 0,
            fans_out: false,
        }
    }
}

/// Annotate every tuple-producing operator of `plan` with the attributes
/// read above it, fold `Π_A`/`Π_{Ā}` into the producer below, and mark
/// fusable χ runs. See the module documentation for the rules.
pub fn prune(plan: &mut PhysPlan) {
    let mut pass = Pass {
        bound: [None; Attrs::BITS as usize],
        len: 0,
    };
    if pass.collect(plan) {
        // The root's rows go to the caller: everything is read.
        pass.narrow(plan, pass.all());
    }
}

/// The `Keep` of a node that builds the tuples it emits.
fn keep_of(plan: &mut PhysPlan) -> Option<&mut Keep> {
    match plan {
        PhysPlan::Map { keep, .. }
        | PhysPlan::UnnestMap { keep, .. }
        | PhysPlan::IndexScan { keep, .. }
        | PhysPlan::Unnest { keep, .. }
        | PhysPlan::NestJoin { keep, .. } => Some(keep),
        PhysPlan::Join { keep, kind, .. } => {
            matches!(kind, JoinKind::Inner | JoinKind::Outer { .. }).then_some(keep)
        }
        _ => None,
    }
}

impl Pass {
    /// Collect the attributes the plan binds. `false` — leave the plan
    /// alone — when its [`Schema::may`](crate::plan::Schema) is unknown
    /// (a relation below without a static schema) or it binds more
    /// attributes than a set has bits.
    fn collect(&mut self, plan: &PhysPlan) -> bool {
        if plan.unbounded() {
            return false;
        }
        let mut binds = |attrs: &[Sym]| {
            attrs.iter().all(|a| {
                if self.bit(*a) == 0 && self.len < self.bound.len() {
                    self.bound[self.len] = Some(*a);
                    self.len += 1;
                }
                self.bit(*a) != 0
            })
        };
        let here = match plan {
            PhysPlan::Literal(rows) => rows.iter().all(|t| binds(&t.attrs())),
            PhysPlan::Unnest { inner_attrs, .. } => binds(inner_attrs),
            PhysPlan::Map { attr, .. }
            | PhysPlan::UnnestMap { attr, .. }
            | PhysPlan::IndexScan { attr, .. } => binds(&[*attr]),
            PhysPlan::Group { g, .. } | PhysPlan::NestJoin { g, .. } => binds(&[*g]),
            PhysPlan::Join {
                kind: JoinKind::Outer { g, pad, .. },
                ..
            } => binds(pad) && binds(&[*g]),
            PhysPlan::Project {
                op: ProjOp::Rename(pairs) | ProjOp::DistinctRename(pairs),
                ..
            } => pairs.iter().all(|(new, _)| binds(&[*new])),
            _ => true,
        };
        here && plan.inputs().into_iter().flatten().all(|p| self.collect(p))
    }

    /// Every attribute of the plan.
    fn all(&self) -> Attrs {
        match self.len {
            0 => 0,
            len => Attrs::MAX >> (Attrs::BITS as usize - len),
        }
    }

    /// The bit of `a`; none when the plan does not bind it.
    fn bit(&self, a: Sym) -> Attrs {
        let at = self.bound[..self.len].iter().position(|b| *b == Some(a));
        at.map_or(0, |i| 1 << i)
    }

    fn set(&self, attrs: &[Sym]) -> Attrs {
        attrs.iter().fold(0, |set, a| set | self.bit(*a))
    }

    /// What `s` reads: everything, when it embeds nested algebra.
    fn reads(&self, s: &Scalar) -> Attrs {
        let mut set = 0;
        match s.flat_attrs(&mut |a| set |= self.bit(a)) {
            true => set,
            false => self.all(),
        }
    }

    /// What a group function reads of its member tuples: `id` embeds
    /// them whole.
    fn group_reads(&self, f: &GroupFn) -> Attrs {
        if f.agg == AggKind::Tuples && f.project.is_none() {
            return self.all();
        }
        self.set(f.project.as_slice()) | f.filter.as_ref().map_or(0, |p| self.reads(p))
    }

    fn cmd_vars(&self, cmds: &[XiCmd]) -> Attrs {
        cmds.iter().fold(0, |set, cmd| match cmd {
            XiCmd::Var(a) => set | self.bit(*a),
            XiCmd::Str(_) => set,
        })
    }

    /// What is read of a producer's output: what is read above it, within
    /// what it already restricts itself to (an existing `keep` is an
    /// implicit `Π` above its node).
    fn meet(&self, live: Attrs, keep: &Keep) -> Attrs {
        live & keep.attrs().map_or(self.all(), |only| self.set(only))
    }

    /// Set a producer's `keep` to what `here` reads of the attributes it
    /// builds, and return what it then emits. `spelled`: list them even
    /// when that is everything — a χ/Υ that joins the run below it builds
    /// from the run's *input* tuple, which carries what the operators
    /// between them no longer emit.
    fn restrict(&self, keep: &mut Keep, here: Attrs, built: Attrs, spelled: bool) -> Attrs {
        let emitted = built & here;
        if emitted == built && !spelled {
            keep.only = None;
            return built;
        }
        let mut only: Vec<Sym> = self.bound[..self.len]
            .iter()
            .flatten()
            .copied()
            .filter(|a| emitted & self.bit(*a) != 0)
            .collect();
        only.sort();
        if keep.only.as_ref() != Some(&only) {
            keep.only = Some(only);
        }
        emitted
    }

    /// Does a χ/Υ that binds and reads `touches` join the run below it?
    /// When it sees none of the run's bindings: then evaluating its
    /// subscript against the run's input tuple is evaluating it against
    /// its own.
    fn joins(&self, below: &Out, touches: Attrs) -> bool {
        below.run != 0 && below.run & touches == 0
    }

    /// The run that ends at a χ/Υ binding `bound`. A subscript with
    /// nested algebra is in no run; a Π folded into the operator hides
    /// attributes from whatever sits above, so it may end a run but not
    /// sit inside one.
    fn run(&self, below: &Out, fused: bool, flat: bool, keep: &Keep, bound: Attrs) -> Attrs {
        match (flat && keep.absorbed.is_empty(), fused) {
            (false, _) => 0,
            (true, false) => bound,
            (true, true) => below.run | bound,
        }
    }

    /// Narrow the subtree under `plan` to what `live` and its own
    /// operators read.
    fn narrow(&self, plan: &mut PhysPlan, live: Attrs) -> Out {
        match plan {
            PhysPlan::Singleton => Out::of(0),
            PhysPlan::Literal(rows) => {
                Out::of(rows.iter().fold(0, |set, row| set | self.set(&row.attrs())))
            }
            PhysPlan::AttrRel(_) => unreachable!("not statically complete"),
            PhysPlan::Select { input, pred, .. } => {
                Out::of(self.narrow(input, live | self.reads(pred)).schema)
            }
            PhysPlan::Project { input, op } => {
                // `set`, plus `to` of every pair whose `from` is in it:
                // read below what a renamed attribute is read as above,
                // emit above what it is emitted as below. (An upper
                // bound either way, which is all a live set and a schema
                // have to be.)
                let also = |set: Attrs, pairs: &[(Sym, Sym)], from_new: bool| {
                    pairs.iter().fold(set, |out, (new, old)| {
                        let (from, to) = if from_new { (new, old) } else { (old, new) };
                        match set & self.bit(*from) {
                            0 => out,
                            _ => out | self.bit(*to),
                        }
                    })
                };
                let below = match op {
                    ProjOp::Cols(cols) => live & self.set(cols),
                    ProjOp::Drop(cols) => live & !self.set(cols),
                    ProjOp::Rename(pairs) => also(live, pairs, true),
                    // Duplicate elimination compares every column.
                    ProjOp::DistinctCols(cols) => self.set(cols),
                    ProjOp::DistinctRename(pairs) => {
                        pairs.iter().fold(0, |set, (_, old)| set | self.bit(*old))
                    }
                };
                let schema = self.narrow(input, below).schema;
                // A `Π_A`/`Π_{Ā}` directly above a producer — now that
                // the projections between them are folded in — is the
                // producer's `keep`: it was told to emit nothing else.
                if matches!(op, ProjOp::Cols(_) | ProjOp::Drop(_)) && keep_of(input).is_some() {
                    let PhysPlan::Project { input, op } =
                        std::mem::replace(plan, PhysPlan::Singleton)
                    else {
                        unreachable!("matched above")
                    };
                    *plan = *input;
                    keep_of(plan).expect("checked above").absorbed.push(op);
                    return Out::of(schema);
                }
                Out::of(match op {
                    ProjOp::Cols(cols) | ProjOp::DistinctCols(cols) => schema & self.set(cols),
                    ProjOp::Drop(cols) => schema & !self.set(cols),
                    ProjOp::Rename(pairs) => also(schema, pairs, false),
                    ProjOp::DistinctRename(pairs) => {
                        pairs.iter().fold(0, |set, (new, _)| set | self.bit(*new))
                    }
                })
            }
            PhysPlan::Map {
                input,
                attr,
                value,
                fused,
                keep,
                ..
            } => {
                let (bound, reads) = (self.bit(*attr), self.reads(value));
                let here = self.meet(live, keep);
                let below = self.narrow(input, here & !bound | reads);
                let flat = !value.has_nested_expr();
                *fused = flat && self.joins(&below, bound | reads);
                Out {
                    schema: self.restrict(keep, here, below.schema | bound, *fused),
                    fans_out: *fused && below.fans_out,
                    run: self.run(&below, *fused, flat, keep, bound),
                }
            }
            PhysPlan::UnnestMap {
                input,
                attr,
                value,
                fused,
                keep,
                ..
            } => {
                let (bound, reads) = (self.bit(*attr), self.reads(value));
                let here = self.meet(live, keep);
                let below = self.narrow(input, here & !bound | reads);
                let flat = !value.has_nested_expr();
                // A run fans out once.
                *fused = flat && !below.fans_out && self.joins(&below, bound | reads);
                Out {
                    schema: self.restrict(keep, here, below.schema | bound, *fused),
                    fans_out: true,
                    run: self.run(&below, *fused, flat, keep, bound),
                }
            }
            PhysPlan::IndexScan {
                input, attr, keep, ..
            } => {
                let bound = self.bit(*attr);
                let here = self.meet(live, keep);
                let below = self.narrow(input, here & !bound);
                Out::of(self.restrict(keep, here, below.schema | bound, false))
            }
            PhysPlan::Unnest {
                input,
                attr,
                inner_attrs,
                keep,
                ..
            } => {
                let bound = self.bit(*attr);
                let here = self.meet(live, keep);
                let outer = self.narrow(input, here | bound).schema;
                let built = outer & !bound | self.set(inner_attrs);
                Out::of(self.restrict(keep, here, built, false))
            }
            PhysPlan::Join {
                left,
                right,
                on,
                kind,
                keep,
            } => {
                // Each side, with what the join itself reads of it, is
                // also read for what is read of the joined tuple — except
                // the build side of a semi or anti join, whose rows go
                // nowhere else.
                let reads = on.pred().map_or(0, |p| self.reads(p));
                let (left_keys, right_keys) = on.keys();
                let (left_reads, right_reads) =
                    (self.set(left_keys) | reads, self.set(right_keys) | reads);
                if matches!(kind, JoinKind::Semi | JoinKind::Anti) {
                    self.narrow(right, right_reads);
                    return Out::of(self.narrow(left, live | left_reads).schema);
                }
                let here = self.meet(live, keep);
                let l = self.narrow(left, here | left_reads).schema;
                let r = self.narrow(right, here | right_reads).schema;
                let padded = match kind {
                    JoinKind::Outer { g, pad, .. } => self.set(pad) | self.bit(*g),
                    _ => 0,
                };
                Out::of(self.restrict(keep, here, l | r | padded, false))
            }
            PhysPlan::Group {
                input, g, by, f, ..
            } => {
                self.narrow(input, self.set(by) | self.group_reads(f));
                Out::of(self.set(by) | self.bit(*g))
            }
            PhysPlan::NestJoin {
                left,
                right,
                g,
                left_on,
                right_on,
                f,
                keep,
                ..
            } => {
                let here = self.meet(live, keep);
                self.narrow(right, self.set(right_on) | self.group_reads(f));
                let kept_side = self.narrow(left, here & !self.bit(*g) | self.set(left_on));
                Out::of(self.restrict(keep, here, kept_side.schema | self.bit(*g), false))
            }
            PhysPlan::XiSimple { input, cmds } => {
                Out::of(self.narrow(input, live | self.cmd_vars(cmds)).schema)
            }
            PhysPlan::XiGroup {
                input,
                by,
                head,
                body,
                tail,
            } => {
                let vars = self.cmd_vars(head) | self.cmd_vars(body) | self.cmd_vars(tail);
                self.narrow(input, self.set(by) | vars);
                Out::of(self.set(by))
            }
            PhysPlan::IndexJoin { left, recipe } => {
                let probes = match &recipe.driver {
                    Driver::Point { probe } => self.bit(*probe),
                    Driver::Composite { probes, .. } => self.set(probes),
                    Driver::Range { eq_probe, ranges } => {
                        ranges.iter().fold(self.set(eq_probe.as_slice()), |set, r| {
                            set | self.reads(&r.side)
                        })
                    }
                };
                let residual = recipe.residual.as_ref().map_or(0, |p| self.reads(p));
                Out::of(self.narrow(left, live | probes | residual).schema)
            }
        }
    }
}

// The reference evaluator is these tests' oracle.
#[allow(clippy::disallowed_methods)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile, compile_unpruned};
    use nal::expr::builder::*;
    use nal::{CmpOp, EvalCtx, Expr, Tuple, Value};
    use xmldb::Catalog;

    fn int_rows(attrs: &[&str], n: i64) -> Expr {
        Expr::Literal(
            (0..n)
                .map(|i| {
                    let fields = attrs.iter().enumerate();
                    Tuple::from_pairs(
                        fields
                            .map(|(k, a)| (Sym::new(a), Value::Int(i * 10 + k as i64)))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// The plan, rendered with everything the pass decides.
    fn shown(e: &Expr) -> String {
        compile(e).explain()
    }

    /// Conservative cases: the pruned plan is the unpruned plan.
    fn untouched(e: &Expr) {
        assert_eq!(
            format!("{:?}", compile(e)),
            format!("{:?}", compile_unpruned(e)),
            "{}",
            shown(e)
        );
    }

    #[test]
    fn a_projection_above_a_producer_becomes_its_keep() {
        let e = int_rows(&["seed"], 3)
            .map("d1", Scalar::int(1))
            .unnest_map("t1", Scalar::attr("d1"))
            .project(&["t1"]);
        assert_eq!(
            shown(&e),
            "UnnestMap[t1] keep{t1} absorbed Π[t1]\n  Map[d1] keep{d1}\n    Literal\n"
        );
        // Π_Ā folds the same way, and a Π above it follows.
        let drop = int_rows(&["a", "b"], 2)
            .map("c", Scalar::attr("a"))
            .drop_attrs(&["a"]);
        assert_eq!(shown(&drop), "Map[c] keep{b,c} absorbed Π[-a]\n  Literal\n");
        assert_eq!(
            shown(&drop.project(&["c"])),
            "Map[c] keep{c} absorbed Π[-a] absorbed Π[c]\n  Literal\n"
        );
    }

    #[test]
    fn the_pass_is_idempotent() {
        let l = int_rows(&["a", "x"], 4).map("k", Scalar::attr("a"));
        let r = int_rows(&["b", "y"], 4).map("z", Scalar::attr("y"));
        let e = l
            .join(r, Scalar::attr_cmp(CmpOp::Eq, "a", "b"))
            .project(&["k", "z"])
            .xi(xi_cmds(&["$k"]));
        let once = compile(&e);
        let mut twice = once.clone();
        prune(&mut twice);
        assert_eq!(format!("{once:?}"), format!("{twice:?}"));
        assert!(once
            .explain()
            .contains("HashJoin keep{k,z} absorbed Π[k,z]"));
    }

    #[test]
    fn relations_without_a_static_schema_keep_the_plan_as_it_is() {
        // rel(a): the schema comes from the environment.
        untouched(
            &Expr::AttrRel(Sym::new("grp"))
                .map("x", Scalar::int(1))
                .project(&["x"]),
        );
        // An empty literal binds nothing one could list.
        untouched(
            &Expr::Literal(vec![])
                .map("x", Scalar::int(1))
                .project(&["x"]),
        );
        // μ over an attribute whose nested schema cannot be inferred.
        untouched(
            &int_rows(&["g", "a"], 2)
                .unnest("g")
                .map("x", Scalar::attr("a"))
                .project(&["x"]),
        );
    }

    #[test]
    fn whole_tuple_group_functions_and_nested_algebra_read_everything() {
        // Γ … id embeds its members whole; μ flattens them again later.
        let grouped = int_rows(&["a", "b", "dead"], 4)
            .map("c", Scalar::attr("b"))
            .group_unary("grp", &["a"], CmpOp::Eq, nal::GroupFn::id())
            .unnest("grp")
            .project(&["a", "c"]);
        assert_eq!(
            shown(&grouped),
            "Unnest[grp] keep{a,c} absorbed Π[a,c]\n  HashGroup\n    Map[c]\n      Literal\n"
        );
        // A projecting group function reads one attribute.
        let projected = int_rows(&["a", "b", "dead"], 4)
            .map("c", Scalar::attr("b"))
            .group_unary("grp", &["a"], CmpOp::Eq, nal::GroupFn::project_items("c"));
        assert!(
            shown(&projected).contains("Map[c] keep{a,c}"),
            "{}",
            shown(&projected)
        );
        // A quantifier's range reads its free variables from the tuple.
        let nested = int_rows(&["a", "b"], 3)
            .map("c", Scalar::attr("a"))
            .select(Scalar::Exists {
                var: Sym::new("v"),
                range: Box::new(singleton().map("w", Scalar::attr("b"))),
                pred: Box::new(Scalar::attr_cmp(CmpOp::Eq, "v", "c")),
            })
            .project(&["a"]);
        assert_eq!(
            shown(&nested),
            "Project\n  Select\n    Map[c]\n      Literal\n"
        );
    }

    #[test]
    fn distinct_projections_are_narrowed_below_never_removed() {
        let e = int_rows(&["a", "b"], 4)
            .map("c", Scalar::attr("b"))
            .distinct_cols(&["c"]);
        assert_eq!(shown(&e), "Project\n  Map[c] keep{c}\n    Literal\n");
        let renamed = int_rows(&["a", "b"], 4)
            .map("c", Scalar::attr("b"))
            .distinct_rename(&[("k", "c")]);
        assert_eq!(shown(&renamed), "Project\n  Map[c] keep{c}\n    Literal\n");
    }

    #[test]
    fn a_dead_binding_is_evaluated_but_not_stored() {
        let e = int_rows(&["a"], 2)
            .map("dead", Scalar::attr("missing"))
            .project(&["a"]);
        assert_eq!(shown(&e), "Map[dead] keep{a} absorbed Π[a]\n  Literal\n");
        let cat = Catalog::new();
        assert!(nal::eval_query(&e, &mut EvalCtx::new(&cat)).is_err());
        for plan in [compile(&e), compile_unpruned(&e)] {
            assert!(crate::run_compiled(&plan, &cat).is_err());
        }
    }

    #[test]
    fn an_environment_neither_loses_nor_gains_bindings() {
        // `o` comes from the environment, `a` from both (the plan's
        // shadows it), `x` only reaches the residual.
        let l = int_rows(&["a", "x", "dead"], 3).map("k", Scalar::attr("o"));
        let r = int_rows(&["b", "y"], 3);
        let pred = Scalar::attr_cmp(CmpOp::Le, "a", "b").and(Scalar::attr_cmp(CmpOp::Le, "x", "y"));
        let e = l.join(r, pred).project(&["k", "a", "y"]);
        let env = Tuple::from_pairs(vec![
            (Sym::new("o"), Value::Int(7)),
            (Sym::new("a"), Value::Int(-1)),
        ]);
        let cat = Catalog::new();
        let run = |plan: &PhysPlan| crate::execute(plan, &env, &mut EvalCtx::new(&cat)).unwrap();
        let expected = nal::eval(&e, &env, &mut EvalCtx::new(&cat)).unwrap();
        assert!(!expected.is_empty());
        assert_eq!(run(&compile_unpruned(&e)), expected);
        let pruned = compile(&e);
        assert!(pruned.explain().contains("keep{"), "{}", pruned.explain());
        assert_eq!(run(&pruned), expected);
    }

    /// A run builds from its *input* tuple, so its top operator's `keep`
    /// is spelled out even when it keeps all its own input carries.
    #[test]
    fn a_run_emits_what_its_top_operator_would() {
        let e = int_rows(&["x"], 2)
            .map("dead", Scalar::int(0))
            .map("a", Scalar::int(1))
            .project(&["a"]);
        assert_eq!(
            shown(&e),
            "Map[a] keep{a} absorbed Π[a] fused\n  Map[dead] keep{}\n    Literal\n"
        );
        let cat = Catalog::new();
        let expected = crate::run_compiled(&compile_unpruned(&e), &cat).unwrap();
        let got = crate::run_compiled(&compile(&e), &cat).unwrap();
        assert_eq!(got.rows, expected.rows);
    }

    /// A run's operators count what they would on their own: the χ under
    /// the Υ one tuple per input tuple (also one that fans out to
    /// nothing), the Υ and the χ over it one per item.
    #[test]
    fn a_run_counts_each_operator_where_its_tuple_would_be_produced() {
        let items = |vs: &[i64]| Value::Items(vs.iter().map(|v| Value::Int(*v)).collect());
        let rows = [items(&[1, 2, 3]), items(&[]), items(&[4, 5])]
            .into_iter()
            .map(|b| Tuple::from_pairs(vec![(Sym::new("b"), b)]));
        let e = Expr::Literal(rows.collect())
            .map("yv", Scalar::attr("b"))
            .unnest_map("av", Scalar::attr("b"))
            .map("zv", Scalar::attr("b"));
        let (pruned, unpruned) = (compile(&e), compile_unpruned(&e));
        assert_eq!(pruned.explain().matches(" fused").count(), 2);
        let cat = Catalog::new();
        let reference = crate::run_compiled(&unpruned, &cat).unwrap();
        assert_eq!(reference.metrics.op_count("Map"), 3 + 5);
        assert_eq!(reference.metrics.tuples_produced, 3 + 3 + 5 + 5);
        let got = crate::run_compiled(&pruned, &cat).unwrap();
        assert_eq!(got.rows, reference.rows);
        assert_eq!(got.metrics, reference.metrics);
        // EXPLAIN ANALYZE shows the same rows per operator.
        let (_, trace) = crate::run_traced(&pruned, &cat).unwrap();
        let report = crate::explain::ExplainReport::from_trace(&pruned, &trace);
        let shown: Vec<_> = report.nodes.iter().map(|n| (&*n.op, n.rows)).collect();
        assert_eq!(
            shown,
            [("Map", 5), ("UnnestMap", 5), ("Map", 3), ("Literal", 3)]
        );
        assert!(report.nodes.iter().all(|n| n.calls == n.rows + 1));
    }

    #[test]
    fn only_subscripts_blind_to_each_other_fuse() {
        let fused = |e: &Expr| shown(e).lines().filter(|l| l.ends_with(" fused")).count();
        let base = int_rows(&["b"], 3);
        // av and r both read b: one run.
        let q1 = base
            .clone()
            .map("av", Scalar::attr("b"))
            .map("r", Scalar::attr("b"))
            .map("s", Scalar::attr("b"));
        assert_eq!(fused(&q1), 2, "{}", shown(&q1));
        // r reads av: no run. s reads av, which r's run would contain.
        let chained = base
            .clone()
            .map("av", Scalar::attr("b"))
            .map("r", Scalar::attr("av"))
            .map("s", Scalar::attr("b"));
        assert_eq!(fused(&chained), 1, "{}", shown(&chained));
        let through = base
            .clone()
            .map("av", Scalar::attr("b"))
            .map("r", Scalar::attr("b"))
            .map("s", Scalar::attr("av"));
        assert_eq!(fused(&through), 1, "{}", shown(&through));
        // One Υ may sit anywhere in a run; a second one starts its own.
        let over_fanout = base
            .clone()
            .unnest_map("av", Scalar::attr("b"))
            .map("yv", Scalar::attr("b"));
        assert_eq!(fused(&over_fanout), 1, "{}", shown(&over_fanout));
        let under_fanout = base
            .clone()
            .map("yv", Scalar::attr("b"))
            .unnest_map("av", Scalar::attr("b"))
            .map("zv", Scalar::attr("b"));
        assert_eq!(fused(&under_fanout), 2, "{}", shown(&under_fanout));
        let two_fanouts = base
            .unnest_map("t", Scalar::attr("b"))
            .unnest_map("y", Scalar::attr("b"))
            .map("zv", Scalar::attr("b"));
        assert_eq!(fused(&two_fanouts), 1, "{}", shown(&two_fanouts));
        assert!(
            shown(&two_fanouts).contains("UnnestMap[y]\n"),
            "{}",
            shown(&two_fanouts)
        );
    }
}
