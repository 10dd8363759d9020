//! Scalar (subscript) evaluation, including nested algebraic expressions.
//!
//! One semantics for every evaluator: [`eval_scalar`] looks attributes up
//! in a [`Scope`] and reaches the nested blocks of a subscript — a
//! quantifier's range, an aggregate's input — through a [`Nested`]. The
//! reference evaluator's is [`Reference`] (`nal::eval` of the block,
//! materialized); the engine hands in the plans it compiled for them.

use std::sync::Arc;

use xmldb::NodeId;
use xpath::EvalCounters;

use crate::eval::{eval, EvalCtx, EvalError, EvalResult, Scope};
use crate::expr::Expr;
use crate::scalar::{func::effective_boolean, GroupFn, Scalar};
use crate::sequence::{dedup_first_occurrence, lift_items, Seq};
use crate::tuple::Tuple;
use crate::value::{cmp_general, CmpOp, Dec, NodeRef, Value};

fn nal_dec(v: f64) -> Dec {
    // normalize -0.0 so grouping keys stay canonical
    Dec(if v == 0.0 { 0.0 } else { v })
}

/// How [`eval_scalar`] obtains the rows of the nested algebra blocks in a
/// subscript — quantifier ranges and aggregate inputs. A block is named
/// by its expression, as it sits inside the subscript being evaluated.
pub trait Nested {
    /// Every row of `block`, evaluated under `scope`.
    fn rows(&self, block: &Expr, scope: &Scope<'_>, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq>;

    /// Hand the rows of `block` under `scope` to `each`, in order, until
    /// it answers `false` — a quantifier deciding. This default evaluates
    /// the whole block first ([`Nested::rows`]), as §2 defines it; an
    /// implementation may pull a block only as far as the decision where
    /// nothing the rest of it would do can be observed.
    fn decide(
        &self,
        block: &Expr,
        scope: &Scope<'_>,
        ctx: &mut EvalCtx<'_>,
        each: &mut dyn FnMut(Tuple, &mut EvalCtx<'_>) -> EvalResult<bool>,
    ) -> EvalResult<()> {
        for t in self.rows(block, scope, ctx)? {
            if !each(t, ctx)? {
                break;
            }
        }
        Ok(())
    }
}

/// The reference evaluator's nested blocks: [`eval`] of the block under
/// the flattened scope, every range materialized before it is tested —
/// the nested-loop strategy of §2.
pub struct Reference;

impl Nested for Reference {
    fn rows(&self, block: &Expr, scope: &Scope<'_>, ctx: &mut EvalCtx<'_>) -> EvalResult<Seq> {
        eval(block, &scope.flatten(), ctx)
    }
}

/// Evaluate a scalar in a scope, its nested blocks reached through
/// `nested`.
pub fn eval_scalar(
    s: &Scalar,
    scope: &Scope<'_>,
    nested: &dyn Nested,
    ctx: &mut EvalCtx<'_>,
) -> EvalResult<Value> {
    // The operands of everything but a quantifier share its scope.
    let value = |s: &Scalar, ctx: &mut EvalCtx<'_>| eval_scalar(s, scope, nested, ctx);
    let holds = |s: &Scalar, ctx: &mut EvalCtx<'_>| truthy(s, scope, nested, ctx);
    match s {
        Scalar::Const(v) => Ok(v.clone()),

        Scalar::Attr(a) => scope
            .get(*a)
            .cloned()
            .ok_or_else(|| EvalError::new(format!("unbound attribute `{a}` (env {scope})"))),

        Scalar::Cmp(op, l, r) => {
            let lv = value(l, ctx)?;
            let rv = value(r, ctx)?;
            Ok(Value::Bool(cmp_general(*op, &lv, &rv, ctx.catalog)))
        }

        // l ∈ r — membership; identical to an existential `=` at runtime.
        Scalar::In(l, r) => {
            let lv = value(l, ctx)?;
            let rv = value(r, ctx)?;
            Ok(Value::Bool(cmp_general(CmpOp::Eq, &lv, &rv, ctx.catalog)))
        }

        Scalar::And(l, r) => {
            // Short-circuit, like the engine would.
            if !holds(l, ctx)? {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(holds(r, ctx)?))
        }

        Scalar::Or(l, r) => {
            if holds(l, ctx)? {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(holds(r, ctx)?))
        }

        Scalar::Not(x) => Ok(Value::Bool(!holds(x, ctx)?)),

        // Numeric arithmetic with XQuery's empty-sequence propagation:
        // any empty/NULL operand yields the empty result.
        Scalar::Arith(op, l, r) => {
            let lv = value(l, ctx)?.atomize(ctx.catalog);
            let rv = value(r, ctx)?.atomize(ctx.catalog);
            if lv.is_empty_seq() || rv.is_empty_seq() {
                return Ok(Value::Null);
            }
            match (lv.as_number(), rv.as_number()) {
                (Some(a), Some(b)) => Ok(Value::Dec(nal_dec(op.apply(a, b)))),
                _ => Err(EvalError::new(format!(
                    "arithmetic on non-numeric operands: {lv} {} {rv}",
                    op.symbol()
                ))),
            }
        }

        Scalar::Call(f, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(value(a, ctx)?);
            }
            f.apply(&vals, ctx.catalog).map_err(EvalError::new)
        }

        Scalar::Doc(uri) => {
            let id = ctx
                .catalog
                .by_uri(uri)
                .ok_or_else(|| EvalError::new(format!("unknown document `{uri}`")))?;
            Ok(Value::Node(NodeRef {
                doc: id,
                node: NodeId::DOCUMENT,
            }))
        }

        Scalar::Path(base, path) => {
            let v = value(base, ctx)?;
            eval_path_value(&v, path, ctx)
        }

        Scalar::Lift(inner, a) => {
            let v = value(inner, ctx)?;
            Ok(Value::Tuples(lift_items(&v, *a)))
        }

        Scalar::DistinctItems(inner) => {
            let v = value(inner, ctx)?;
            let atomized = v.atomize(ctx.catalog);
            Ok(Value::Items(
                dedup_first_occurrence(atomized.as_items()).into(),
            ))
        }

        // A quantifier binds its variable over the scope it is evaluated
        // in and decides at its first witness (∃) or counterexample (∀);
        // an empty range decides nothing: `some` is false, `every` true.
        Scalar::Exists { var, range, pred } | Scalar::Forall { var, range, pred } => {
            ctx.metrics.nested_evals += 1;
            // What the deciding row's predicate evaluates to: a witness
            // makes `some` true, a counterexample makes `every` false.
            let verdict = matches!(s, Scalar::Exists { .. });
            let mut decided = false;
            nested.decide(range, scope, ctx, &mut |t, ctx| {
                let v = single_attr_value(&t)?;
                decided = truthy(pred, &Scope::Bind(*var, &v, scope), nested, ctx)? == verdict;
                Ok(!decided)
            })?;
            Ok(Value::Bool(decided == verdict))
        }

        Scalar::Agg { f, input } => {
            ctx.metrics.nested_evals += 1;
            let rows = nested.rows(input, scope, ctx)?;
            aggregate(f, &rows, scope, nested, ctx)
        }
    }
}

/// Effective boolean value of a scalar — predicate truthiness.
pub fn truthy(
    s: &Scalar,
    scope: &Scope<'_>,
    nested: &dyn Nested,
    ctx: &mut EvalCtx<'_>,
) -> EvalResult<bool> {
    Ok(effective_boolean(&eval_scalar(s, scope, nested, ctx)?))
}

/// Apply a group function to a group — its filter stage evaluated per
/// member over `scope`, the member's attributes first — then aggregate.
pub fn aggregate(
    f: &GroupFn,
    group: &[Tuple],
    scope: &Scope<'_>,
    nested: &dyn Nested,
    ctx: &mut EvalCtx<'_>,
) -> EvalResult<Value> {
    let catalog = ctx.catalog;
    f.apply_with(group, catalog, |p, t| {
        truthy(p, &Scope::Row(t, scope), nested, ctx).map_err(|e| e.message)
    })
    .map_err(EvalError::new)
}

/// Evaluate a structural path against a node-valued (or node-sequence-
/// valued) context.
pub fn eval_path_value(
    base: &Value,
    path: &xpath::Path,
    ctx: &mut EvalCtx<'_>,
) -> EvalResult<Value> {
    let non_node =
        |other: &Value| EvalError::new(format!("path applied to non-node value: {other}"));
    // The context nodes. All must live in the same document (true for
    // every query in the paper; a cross-document step would be a bug).
    // One node — the per-tuple case of every Υ and χ — is read where
    // it sits; only a sequence is gathered into a buffer.
    let gathered: Vec<NodeId>;
    let (doc_id, nodes): (_, &[NodeId]) = match base.as_items() {
        [] => return Ok(Value::Items(Arc::from([]))),
        [Value::Node(n)] => (n.doc, std::slice::from_ref(&n.node)),
        items @ [Value::Node(first), ..] => {
            let mut nodes = Vec::with_capacity(items.len());
            for it in items {
                match it {
                    Value::Node(n) if n.doc == first.doc => nodes.push(n.node),
                    Value::Node(_) => {
                        return Err(EvalError::new("path over nodes from different documents"))
                    }
                    other => return Err(non_node(other)),
                }
            }
            gathered = nodes;
            (first.doc, &gathered)
        }
        [other, ..] => return Err(non_node(other)),
    };
    let mut counters = EvalCounters::default();
    let result = ctx
        .paths
        .eval(ctx.catalog.doc(doc_id), nodes, path, &mut counters);
    ctx.metrics.doc_scans += counters.doc_scans;
    ctx.metrics.nodes_visited += counters.nodes_visited;
    let node_value = |&node: &NodeId| Value::Node(NodeRef { doc: doc_id, node });
    Ok(match result {
        [only] => node_value(only),
        many => Value::Items(many.iter().map(node_value).collect()),
    })
}

/// The value of a single-attribute tuple — how quantifier ranges bind
/// their variable (the range is always projected onto one attribute,
/// `Π_{x'}` in Eqv. 6/7).
fn single_attr_value(t: &Tuple) -> EvalResult<Value> {
    let mut it = t.iter();
    match (it.next(), it.next()) {
        (Some((_, v)), None) => Ok(v.clone()),
        _ => Err(EvalError::new(format!(
            "quantifier range must produce single-attribute tuples, got {t}"
        ))),
    }
}
