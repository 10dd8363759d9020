//! Scalar (subscript) evaluation, including nested algebraic expressions.

use std::sync::Arc;

use xmldb::NodeId;
use xpath::EvalCounters;

use crate::eval::{apply_groupfn, eval, EvalCtx, EvalError, EvalResult};
use crate::scalar::{func::effective_boolean, Scalar};
use crate::sequence::{dedup_first_occurrence, lift_items};
use crate::tuple::Tuple;
use crate::value::{cmp_general, CmpOp, Dec, NodeRef, Value};

fn nal_dec(v: f64) -> Dec {
    // normalize -0.0 so grouping keys stay canonical
    Dec(if v == 0.0 { 0.0 } else { v })
}

/// Evaluate a scalar under an environment tuple.
pub fn eval_scalar(s: &Scalar, env: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<Value> {
    match s {
        Scalar::Const(v) => Ok(v.clone()),

        Scalar::Attr(a) => env
            .get(*a)
            .cloned()
            .ok_or_else(|| EvalError::new(format!("unbound attribute `{a}` (env {env})"))),

        Scalar::Cmp(op, l, r) => {
            let lv = eval_scalar(l, env, ctx)?;
            let rv = eval_scalar(r, env, ctx)?;
            Ok(Value::Bool(cmp_general(*op, &lv, &rv, ctx.catalog)))
        }

        // l ∈ r — membership; identical to an existential `=` at runtime.
        Scalar::In(l, r) => {
            let lv = eval_scalar(l, env, ctx)?;
            let rv = eval_scalar(r, env, ctx)?;
            Ok(Value::Bool(cmp_general(CmpOp::Eq, &lv, &rv, ctx.catalog)))
        }

        Scalar::And(l, r) => {
            // Short-circuit, like the engine would.
            if !truthy(l, env, ctx)? {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(truthy(r, env, ctx)?))
        }

        Scalar::Or(l, r) => {
            if truthy(l, env, ctx)? {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(truthy(r, env, ctx)?))
        }

        Scalar::Not(x) => Ok(Value::Bool(!truthy(x, env, ctx)?)),

        // Numeric arithmetic with XQuery's empty-sequence propagation:
        // any empty/NULL operand yields the empty result.
        Scalar::Arith(op, l, r) => {
            let lv = eval_scalar(l, env, ctx)?.atomize(ctx.catalog);
            let rv = eval_scalar(r, env, ctx)?.atomize(ctx.catalog);
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
                vals.push(eval_scalar(a, env, ctx)?);
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
            let v = eval_scalar(base, env, ctx)?;
            eval_path_value(&v, path, ctx)
        }

        Scalar::Lift(inner, a) => {
            let v = eval_scalar(inner, env, ctx)?;
            Ok(Value::Tuples(lift_items(&v, *a)))
        }

        Scalar::DistinctItems(inner) => {
            let v = eval_scalar(inner, env, ctx)?;
            let atomized = v.atomize(ctx.catalog);
            Ok(Value::Items(
                dedup_first_occurrence(atomized.as_items()).into(),
            ))
        }

        Scalar::Exists { var, range, pred } => {
            ctx.metrics.nested_evals += 1;
            let seq = eval(range, env, ctx)?;
            for t in seq {
                let v = single_attr_value(&t)?;
                if truthy(pred, &env.extend(*var, v), ctx)? {
                    return Ok(Value::Bool(true));
                }
            }
            Ok(Value::Bool(false))
        }

        Scalar::Forall { var, range, pred } => {
            ctx.metrics.nested_evals += 1;
            let seq = eval(range, env, ctx)?;
            for t in seq {
                let v = single_attr_value(&t)?;
                if !truthy(pred, &env.extend(*var, v), ctx)? {
                    return Ok(Value::Bool(false));
                }
            }
            Ok(Value::Bool(true))
        }

        Scalar::Agg { f, input } => {
            ctx.metrics.nested_evals += 1;
            let seq = eval(input, env, ctx)?;
            apply_groupfn(f, &seq, env, ctx)
        }
    }
}

/// Effective boolean value of a scalar — predicate truthiness.
pub fn truthy(s: &Scalar, env: &Tuple, ctx: &mut EvalCtx<'_>) -> EvalResult<bool> {
    Ok(effective_boolean(&eval_scalar(s, env, ctx)?))
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
