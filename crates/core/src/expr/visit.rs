//! Tree traversal and rewriting plumbing for [`Expr`].

use crate::expr::Expr;
use crate::scalar::Scalar;

/// Immutable children of an expression (unary: one; binary: two), in
/// dataflow order. Allocation-free: traversals call this per node.
pub fn children(e: &Expr) -> impl Iterator<Item = &Expr> {
    let pair: [Option<&Expr>; 2] = match e {
        Expr::Singleton | Expr::Literal(_) | Expr::AttrRel(_) => [None, None],
        Expr::Select { input, .. }
        | Expr::Project { input, .. }
        | Expr::Map { input, .. }
        | Expr::GroupUnary { input, .. }
        | Expr::Unnest { input, .. }
        | Expr::UnnestMap { input, .. }
        | Expr::XiSimple { input, .. }
        | Expr::XiGroup { input, .. } => [Some(input), None],
        Expr::Cross { left, right }
        | Expr::Join { left, right, .. }
        | Expr::SemiJoin { left, right, .. }
        | Expr::AntiJoin { left, right, .. }
        | Expr::OuterJoin { left, right, .. }
        | Expr::GroupBinary { left, right, .. } => [Some(left), Some(right)],
    };
    pair.into_iter().flatten()
}

/// [`children`] by mutable reference — what an in-place rewriter walks:
/// it replaces a node through the reference it was handed and never
/// rebuilds the ancestors.
pub fn children_mut(e: &mut Expr) -> impl Iterator<Item = &mut Expr> {
    let pair: [Option<&mut Expr>; 2] = match e {
        Expr::Singleton | Expr::Literal(_) | Expr::AttrRel(_) => [None, None],
        Expr::Select { input, .. }
        | Expr::Project { input, .. }
        | Expr::Map { input, .. }
        | Expr::GroupUnary { input, .. }
        | Expr::Unnest { input, .. }
        | Expr::UnnestMap { input, .. }
        | Expr::XiSimple { input, .. }
        | Expr::XiGroup { input, .. } => [Some(input), None],
        Expr::Cross { left, right }
        | Expr::Join { left, right, .. }
        | Expr::SemiJoin { left, right, .. }
        | Expr::AntiJoin { left, right, .. }
        | Expr::OuterJoin { left, right, .. }
        | Expr::GroupBinary { left, right, .. } => [Some(left), Some(right)],
    };
    pair.into_iter().flatten()
}

/// Nested algebra expressions embedded in this node's scalars (quantifier
/// ranges and aggregate inputs). These are *not* children in the dataflow
/// sense — they are re-evaluated per tuple — but rewriters need to reach
/// them.
pub fn nested_exprs(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    for s in scalars(e) {
        collect_nested(s, &mut out);
    }
    out
}

/// The scalar expressions attached to this node.
pub fn scalars(e: &Expr) -> Vec<&Scalar> {
    match e {
        Expr::Select { pred, .. }
        | Expr::Join { pred, .. }
        | Expr::SemiJoin { pred, .. }
        | Expr::AntiJoin { pred, .. }
        | Expr::OuterJoin { pred, .. } => vec![pred],
        Expr::Map { value, .. } | Expr::UnnestMap { value, .. } => vec![value],
        Expr::GroupUnary { f, .. } | Expr::GroupBinary { f, .. } => {
            f.filter.as_deref().into_iter().collect()
        }
        _ => vec![],
    }
}

/// The nested algebraic expressions inside one scalar (quantifier
/// ranges, aggregate inputs), at any nesting depth within the scalar.
pub fn scalar_nested_exprs(s: &Scalar) -> Vec<&Expr> {
    let mut out = Vec::new();
    collect_nested(s, &mut out);
    out
}

fn collect_nested<'a>(s: &'a Scalar, out: &mut Vec<&'a Expr>) {
    find_nested_expr(s, &mut |e| {
        out.push(e);
        false
    });
}

/// Hand `found` the nested algebraic expressions inside one scalar, in
/// [`scalar_nested_exprs`] order — a quantifier's range before the
/// blocks in its predicate, an aggregate's input before those in its
/// filter — until it answers `true`. Allocation-free; `true` iff `found`
/// stopped the walk.
pub fn find_nested_expr<'a>(s: &'a Scalar, found: &mut impl FnMut(&'a Expr) -> bool) -> bool {
    find_nested_block(s, &mut |_, block| found(block))
}

/// [`find_nested_expr`], handing `found` each expression with the
/// scalar that holds it: the quantifier or aggregate.
pub fn find_nested_block<'a>(
    s: &'a Scalar,
    found: &mut impl FnMut(&'a Scalar, &'a Expr) -> bool,
) -> bool {
    match s {
        Scalar::Exists { range, pred, .. } | Scalar::Forall { range, pred, .. } => {
            found(s, range) || find_nested_block(pred, found)
        }
        Scalar::Agg { input, f } => {
            found(s, input)
                || f.filter
                    .as_deref()
                    .is_some_and(|p| find_nested_block(p, found))
        }
        Scalar::Cmp(_, l, r)
        | Scalar::In(l, r)
        | Scalar::And(l, r)
        | Scalar::Or(l, r)
        | Scalar::Arith(_, l, r) => find_nested_block(l, found) || find_nested_block(r, found),
        Scalar::Not(x) | Scalar::Lift(x, _) | Scalar::DistinctItems(x) | Scalar::Path(x, _) => {
            find_nested_block(x, found)
        }
        Scalar::Call(_, args) => args.iter().any(|a| find_nested_block(a, found)),
        Scalar::Const(_) | Scalar::Attr(_) | Scalar::Doc(_) => false,
    }
}

/// Pre-order walk over the dataflow tree (children only, not nested
/// scalar expressions).
pub fn walk<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    for c in children(e) {
        walk(c, f);
    }
}

/// Pre-order walk that also descends into nested scalar expressions.
pub fn walk_deep<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    for c in children(e) {
        walk_deep(c, f);
    }
    for n in nested_exprs(e) {
        walk_deep(n, f);
    }
}

/// Rebuild an expression with its direct children transformed by `f`
/// (nested scalar expressions are left untouched).
pub fn map_children(e: Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    match e {
        Expr::Singleton => Expr::Singleton,
        Expr::Literal(rows) => Expr::Literal(rows),
        Expr::AttrRel(a) => Expr::AttrRel(a),
        Expr::Select { input, pred } => Expr::Select {
            input: Box::new(f(*input)),
            pred,
        },
        Expr::Project { input, op } => Expr::Project {
            input: Box::new(f(*input)),
            op,
        },
        Expr::Map { input, attr, value } => Expr::Map {
            input: Box::new(f(*input)),
            attr,
            value,
        },
        Expr::Cross { left, right } => Expr::Cross {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
        },
        Expr::Join { left, right, pred } => Expr::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            pred,
        },
        Expr::SemiJoin { left, right, pred } => Expr::SemiJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            pred,
        },
        Expr::AntiJoin { left, right, pred } => Expr::AntiJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            pred,
        },
        Expr::OuterJoin {
            left,
            right,
            pred,
            g,
            default,
        } => Expr::OuterJoin {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            pred,
            g,
            default,
        },
        Expr::GroupUnary {
            input,
            g,
            by,
            theta,
            f: gf,
        } => Expr::GroupUnary {
            input: Box::new(f(*input)),
            g,
            by,
            theta,
            f: gf,
        },
        Expr::GroupBinary {
            left,
            right,
            g,
            left_on,
            theta,
            right_on,
            f: gf,
        } => Expr::GroupBinary {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            g,
            left_on,
            theta,
            right_on,
            f: gf,
        },
        Expr::Unnest {
            input,
            attr,
            distinct,
            preserve_empty,
        } => Expr::Unnest {
            input: Box::new(f(*input)),
            attr,
            distinct,
            preserve_empty,
        },
        Expr::UnnestMap { input, attr, value } => Expr::UnnestMap {
            input: Box::new(f(*input)),
            attr,
            value,
        },
        Expr::XiSimple { input, cmds } => Expr::XiSimple {
            input: Box::new(f(*input)),
            cmds,
        },
        Expr::XiGroup {
            input,
            by,
            head,
            body,
            tail,
        } => Expr::XiGroup {
            input: Box::new(f(*input)),
            by,
            head,
            body,
            tail,
        },
    }
}

/// Bottom-up rewriting: children first, then the node itself.
pub fn rewrite_bottom_up(e: Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let rebuilt = map_children(e, &mut |c| rewrite_bottom_up(c, f));
    f(rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builder::*;
    use crate::scalar::{GroupFn, Scalar};
    use crate::value::CmpOp;

    #[test]
    fn walk_counts_nodes() {
        let e = singleton()
            .map("d1", Scalar::Doc("bib.xml".into()))
            .select(Scalar::attr_cmp(CmpOp::Eq, "a", "b"));
        let mut n = 0;
        walk(&e, &mut |_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn walk_deep_reaches_nested() {
        let inner = singleton().map("d2", Scalar::Doc("bib.xml".into()));
        let e = singleton().map(
            "g",
            Scalar::Agg {
                f: GroupFn::count(),
                input: Box::new(inner),
            },
        );
        let mut shallow = 0;
        walk(&e, &mut |_| shallow += 1);
        assert_eq!(shallow, 2);
        let mut deep = 0;
        walk_deep(&e, &mut |_| deep += 1);
        assert_eq!(deep, 4);
    }

    #[test]
    fn rewrite_bottom_up_transforms_leaves_first() {
        let e = singleton().select(Scalar::attr("x"));
        let mut order = Vec::new();
        rewrite_bottom_up(e, &mut |node| {
            order.push(node.op_name());
            node
        });
        assert_eq!(order, vec!["□", "σ"]);
    }
}
