//! The scalar expression language — subscripts of NAL operators.
//!
//! NAL "allows nesting of algebraic expressions: for example, within a
//! selection predicate of a select operator we allow the occurrence of
//! further nested algebraic expressions" (§2). This is where that nesting
//! lives: [`Scalar::Agg`], [`Scalar::Exists`], and [`Scalar::Forall`]
//! embed full algebra [`Expr`]essions inside predicates and χ subscripts.
//! Nested expressions force nested-loop evaluation; removing them is the
//! whole point of the unnesting equivalences.

pub mod func;
pub mod groupfn;

pub use func::Func;
pub use groupfn::{AggKind, GroupFn};

use std::fmt;

use xpath::Path;

use crate::expr::Expr;
use crate::sym::Sym;
use crate::value::{CmpOp, Value};

/// Arithmetic operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `mod`
    Mod,
}

impl ArithOp {
    /// XQuery surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::Mod => "mod",
        }
    }

    /// Apply to two numbers.
    pub fn apply(self, l: f64, r: f64) -> f64 {
        match self {
            ArithOp::Add => l + r,
            ArithOp::Sub => l - r,
            ArithOp::Mul => l * r,
            ArithOp::Div => l / r,
            ArithOp::Mod => l % r,
        }
    }
}

/// A scalar expression, evaluated against an environment tuple.
#[derive(Clone, PartialEq, Debug)]
pub enum Scalar {
    /// A constant value.
    Const(Value),
    /// An attribute/variable reference.
    Attr(Sym),
    /// Atomic comparison `l θ r` (with XQuery's existential semantics when
    /// either side evaluates to a sequence).
    Cmp(CmpOp, Box<Scalar>, Box<Scalar>),
    /// Membership `l ∈ r`, where `r` is sequence-valued (equivalent to
    /// `Cmp(Eq, …)` at runtime, kept distinct because equivalences 4 and 5
    /// pattern-match on it).
    In(Box<Scalar>, Box<Scalar>),
    /// Logical conjunction.
    And(Box<Scalar>, Box<Scalar>),
    /// Logical disjunction.
    Or(Box<Scalar>, Box<Scalar>),
    /// Logical negation.
    Not(Box<Scalar>),
    /// Builtin function call.
    Call(Func, Vec<Scalar>),
    /// Arithmetic on atomic values (`+ - * div mod`), numeric per
    /// XQuery's untyped-data coercion rules.
    Arith(ArithOp, Box<Scalar>, Box<Scalar>),
    /// Structural path applied to a context value (node or node sequence).
    Path(Box<Scalar>, Path),
    /// `doc("uri")` — the document node of a catalog document.
    Doc(String),
    /// `e[a]`: lift the item sequence produced by the inner scalar into a
    /// tuple sequence with single attribute `a` (§2).
    Lift(Box<Scalar>, Sym),
    /// `Π^D` on an item sequence — `distinct-values(…)` after atomization.
    /// Deterministic first-occurrence order, not order-preserving (§2).
    DistinctItems(Box<Scalar>),
    /// `∃ x ∈ range : pred` — a nested algebraic expression in a
    /// quantifier (left-hand side of Eqv. 6).
    Exists {
        /// The quantified variable.
        var: Sym,
        /// The range expression (a query block).
        range: Box<Expr>,
        /// The quantified predicate.
        pred: Box<Scalar>,
    },
    /// `∀ x ∈ range : pred` (left-hand side of Eqv. 7).
    Forall {
        /// The quantified variable.
        var: Sym,
        /// The range expression (a query block).
        range: Box<Expr>,
        /// The quantified predicate.
        pred: Box<Scalar>,
    },
    /// `f(e)` where `e` is a nested algebraic expression and `f` a group
    /// function — the shape produced by translating `let` clauses, and the
    /// left-hand side of equivalences 1–5.
    Agg {
        /// The group function applied to the block's result.
        f: GroupFn,
        /// The nested query block.
        input: Box<Expr>,
    },
}

impl Scalar {
    /// An attribute reference.
    pub fn attr(a: impl Into<Sym>) -> Scalar {
        Scalar::Attr(a.into())
    }

    /// A constant.
    pub fn constant(v: Value) -> Scalar {
        Scalar::Const(v)
    }

    /// An integer constant.
    pub fn int(i: i64) -> Scalar {
        Scalar::Const(Value::Int(i))
    }

    /// A string constant.
    pub fn string(s: &str) -> Scalar {
        Scalar::Const(Value::str(s))
    }

    /// The comparison `l op r`.
    pub fn cmp(op: CmpOp, l: Scalar, r: Scalar) -> Scalar {
        Scalar::Cmp(op, Box::new(l), Box::new(r))
    }

    /// `a θ b` between two attributes — the correlation-predicate shape of
    /// the unnesting equivalences.
    pub fn attr_cmp(op: CmpOp, l: impl Into<Sym>, r: impl Into<Sym>) -> Scalar {
        Scalar::cmp(op, Scalar::attr(l), Scalar::attr(r))
    }

    /// The membership test `l ∈ r`.
    pub fn is_in(l: Scalar, r: Scalar) -> Scalar {
        Scalar::In(Box::new(l), Box::new(r))
    }

    /// `self ∧ other`.
    pub fn and(self, other: Scalar) -> Scalar {
        Scalar::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    pub fn or(self, other: Scalar) -> Scalar {
        Scalar::Or(Box::new(self), Box::new(other))
    }

    /// `¬self`, with comparison negation folded in.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Scalar {
        match self {
            // Cheap simplifications keep rewritten predicates readable.
            Scalar::Not(inner) => *inner,
            Scalar::Cmp(op, l, r) => Scalar::Cmp(op.negate(), l, r),
            other => Scalar::Not(Box::new(other)),
        }
    }

    /// Apply a structural path to this context value.
    pub fn path(self, p: Path) -> Scalar {
        Scalar::Path(Box::new(self), p)
    }

    /// `self[a]` — lift the item sequence into single-attribute tuples.
    pub fn lift(self, a: impl Into<Sym>) -> Scalar {
        Scalar::Lift(Box::new(self), a.into())
    }

    /// `distinct-values(self)`.
    pub fn distinct(self) -> Scalar {
        Scalar::DistinctItems(Box::new(self))
    }

    /// Split a conjunction into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Scalar> {
        match self {
            Scalar::And(l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuild a conjunction from conjuncts (`true` for the empty list is
    /// represented as `Const(Bool(true))`).
    pub fn conjoin(mut parts: Vec<Scalar>) -> Scalar {
        match parts.len() {
            0 => Scalar::Const(Value::Bool(true)),
            1 => parts.pop().expect("len checked"),
            _ => {
                let mut it = parts.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, |acc, p| acc.and(p))
            }
        }
    }

    /// All attribute symbols referenced by this scalar, *including* those
    /// referenced inside nested algebra expressions (their own bound
    /// attributes excluded). This is the `F(e)` of §2 restricted to
    /// scalars.
    pub fn free_attrs(&self) -> std::collections::BTreeSet<Sym> {
        let mut out = std::collections::BTreeSet::new();
        self.collect_free(&mut out);
        out
    }

    pub(crate) fn collect_free(&self, out: &mut std::collections::BTreeSet<Sym>) {
        match self {
            Scalar::Const(_) | Scalar::Doc(_) => {}
            Scalar::Attr(a) => {
                out.insert(*a);
            }
            Scalar::Cmp(_, l, r)
            | Scalar::In(l, r)
            | Scalar::And(l, r)
            | Scalar::Or(l, r)
            | Scalar::Arith(_, l, r) => {
                l.collect_free(out);
                r.collect_free(out);
            }
            Scalar::Not(x) | Scalar::Lift(x, _) | Scalar::DistinctItems(x) => x.collect_free(out),
            Scalar::Path(x, _) => x.collect_free(out),
            Scalar::Call(_, args) => {
                for a in args {
                    a.collect_free(out);
                }
            }
            Scalar::Exists { var, range, pred } | Scalar::Forall { var, range, pred } => {
                out.extend(crate::expr::attrs::free_vars(range));
                let mut inner = std::collections::BTreeSet::new();
                pred.collect_free(&mut inner);
                inner.remove(var);
                // attributes produced by the range are bound, not free
                for a in crate::expr::attrs::attrs(range) {
                    inner.remove(&a);
                }
                out.extend(inner);
            }
            Scalar::Agg { f, input } => {
                out.extend(crate::expr::attrs::free_vars(input));
                if let Some(filter) = &f.filter {
                    let mut inner = std::collections::BTreeSet::new();
                    filter.collect_free(&mut inner);
                    for a in crate::expr::attrs::attrs(input) {
                        inner.remove(&a);
                    }
                    out.extend(inner);
                }
            }
        }
    }

    /// Call `visit` with every attribute this scalar references (repeats
    /// included) — unless it embeds nested algebra, whose references
    /// depend on the nested expressions' own schemas ([`Self::free_attrs`]
    /// resolves those): then nothing is visited and the answer is
    /// `false`. Allocation-free, for passes that run per compilation.
    pub fn flat_attrs(&self, visit: &mut impl FnMut(Sym)) -> bool {
        if self.has_nested_expr() {
            return false;
        }
        fn walk(s: &Scalar, visit: &mut impl FnMut(Sym)) {
            match s {
                Scalar::Const(_) | Scalar::Doc(_) => {}
                Scalar::Attr(a) => visit(*a),
                Scalar::Cmp(_, l, r)
                | Scalar::In(l, r)
                | Scalar::And(l, r)
                | Scalar::Or(l, r)
                | Scalar::Arith(_, l, r) => {
                    walk(l, visit);
                    walk(r, visit);
                }
                Scalar::Not(x)
                | Scalar::Lift(x, _)
                | Scalar::DistinctItems(x)
                | Scalar::Path(x, _) => walk(x, visit),
                Scalar::Call(_, args) => args.iter().for_each(|a| walk(a, visit)),
                Scalar::Exists { .. } | Scalar::Forall { .. } | Scalar::Agg { .. } => {
                    unreachable!("checked above")
                }
            }
        }
        walk(self, visit);
        true
    }

    /// Rename free attribute references per `(new, old)` pairs. Used by
    /// the rewriter, e.g. Eqv. 6/7 replace the quantifier variable `x` by
    /// the range attribute `x'` ("p′ results from p by replacing x by
    /// x′"). Nested algebra expressions are renamed via their own free
    /// scalars only — their internally-bound attributes are untouched
    /// because the rewriter only ever substitutes freshly scoped names.
    pub fn rename_attrs(&self, pairs: &[(Sym, Sym)]) -> Scalar {
        let ren = |a: Sym| -> Sym {
            pairs
                .iter()
                .find(|(_, old)| *old == a)
                .map(|(new, _)| *new)
                .unwrap_or(a)
        };
        match self {
            Scalar::Const(_) | Scalar::Doc(_) => self.clone(),
            Scalar::Attr(a) => Scalar::Attr(ren(*a)),
            Scalar::Cmp(op, l, r) => Scalar::Cmp(
                *op,
                Box::new(l.rename_attrs(pairs)),
                Box::new(r.rename_attrs(pairs)),
            ),
            Scalar::In(l, r) => Scalar::In(
                Box::new(l.rename_attrs(pairs)),
                Box::new(r.rename_attrs(pairs)),
            ),
            Scalar::And(l, r) => Scalar::And(
                Box::new(l.rename_attrs(pairs)),
                Box::new(r.rename_attrs(pairs)),
            ),
            Scalar::Or(l, r) => Scalar::Or(
                Box::new(l.rename_attrs(pairs)),
                Box::new(r.rename_attrs(pairs)),
            ),
            Scalar::Arith(op, l, r) => Scalar::Arith(
                *op,
                Box::new(l.rename_attrs(pairs)),
                Box::new(r.rename_attrs(pairs)),
            ),
            Scalar::Not(x) => Scalar::Not(Box::new(x.rename_attrs(pairs))),
            Scalar::Call(f, args) => {
                Scalar::Call(*f, args.iter().map(|a| a.rename_attrs(pairs)).collect())
            }
            Scalar::Path(x, p) => Scalar::Path(Box::new(x.rename_attrs(pairs)), p.clone()),
            Scalar::Lift(x, a) => Scalar::Lift(Box::new(x.rename_attrs(pairs)), *a),
            Scalar::DistinctItems(x) => Scalar::DistinctItems(Box::new(x.rename_attrs(pairs))),
            // Nested expressions keep their internal structure; only the
            // quantifier predicate (which sees the outer scope) is renamed.
            Scalar::Exists { var, range, pred } => Scalar::Exists {
                var: *var,
                range: range.clone(),
                pred: Box::new(pred.rename_attrs(pairs)),
            },
            Scalar::Forall { var, range, pred } => Scalar::Forall {
                var: *var,
                range: range.clone(),
                pred: Box::new(pred.rename_attrs(pairs)),
            },
            Scalar::Agg { f, input } => Scalar::Agg {
                f: f.clone(),
                input: input.clone(),
            },
        }
    }

    /// Is this scalar *pure and total* on the values the engine's
    /// chains produce — free of nested algebra (a quantifier/aggregate
    /// could write Ξ output or be arbitrarily expensive per evaluation)
    /// and of eagerly-erroring constructs (arithmetic and `decimal()`
    /// error on non-numeric input)? The engine's index conversions
    /// replay such scalars lazily per probed candidate, and the cost
    /// model prices only plans the engine will convert, so both layers
    /// share this predicate.
    pub fn replay_safe(&self) -> bool {
        match self {
            Scalar::Exists { .. } | Scalar::Forall { .. } | Scalar::Agg { .. } => false,
            Scalar::Arith(..) => false,
            Scalar::Call(f, args) => *f != Func::Decimal && args.iter().all(Scalar::replay_safe),
            Scalar::Const(_) | Scalar::Attr(_) | Scalar::Doc(_) => true,
            Scalar::Cmp(_, l, r) | Scalar::In(l, r) | Scalar::And(l, r) | Scalar::Or(l, r) => {
                l.replay_safe() && r.replay_safe()
            }
            Scalar::Not(x) | Scalar::Lift(x, _) | Scalar::DistinctItems(x) | Scalar::Path(x, _) => {
                x.replay_safe()
            }
        }
    }

    /// `true` iff this scalar contains a nested algebra expression —
    /// i.e. forces nested-loop evaluation.
    pub fn has_nested_expr(&self) -> bool {
        match self {
            Scalar::Exists { .. } | Scalar::Forall { .. } | Scalar::Agg { .. } => true,
            Scalar::Const(_) | Scalar::Attr(_) | Scalar::Doc(_) => false,
            Scalar::Cmp(_, l, r)
            | Scalar::In(l, r)
            | Scalar::And(l, r)
            | Scalar::Or(l, r)
            | Scalar::Arith(_, l, r) => l.has_nested_expr() || r.has_nested_expr(),
            Scalar::Not(x) | Scalar::Lift(x, _) | Scalar::DistinctItems(x) | Scalar::Path(x, _) => {
                x.has_nested_expr()
            }
            Scalar::Call(_, args) => args.iter().any(Scalar::has_nested_expr),
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Const(v) => write!(f, "{v}"),
            Scalar::Attr(a) => write!(f, "{a}"),
            Scalar::Cmp(op, l, r) => write!(f, "{l} {} {r}", op.symbol()),
            Scalar::Arith(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            Scalar::In(l, r) => write!(f, "{l} ∈ {r}"),
            Scalar::And(l, r) => write!(f, "({l} ∧ {r})"),
            Scalar::Or(l, r) => write!(f, "({l} ∨ {r})"),
            Scalar::Not(x) => write!(f, "¬({x})"),
            Scalar::Call(func, args) => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Scalar::Path(base, p) => write!(f, "{base}{p}"),
            Scalar::Doc(uri) => write!(f, "doc(\"{uri}\")"),
            Scalar::Lift(x, a) => write!(f, "{x}[{a}]"),
            Scalar::DistinctItems(x) => write!(f, "ΠD({x})"),
            Scalar::Exists { var, range, pred } => {
                write!(f, "∃{var} ∈ ({range}) {pred}")
            }
            Scalar::Forall { var, range, pred } => {
                write!(f, "∀{var} ∈ ({range}) {pred}")
            }
            Scalar::Agg { f: gf, input } => write!(f, "{gf}({input})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_roundtrip() {
        let p = Scalar::attr_cmp(CmpOp::Eq, "a", "b")
            .and(Scalar::attr_cmp(CmpOp::Gt, "c", "d"))
            .and(Scalar::int(1));
        let parts = p.conjuncts();
        assert_eq!(parts.len(), 3);
        let rebuilt = Scalar::conjoin(parts.into_iter().cloned().collect());
        assert_eq!(rebuilt, p);
        assert_eq!(Scalar::conjoin(vec![]), Scalar::Const(Value::Bool(true)));
    }

    #[test]
    fn negation_simplifies_comparisons() {
        let p = Scalar::attr_cmp(CmpOp::Gt, "y", "x");
        assert_eq!(p.clone().not(), Scalar::attr_cmp(CmpOp::Le, "y", "x"));
        assert_eq!(p.clone().not().not(), p);
        let q = Scalar::attr("b").and(Scalar::attr("c"));
        assert_eq!(q.clone().not(), Scalar::Not(Box::new(q)));
    }

    #[test]
    fn free_attrs_of_plain_scalars() {
        let p = Scalar::attr_cmp(CmpOp::Eq, "a1", "a2").and(Scalar::int(3));
        let free: Vec<_> = p.free_attrs().into_iter().collect();
        assert_eq!(free, vec![Sym::new("a1"), Sym::new("a2")]);
    }

    #[test]
    fn has_nested_expr_flags_quantifiers_and_aggs() {
        assert!(!Scalar::attr("x").has_nested_expr());
        let nested = Scalar::Agg {
            f: GroupFn::count(),
            input: Box::new(Expr::Singleton),
        };
        assert!(nested.has_nested_expr());
        assert!(Scalar::attr("x").and(nested).has_nested_expr());
    }

    #[test]
    fn display_shapes() {
        let p = Scalar::attr_cmp(CmpOp::Eq, "a1", "a2");
        assert_eq!(p.to_string(), "a1 = a2");
        let q = Scalar::is_in(Scalar::attr("a1"), Scalar::attr("a2"));
        assert_eq!(q.to_string(), "a1 ∈ a2");
    }
}
