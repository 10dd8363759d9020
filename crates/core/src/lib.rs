//! `nal` — the order-preserving Nested ALgebra of May, Helmer, and
//! Moerkotte, *Nested Queries and Quantifiers in an Ordered Context*
//! (ICDE 2004).
//!
//! NAL extends Beeri and Tzaban's SAL; it operates on ordered sequences of
//! unordered tuples and permits *nested algebraic expressions* in operator
//! subscripts (selection predicates, χ bindings, quantifier ranges). This
//! crate provides:
//!
//! * the data model: [`value::Value`], [`tuple::Tuple`], [`sequence::Seq`],
//! * the scalar language with nesting: [`scalar::Scalar`], [`scalar::GroupFn`],
//! * the logical operators: [`expr::Expr`] (σ, Π, Π^D, χ, ×, ⋈, ⋉, ▷, ⟕,
//!   unary/binary Γ, μ, μ^D, Υ, Ξ, □),
//! * static analyses `A(e)`/`F(e)`: [`expr::attrs`],
//! * and the reference evaluator implementing the §2 definitions
//!   literally: [`mod@eval`].
//!
//! The unnesting equivalences that rewrite these expressions live in the
//! `unnest` crate; the optimized physical operators in `engine`.

#![warn(missing_docs)]

pub mod eval;
pub mod expr;
pub mod hash;
pub mod obs;
pub mod scalar;
pub mod sequence;
pub mod sym;
pub mod tuple;
pub mod value;

pub use eval::{eval, eval_query, EvalCtx, EvalError, EvalResult, Metrics, OpId, Scope};
pub use expr::{Expr, ProjOp, XiCmd};
pub use scalar::{AggKind, ArithOp, Func, GroupFn, Scalar};
pub use sequence::Seq;
pub use sym::Sym;
pub use tuple::Tuple;
pub use value::{cmp_atomic, cmp_general, CmpOp, Dec, NodeRef, Value};
