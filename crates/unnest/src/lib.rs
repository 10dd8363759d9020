//! `unnest` — the paper's core contribution: order-preserving unnesting
//! equivalences (Eqv. 1–9 of §4) as checked rewrite rules over NAL
//! expressions, plus the classical reorderings of §2 and a driver that
//! enumerates alternative plans.
//!
//! Every rule verifies its side conditions before firing:
//!
//! * structural conditions (`Ai ⊆ A(ei)`, `F(e2) ∩ A(e1) = ∅`, fresh `g`,
//!   `A1 ∩ A2 = ∅`, `f` independent of `a2`/`A2`) via `nal::expr::attrs`
//!   and [`conditions`],
//! * the semantic distinctness conditions of Eqv. 3/5/8/9
//!   (`e1 = Π^D_{A1:A2}(Π_{A2}(e2))`) via DTD-driven provenance analysis in
//!   [`schema`] — the check whose omission in Paparizos et al. the paper
//!   calls out in §5.1.
//!
//! The correctness proofs of Appendix A are *executable* here: the
//! property tests in `tests/` evaluate both sides of every equivalence on
//! randomized inputs satisfying the conditions and assert sequence
//! equality (order included).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classic;
pub mod conditions;
pub mod cost;
pub mod driver;
pub mod eqv;
pub mod prune;
pub mod schema;

pub use cost::{
    plan_cost_map, rank_plans, rank_plans_with, unnest_cheapest, unnest_cheapest_with, Calibration,
    CostModel, Estimate,
};
pub use driver::{enumerate_plans, unnest_best, PlanChoice, RewriteTrace};
pub use prune::prune;
pub use schema::{column_path, value_descriptor, values_match, ValueDescriptor};
