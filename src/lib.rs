//! `ordered-unnesting` — a reproduction of May, Helmer, Moerkotte:
//! *Nested Queries and Quantifiers in an Ordered Context* (ICDE 2004).
//!
//! This umbrella crate re-exports the subsystem crates and hosts the
//! shared experiment [`workloads`]. See `DESIGN.md` for the system map
//! and `EXPERIMENTS.md` for measured results.

pub mod plan_sets;
pub mod workloads;

pub use engine;
pub use nal;
pub use unnest;
pub use xmldb;
pub use xpath;
pub use xquery;
