//! `xpath` — structural path expressions over `xmldb` documents.
//!
//! The paper treats XPath evaluation as a black box plugged into the Υ
//! (unnest-map) operator: *"we do not delve into optimizing XPath
//! evaluation but instead take an XPath expression occurring in a query as
//! it is"* (§2). This crate is that black box. It supports the structural
//! core the paper's queries need — child (`/`), descendant-or-self (`//`),
//! and attribute (`@`) axes with name tests — and guarantees the output
//! properties the algebra relies on:
//!
//! * results are in **document order**, and
//! * results are **duplicate-free** (§5.4 leans on *"`//book` returns a
//!   duplicate-free sequence of books by definition"*).
//!
//! Value predicates like `[author = $a1]` are *not* evaluated here: the
//! normalization step of §3 moves them into `where` clauses before
//! translation, so by execution time paths are purely structural.

#![forbid(unsafe_code)]

mod ast;
mod eval;
mod parser;

pub use ast::{Axis, NameTest, Path, Step};
pub use eval::{eval_path, EvalCounters, PathBuffers};
pub use parser::{parse_path, PathParseError};
