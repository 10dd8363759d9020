//! `xquery` — the language frontend: parse, normalize, translate.
//!
//! Implements §3 of the paper: a parser for the XQuery subset the
//! evaluation uses, the *dependency-based* normalization (new `let`
//! variables for nested query blocks, predicates moved from path
//! expressions into `where` clauses, quantifier ranges embedded into FLWR
//! expressions), and the binary/unary `T` translation functions of Fig. 3
//! into the NAL algebra.
//!
//! ```
//! use xmldb::gen::{gen_bib, BibConfig};
//! let mut catalog = xmldb::Catalog::new();
//! catalog.register(gen_bib(&BibConfig::default()));
//! let expr = xquery::compile(
//!     r#"let $d := doc("bib.xml")
//!        for $t in $d//book/title
//!        return <t>{ $t }</t>"#,
//!     &catalog,
//! ).unwrap();
//! assert!(!expr.has_nested_scalars());
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod fingerprint;
pub mod normalize;
pub mod parser;
pub mod translate;

pub use ast::{CPart, Clause, PathAxis, PathStep, QExpr};
pub use fingerprint::Fingerprint;
pub use normalize::normalize;
pub use parser::{parse_query, QParseError};
pub use translate::{translate, TranslateError};

use xmldb::Catalog;

/// Full pipeline: parse → normalize → translate into a NAL expression
/// (still *nested*; hand it to `unnest` for the optimized plans).
pub fn compile(query: &str, catalog: &Catalog) -> Result<nal::Expr, CompileError> {
    let parsed = parse_query(query)?;
    let normalized = normalize(&parsed, catalog);
    let expr = translate(&normalized, catalog)?;
    Ok(expr)
}

/// Error from any stage of [`compile`].
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    Parse(QParseError),
    Translate(TranslateError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Translate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<QParseError> for CompileError {
    fn from(e: QParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<TranslateError> for CompileError {
    fn from(e: TranslateError) -> Self {
        CompileError::Translate(e)
    }
}
