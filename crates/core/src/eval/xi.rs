//! Ξ result construction: serializing values onto the output stream.

use std::fmt::Write as _;

use xmldb::serializer::serialize_node;
use xmldb::Catalog;

use crate::eval::{EvalCtx, EvalError, EvalResult, Scope};
use crate::expr::XiCmd;
use crate::value::Value;

/// Execute a Ξ command list for one tuple (its variables looked up in
/// `scope`), appending to the context's output stream.
pub fn run_cmds(cmds: &[XiCmd], scope: &Scope<'_>, ctx: &mut EvalCtx<'_>) -> EvalResult<()> {
    for cmd in cmds {
        match cmd {
            XiCmd::Str(s) => ctx.out.push_str(s),
            XiCmd::Var(a) => {
                let v = scope
                    .get(*a)
                    .ok_or_else(|| EvalError::new(format!("Ξ: unbound variable `{a}`")))?;
                write_value(v, ctx.catalog, &mut ctx.out);
            }
        }
    }
    Ok(())
}

/// Serialize a value the way XQuery result construction does: nodes as
/// XML markup, atomic values as their string value, sequences item by
/// item — appended to the caller's buffer.
pub fn write_value(v: &Value, catalog: &Catalog, out: &mut String) {
    match v {
        Value::Null => {}
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write!(out, "{i}").expect("writing to a String"),
        Value::Dec(d) => write!(out, "{d}").expect("writing to a String"),
        Value::Str(s) => out.push_str(s),
        Value::Node(n) => serialize_node(catalog.doc(n.doc), n.node, out),
        Value::Items(items) => {
            for it in items.iter() {
                write_value(it, catalog, out);
            }
        }
        Value::Tuples(ts) => {
            // A nested relation prints as the concatenation of its tuples'
            // values (used when a group with a single attribute is printed
            // directly).
            for t in ts.iter() {
                for val in t.values() {
                    write_value(val, catalog, out);
                }
            }
        }
    }
}
